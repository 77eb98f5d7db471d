"""CR and Kahler-CR structures on Lie algebras.

Verifies the defining conditions of a CR structure (a subspace H with an
almost-complex endomorphism j and two integrability identities), the Kahler
layer (a positive-definite metric whose form w(x, y) = <x, j y> is
antisymmetric, closed and nondegenerate on H), and the derived machinery:
the induced left-symmetric product on H, the w-radical, the commutative
subalgebra built from the center, ideal-complement complex structures, the
central-type extension builder, and the exactness construction available on
semisimple algebras.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, permutations
from typing import Mapping, Optional, Sequence

from .lie import IntTable, LieAlgebra, nonzero_contraction, validate_structure
from .linalg import (
    Matrix, Subspace, Vector,
    basis_vector, bilinear, is_zero, kernel, lincomb, rref, scaled, scaled_sparse, solve,
    unscaled, vdot, vector, vscale, vsub, zero_vector,
)
from .report import Report, fmt_vec, witness


# ---------------------------------------------------------------------------
# data bundles

@dataclass(frozen=True)
class CRData:
    """(H, j) on a Lie algebra; j is a total endomorphism with image in H.

    Construction enforces the structural invariants (j preserves H,
    j^2 = -Id on H, image(j) inside H); the two integrability conditions
    are verified by `check_cr` and reported, not raised.  H's RREF basis, j,
    the brackets on H and j on H are kept as integer tables, each a pair
    (s, ints) with ints / s the exact value and each built once.
    """

    algebra: LieAlgebra
    H: Subspace
    j: Matrix

    def __post_init__(self):
        n = self.algebra.dim
        if self.H.ambient_dim != n:
            raise ValueError("H lives in the wrong ambient dimension")
        if self.j.rows != n or self.j.cols != n:
            raise ValueError("j must be an endomorphism of the full algebra")
        j = self.j_rows[1]
        for i in range(n):
            if not self.in_H([row.get(i, 0) for row in j]):
                raise ValueError(f"image of j not contained in H (column {i + 1})")
        # j h_a = sum_e jH[a][e] h_e, so j^2 h_a = sum_e (jH jH)[a][e] h_e
        s, J = self.jH
        for a, row in enumerate(J):
            if lincomb(row, J, len(J)) != tuple(-s * s * (b == a) for b in range(len(J))):
                raise ValueError("j^2 is not -Id on H")

    @cached_property
    def basis_ints(self) -> tuple[int, list]:
        """H's RREF basis h_a as sparse integer rows {i: x}, with their scale."""
        return scaled_sparse(self.H.basis)

    @cached_property
    def annihilator(self) -> list:
        """Integer functionals, one per non-pivot column f, whose common kernel
        is H: v = sum_a v[p_a] h_a holds at the pivots p_a by construction, so
        v is in H iff s v[f] - sum_a s h_a[f] v[p_a] = 0 at every other f.
        Empty when H = G."""
        s, H = self.basis_ints
        return [{f: s, **{p: -h[f] for p, h in zip(self.H.pivots, H) if f in h}}
                for f in range(self.algebra.dim) if f not in self.H.pivots]

    def in_H(self, v) -> bool:
        """Membership of v, or of any nonzero multiple of it, in H."""
        return all(sum(x * v[i] for i, x in phi.items()) == 0 for phi in self.annihilator)

    @cached_property
    def j_rows(self) -> tuple[int, list]:
        """j as sparse integer rows {i: x}, with their scale."""
        return scaled_sparse(self.j.data)

    @cached_property
    def brackets(self) -> tuple[int, list]:
        """(s, B) with B[a][b] = s [h_a, h_b], an integer n-vector, for the
        RREF basis of H; each pair a < b is contracted with c once."""
        table, (sh, H) = self.algebra.table, self.basis_ints
        rows, n, m = table.rows, self.algebra.dim, len(H)
        B = [[(0,) * n] * m for _ in range(m)]
        for a in range(m):
            for b in range(a + 1, m):
                acc = [0] * n
                for i, x in H[a].items():
                    row = rows[i]
                    for j, y in H[b].items():
                        for k, z in row.get(j, {}).items():
                            acc[k] += x * y * z
                B[a][b], B[b][a] = tuple(acc), tuple(-e for e in acc)
        return sh * sh * table.scale, B

    @cached_property
    def jH(self) -> tuple[int, list]:
        """(s, J): j on H in H-coordinates, row a being s j h_a read at the
        pivots of H."""
        (sj, j), (sh, H) = self.j_rows, self.basis_ints
        return sj * sh, [tuple(sum(x * h.get(i, 0) for i, x in j[p].items())
                               for p in self.H.pivots) for h in H]


@dataclass(frozen=True)
class KahlerCRData:
    """CR data plus a positive-definite metric; w(x, y) = <x, j y>."""

    cr: CRData
    metric: Matrix

    def __post_init__(self):
        n = self.algebra.dim
        if self.H.dim == 0:
            raise ValueError("H must be nonzero")
        if self.metric.rows != n or self.metric.cols != n:
            raise ValueError("metric has the wrong size")
        if not self.metric.is_symmetric():
            raise ValueError("metric must be symmetric")
        # positive definiteness via leading principal minors
        bad = self.metric.first_nonpositive_minor()
        if bad is not None:
            raise ValueError(
                "metric is not positive definite (leading minor {} = {})".format(*bad))

    @property
    def algebra(self) -> LieAlgebra:
        return self.cr.algebra

    @property
    def H(self) -> Subspace:
        return self.cr.H

    @property
    def j(self) -> Matrix:
        return self.cr.j

    @cached_property
    def omega_matrix(self) -> Matrix:
        """Coordinate matrix of w: w(e_a, e_b) = (M J)_{ab}."""
        return self.metric * self.j

    @cached_property
    def omega_rows(self) -> tuple[int, list]:
        """The matrix of w as sparse integer rows {i: x}, with their scale."""
        return scaled_sparse(self.omega_matrix.data)

    @cached_property
    def omega_images(self) -> tuple[int, list]:
        """(s, U) with U[b] = s Omega h_b, an integer n-vector: w(x, h_b) is
        x . U[b] / s."""
        (sw, om), (sh, H) = self.omega_rows, self.cr.basis_ints
        return sw * sh, [tuple(sum(x * h.get(i, 0) for i, x in row.items()) for row in om)
                         for h in H]

    @cached_property
    def omega_gram(self) -> Matrix:
        """Gram matrix of w on the basis of H: entry (a, b) is w(h_a, h_b)."""
        (su, U), (sh, H) = self.omega_images, self.cr.basis_ints
        return Matrix([[Fraction(sum(x * u[i] for i, x in h.items()), su * sh) for u in U]
                       for h in H])

    def omega(self, x: Vector, y: Vector) -> Fraction:
        return vdot(x, self.omega_matrix.matvec(y))


@dataclass(frozen=True)
class LeftSymmetricProduct:
    """Product table on a basis of H; every product lies in H."""

    H_basis: tuple
    table: Mapping  # (a, b) -> Vector in ambient coordinates

    def is_zero(self) -> bool:
        return all(is_zero(v) for v in self.table.values())


# ---------------------------------------------------------------------------
# CR conditions

def check_cr(d: CRData) -> Report:
    """Def-level integrability: for X, Y in a basis of H,
    (2) [X,Y] - [jX,jY] in H, and
    (3) [jX,jY] = [X,Y] + j([X,jY] + [jX,Y]).

    Every bracket is a contraction of the table B = d.brackets: with
    K[a][b] = [j h_a, h_b] = sum_e jH[a][e] B[e][b], [j h_a, j h_b] is
    sum_f jH[b][f] K[a][f] and [h_a, j h_b] = -K[b][a].  Both conditions
    are tested on integers: (2) on s_J^2 s_B times the difference, (3) on
    s_j s_J^2 s_B times both sides."""
    rep = Report()
    (sB, B), (sJ, J), (sj, j) = d.brackets, d.jH, d.j_rows
    basis, names = d.H.basis, d.algebra.names
    m, n = len(basis), d.algebra.dim
    K = [[lincomb(J[a], (row[b] for row in B), n) for b in range(m)] for a in range(m)]
    s2, s3 = sJ * sJ * sB, sj * sJ * sJ * sB
    w2, w3 = [], []
    for a, x in enumerate(basis):
        for b in range(a + 1, m):
            xy, lhs = tuple(sJ * sJ * e for e in B[a][b]), lincomb(J[b], K[a], n)
            diff = vsub(xy, lhs)
            if not d.in_H(diff):
                w2.append(witness(x=fmt_vec(names, x), y=fmt_vec(names, basis[b]),
                                  offending=fmt_vec(names, unscaled(diff, s2))))
            jk = vsub(K[a][b], K[b][a])
            offending = tuple(sj * (e - f) - sJ * sum(z * jk[i] for i, z in row.items())
                              for e, f, row in zip(lhs, xy, j))
            if any(offending):
                w3.append(witness(x=fmt_vec(names, x), y=fmt_vec(names, basis[b]),
                                  offending=fmt_vec(names, unscaled(offending, s3))))
    rep.add("cr.condition2", not w2, w2)
    rep.add("cr.condition3", not w3, w3)
    return rep


def check_kahler(k: KahlerCRData) -> Report:
    """Antisymmetry of w, the cyclic closedness identity on all basis
    triples, and nondegeneracy of w restricted to H."""
    rep = Report()
    alg, n = k.algebra, k.algebra.dim
    names, omega = alg.names, k.omega_matrix

    anti = []
    for a in range(n):
        for b in range(a, n):
            if omega[a, b] != -omega[b, a]:
                anti.append(witness(x=names[a], y=names[b]))
    rep.add("kahler.omega_antisymmetric", not anti, anti)

    # W[(a, b)][t] = w([e_a, e_b], e_t) = sum_m c[a][b][m] omega[m, t], times
    # the scales of c and omega, kept for the nonzero brackets only
    table, (_, om) = alg.table, k.omega_rows
    W = {}
    for a, row in enumerate(table.rows):
        for b, v in row.items():
            acc = W[(a, b)] = [0] * n
            for m, z in v.items():
                for t, x in om[m].items():
                    acc[t] += z * x
    # S(a, b, t) = W[a][b][t] + W[t][a][b] + W[b][t][a] is cyclic and, as W is
    # antisymmetric in a, b, alternating: it vanishes when two indices agree,
    # and its value on a < b < t fixes it on the five other orderings
    zero = [0] * n
    failing = [(a, b, t) for a, b, t in table.triples()
               if W.get((a, b), zero)[t] + W.get((t, a), zero)[b] + W.get((b, t), zero)[a]]
    closed = [witness(x=names[a], y=names[b], z=names[t])
              for a, b, t in sorted(p for abt in failing for p in permutations(abt))]
    rep.add("kahler.omega_closed", not closed, closed)

    rep.add("kahler.omega_h_nondegenerate", k.omega_gram.det() != 0)
    return rep


# ---------------------------------------------------------------------------
# left-symmetric product

def left_symmetric_product(k: KahlerCRData) -> LeftSymmetricProduct:
    """For basis x, y of H, the unique xy in H with w(xy, z) = -w(y, [x, z])
    for all z in H, solved through the w|H Gram system."""
    if k.omega_gram.det() == 0:
        raise ValueError("omega restricted to H is degenerate")
    basis = k.H.basis
    m, n = len(basis), k.algebra.dim
    # w(sum_c coeff_c h_c, h_b) = sum_c coeff_c gram[c][b]  =>  coeff = (gram^T)^-1 rhs
    # gram^T is invertible, so row reduction turns [gram^T | I] into [I | (gram^T)^-1]
    reduced, _ = rref([tuple(r) + basis_vector(m, i)
                       for i, r in enumerate(k.omega_gram.transpose().data)])
    si, inverse = scaled_sparse(r[m:] for r in reduced)
    # w(y, v) = (Omega^T y) . v, with R[b] = s Omega^T h_b
    (sw, om), (sh, H), (sB, B) = k.omega_rows, k.cr.basis_ints, k.cr.brackets
    R = []
    for h in H:
        acc = {}
        for i, x in h.items():
            for t, y in om[i].items():
                acc[t] = acc.get(t, 0) + x * y
        R.append({t: x for t, x in acc.items() if x})
    scale = si * sw * sh * sB
    table = {}
    for a, brackets in enumerate(B):
        for b, r in enumerate(R):
            rhs = [-sum(x * v[t] for t, x in r.items()) for v in brackets]
            coeffs = [Fraction(sum(x * rhs[z] for z, x in row.items()), scale)
                      for row in inverse]
            table[(a, b)] = lincomb(coeffs, basis, n)
    return LeftSymmetricProduct(tuple(basis), table)


def check_left_symmetric(k: KahlerCRData, p: LeftSymmetricProduct) -> Report:
    """Identity (1) w(xy - yx, u) = w([x, y], u) on H; the Jacobi test for
    the induced bracket xy - yx; and, when Jacobi holds, the left-symmetry
    identity (2) x(yz) - (xy)z = y(xz) - (yx)z on all basis triples.

    The product table is scaled to integers by its own denominator.  Every
    product lies in H, so Jacobi and (2) run on H-coordinates: P[a][b] is
    h_a h_b read at the pivots of the RREF basis, and C = P - P^T holds the
    structure constants of the induced bracket."""
    rep = Report()
    m = k.H.dim
    fmt = [fmt_vec(k.algebra.names, h) for h in k.H.basis]
    keys = [(a, b) for a in range(m) for b in range(m)]
    sT, T = scaled(p.table[key] for key in keys)
    T = dict(zip(keys, T))
    (sB, B), (_, U) = k.cr.brackets, k.omega_images

    # w(xy - yx - [x, y], h_t) = (xy - yx - [x, y]) . U[t] / s, tested on
    # sT sB times the difference
    w1 = []
    for a, b in keys:
        d = [sB * (x - y) - sT * z for x, y, z in zip(T[a, b], T[b, a], B[a][b])]
        d = {i: x for i, x in enumerate(d) if x}
        w1.extend(witness(x=fmt[a], y=fmt[b], u=fmt[t])
                  for t, u in enumerate(U) if sum(x * u[i] for i, x in d.items()))
    rep.add("leftsym.identity1", not w1, w1)

    P = [[tuple(T[a, b][i] for i in k.H.pivots) for b in range(m)] for a in range(m)]
    C = IntTable([[vsub(P[a][b], P[b][a]) for b in range(m)] for a in range(m)])
    # C is antisymmetric by construction, so only Jacobi violations come back
    jac = [witness(x=fmt[a], y=fmt[b], z=fmt[c]) for _, (a, b, c) in C.violations()]
    rep.add("leftsym.jacobi_induced", not jac, jac)

    if not jac:
        # h_a v = sum_d v_d P[a][d] and (xy - yx)z = sum_d C[a][b][d] P[d][c].
        # The defect x(yz) - y(xz) - (xy - yx)z changes sign when a and b are
        # swapped and vanishes when a = b, so a < b decides every triple
        prod, comm = IntTable(P).rows, C.rows
        cols = [{d: prod[d][c] for d in range(m) if c in prod[d]} for c in range(m)]
        failing = [(a, b, c) for a in range(m) for b in range(a + 1, m) for c in range(m)
                   if nonzero_contraction(((1, prod[b].get(c, {}), prod[a]),
                                           (-1, prod[a].get(c, {}), prod[b]),
                                           (-1, comm[a].get(b, {}), cols[c])))]
        w2 = [witness(x=fmt[a], y=fmt[b], z=fmt[c])
              for a, b, c in sorted(failing + [(b, a, c) for a, b, c in failing])]
        rep.add("leftsym.identity2", not w2, w2)
    return rep


def induced_bracket(k: KahlerCRData, p: LeftSymmetricProduct) -> dict:
    """The commutator table [x,y]' = xy - yx on the H basis."""
    m = len(p.H_basis)
    return {(a, b): vsub(p.table[(a, b)], p.table[(b, a)])
            for a in range(m) for b in range(m)}


# ---------------------------------------------------------------------------
# omega-radical and center machinery

def omega_radical(k: KahlerCRData) -> tuple[Subspace, Report]:
    """L = {x : w(x, G) = 0}, with the subalgebra and <,>-orthogonality
    verdicts of the radical proposition."""
    rep = Report()
    L = kernel(k.omega_matrix.transpose())
    rep.add("radical.subalgebra", k.algebra.is_subalgebra(L))
    orth = []
    names = k.algebra.names
    images = [k.metric.matvec(h) for h in k.H.basis]
    for x in L.basis:
        for h, image in zip(k.H.basis, images):
            if vdot(x, image) != 0:
                orth.append(witness(x=fmt_vec(names, x), h=fmt_vec(names, h)))
    rep.add("radical.orthogonal_h", not orth, orth)
    return L, rep


def center_U(k: KahlerCRData) -> tuple[Subspace, Report]:
    """U = (Z(G) cap H) + j(Z(G) cap H); commutative, and ad z keeps H in H."""
    rep = Report()
    alg = k.algebra
    zh = alg.center().intersect(k.H)
    jzh = Subspace.span([k.j.matvec(v) for v in zh.basis], alg.dim)
    U = zh.sum(jzh)
    names = alg.names
    comm = []
    for a, x in enumerate(U.basis):
        for y in U.basis[a:]:
            b = alg.bracket(x, y)
            if not is_zero(b):
                comm.append(witness(x=fmt_vec(names, x), y=fmt_vec(names, y),
                                    offending=fmt_vec(names, b)))
    rep.add("center_u.commutative", not comm, comm)
    stab = []
    for z in U.basis:
        for h in k.H.basis:
            b = alg.bracket(z, h)
            if not k.H.contains(b):
                stab.append(witness(z=fmt_vec(names, z), h=fmt_vec(names, h),
                                    offending=fmt_vec(names, b)))
    rep.add("center_u.stabilizes_h", not stab, stab)
    return U, rep


# ---------------------------------------------------------------------------
# ideal-complement complex structure

def ideal_complement_complex(d: CRData, ideal: Subspace) -> tuple[LieAlgebra, Matrix, Report]:
    """Given an ideal I with I + H = G (direct), build the projected bracket
    on H and verify j is complex-bilinear for it.

    Raises ValueError when I is not an ideal or not complementary to H.
    """
    alg = d.algebra
    if not alg.is_ideal(ideal):
        raise ValueError("not an ideal")
    if ideal.dim + d.H.dim != alg.dim or ideal.intersect(d.H).dim != 0:
        raise ValueError("ideal is not supplementary to H")

    basis = d.H.basis
    m = len(basis)
    # v = sum_a s_a h_a + (a member of I): the first m coordinates of the
    # solution in the combined basis are the H-coordinates of v's projection
    A = Matrix.from_columns(list(basis) + list(ideal.basis))
    s, B = d.brackets
    c = [[solve(A, unscaled(v, s))[:m] for v in row] for row in B]
    rep = Report()
    bad = validate_structure(c)
    rep.add("ideal.jacobi", not bad,
            [witness(kind=k, indices=str(tuple(i + 1 for i in idx))) for k, idx in bad])
    quotient_like = LieAlgebra(c, names=[f"h{i + 1}" for i in range(m)], validate=False)

    s, J = d.jH
    jH = Matrix.from_columns([unscaled(row, s) for row in J])
    wj = []
    for a in range(m):
        for b in range(a + 1, m):
            lhs = jH.matvec(quotient_like.c[a][b])
            rhs = quotient_like.bracket(jH.column(a), basis_vector(m, b))
            if lhs != rhs:
                wj.append(witness(x=fmt_vec(alg.names, basis[a]),
                                  y=fmt_vec(alg.names, basis[b])))
    rep.add("ideal.complex_structure", not wj, wj)
    return quotient_like, jH, rep


# ---------------------------------------------------------------------------
# extension construction

def build_extension(base: KahlerCRData, v_dim: int,
                    alpha: Mapping[tuple[int, int], Sequence],
                    ) -> tuple[Optional[KahlerCRData], Report]:
    """Extend a Kahler algebra H (base.H must be the full space) by a vector
    space V: [x, y] = [x, y]' + alpha(x, y), with [H, V] = [V, V] = 0.

    Verifies Jacobi on the extension, j-invariance of alpha, the cyclic
    compatibility condition, and closedness of the extended form.  Returns
    (data, report); data is None when Jacobi fails.
    """
    alg = base.algebra
    n = alg.dim
    if base.H.dim != n:
        raise ValueError("extension base must have H equal to the full algebra")
    if v_dim < 1:
        raise ValueError("V must be at least one-dimensional")

    # alpha on basis pairs: alpha_rows[a][b] = alpha(e_a, e_b)
    alpha_rows = [[None] * n for _ in range(n)]
    for (a, b), val in alpha.items():
        v = vector(val)
        if len(v) != v_dim:
            raise ValueError(f"alpha value at {(a, b)} has wrong dimension")
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"alpha index {(a, b)} out of range")
        if a == b and not is_zero(v):
            raise ValueError(f"alpha({a + 1},{a + 1}) must vanish (antisymmetry)")
        if alpha_rows[a][b] not in (None, v):
            raise ValueError(f"alpha not antisymmetric at {(a + 1, b + 1)}")
        alpha_rows[a][b], alpha_rows[b][a] = v, vscale(-1, v)
    alpha_rows = [[zero_vector(v_dim) if v is None else v for v in row]
                  for row in alpha_rows]

    total = n + v_dim
    c = [[alg.c[a][b] + alpha_rows[a][b] if a < n and b < n else zero_vector(total)
          for b in range(total)] for a in range(total)]

    rep = Report()
    bad = validate_structure(c)
    rep.add("extension.jacobi", not bad,
            [witness(kind=k, indices=str(tuple(i + 1 for i in idx))) for k, idx in bad])

    jinv = []
    names = alg.names
    for a in range(n):
        for b in range(a + 1, n):
            if bilinear(alpha_rows, base.j.column(a), base.j.column(b), v_dim) \
                    != alpha_rows[a][b]:
                jinv.append(witness(x=names[a], y=names[b]))
    rep.add("extension.alpha_j_invariant", not jinv, jinv)

    if bad:
        return None, rep

    # cyclic condition: sum over cyclic permutations of
    # alpha([x, y]', z) + [alpha(x, y), z] = 0; V is central, so the second
    # term vanishes and alpha([e_x, e_y]', e_z) = sum_i c[x][y][i] alpha(e_i, e_z)
    cols = [[row[z] for row in alpha_rows] for z in range(n)]
    cyc = [witness(x=names[a], y=names[b], z=names[d_])
           for a in range(n) for b in range(a + 1, n) for d_ in range(b + 1, n)
           if not is_zero(lincomb(chain(alg.c[a][b], alg.c[d_][a], alg.c[b][d_]),
                                  chain(cols[d_], cols[b], cols[a]), v_dim))]
    rep.add("extension.cyclic", not cyc, cyc)

    j_ext = Matrix.block_diag(base.j, Matrix.zeros(v_dim, v_dim))
    metric_ext = Matrix.block_diag(base.metric, Matrix.identity(v_dim))
    H_ext = Subspace.span(
        [tuple(h) + zero_vector(v_dim) for h in base.H.basis], total)
    big = LieAlgebra(c, names=list(names) + [f"v{i + 1}" for i in range(v_dim)],
                     validate=False)
    data = KahlerCRData(CRData(big, H_ext, j_ext), metric_ext)

    closed = check_kahler(data)
    rep.add("extension.omega_closed",
            closed.result("kahler.omega_closed").passed
            and closed.result("kahler.omega_antisymmetric").passed)
    return data, rep


# ---------------------------------------------------------------------------
# semisimple exactness machinery

def semisimple_exactness(k: KahlerCRData) -> tuple[Optional[Vector], Optional[Vector],
                                                   Optional[Subspace], Report]:
    """On a semisimple algebra, solve w(x, y) = a([x, y]) for the dual
    vector a, then K(X, .) = a for X; return L = centralizer(X) with the
    verdicts that L equals the w-radical and dim L = codim H."""
    rep = Report()
    alg = k.algebra
    if not alg.is_semisimple():
        rep.add("exactness.semisimple", False,
                detail="algebra is not semisimple; exactness machinery unavailable")
        return None, None, None, rep

    omega = k.omega_matrix
    n = alg.dim
    rows, rhs = [], []
    for a in range(n):
        for b in range(a + 1, n):
            rows.append(alg.c[a][b])
            rhs.append(omega[a, b])
    alpha = solve(Matrix(rows), tuple(rhs))
    if alpha is None:
        rep.add("exactness.alpha_exact", False,
                detail="w(x,y) = a([x,y]) has no solution: input data invalid "
                       "for a semisimple Kahler-CR structure")
        return None, None, None, rep
    # overdetermined system: verify every equation after elimination
    bad = []
    for a in range(n):
        for b in range(a + 1, n):
            if vdot(alpha, alg.c[a][b]) != omega[a, b]:
                bad.append(witness(x=alg.names[a], y=alg.names[b]))
    rep.add("exactness.alpha_exact", not bad, bad)
    if bad:
        return alpha, None, None, rep

    K = alg.killing_form()
    X = solve(K, alpha)
    assert X is not None  # Killing form nondegenerate
    # K(X, v) = (K^T X) . v
    KX = K.transpose().matvec(X)
    dual = []
    for a in range(n):
        for b in range(a + 1, n):
            if vdot(KX, alg.c[a][b]) != omega[a, b]:
                dual.append(witness(x=alg.names[a], y=alg.names[b]))
    rep.add("exactness.killing_dual", not dual, dual)

    L = alg.centralizer(X)
    radical, _ = omega_radical(k)
    rep.add("exactness.radical_match",
            L == radical and L.dim == alg.dim - k.H.dim,
            detail=f"dim L = {L.dim}, codim H = {alg.dim - k.H.dim}")
    return alpha, X, L, rep
