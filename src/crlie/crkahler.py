"""CR and Kahler-CR structures on Lie algebras.

Verifies the defining conditions of a CR structure (a subspace H with an
almost-complex endomorphism j and two integrability identities), the Kahler
layer (a positive-definite metric whose form w(x, y) = <x, j y> is
antisymmetric, closed and nondegenerate on H), and the derived machinery:
the induced left-symmetric product on H, the w-radical, the commutative
subalgebra built from the center, the bracket of H projected along a
supplement with the ideal-complement complex structure, the central-type
extension checks and semisimple exactness.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, permutations, repeat
from math import gcd
from operator import mul
from typing import Optional, Sequence

from .lie import IntTable, LieAlgebra
from .linalg import (Frozen, Matrix, Subspace, contraction, format_rat, kernel, pack,
                     rref, solve, unpack)
from .report import Report, fmt_vec


# ---------------------------------------------------------------------------
# data bundles

class CRData(Frozen):
    """(H, j) on a Lie algebra; j is a total endomorphism with image in H.

    Construction enforces the structural invariants (j preserves H,
    j^2 = -Id on H, image(j) inside H); the two integrability conditions
    are verified by `check_cr` and reported, not raised.  The brackets on H
    and j on H are integer tables built once from the integer forms of H and
    j, each a pair (s, rows) with rows / s the exact value and rows in the
    form of `IntTable.rows`, holding only the nonzero entries; the fields are
    read-only, so those tables cannot go stale.  With H = G the RREF basis of
    H is the unit basis with scale 1, so both are read off the table and j.
    """

    def __init__(self, algebra: LieAlgebra, H: Subspace, j: Matrix):
        self.__dict__.update(algebra=algebra, H=H, j=j)
        n = algebra.dim
        if H.ambient_dim != n:
            raise ValueError("H lives in the wrong ambient dimension")
        if j.rows != n or j.cols != n:
            raise ValueError("j must be an endomorphism of the full algebra")
        for i, column in enumerate(j.transpose().ints):
            if not H.contains(column):
                raise ValueError(f"image of j not contained in H (column {i + 1})")
        # j h_a = sum_e jH[a][e] h_e, so j^2 h_a = sum_e (jH jH)[a][e] h_e
        s, J = self.jH
        rows = dict(enumerate(J))
        for a, row in enumerate(J):
            if contraction([(1, row, rows)]) != {a: -s * s}:
                raise ValueError("j^2 is not -Id on H")

    @cached_property
    def brackets(self) -> tuple[int, list]:
        """(s, B) with B[a] = {b: s [h_a, h_b]} over the nonzero brackets of
        the RREF basis of H: the pairs a < b are `evaluate`d on the table, and
        B[b][a] = -B[a][b].  With H = G, h_a = e_a and this is the table
        itself: its rows hold both orientations, nonzero entries only, on
        sorted keys, which is what the pair loop builds."""
        table, H = self.algebra.table, self.H.ints
        if self.H.dim == self.algebra.dim:
            return table.scale, table.rows
        B = [{} for _ in H]
        for (a, b), v in table.evaluate(H).items():
            B[a][b], B[b][a] = v, {k: -e for k, e in v.items()}
        return self.H.scale ** 2 * table.scale, B

    @cached_property
    def jH(self) -> tuple[int, Sequence[dict]]:
        """(s, J): j on H in H-coordinates, J[a] = {e: x} holding the nonzero
        entries of s j h_a read at the pivots of H.  With H = G, h_a = e_a at
        pivot a, so J[a] is column a of s_j j and the columns of j are J."""
        if self.H.dim == self.algebra.dim:
            return self.j.scale, self.j.transpose().ints
        H, columns = self.H, dict(enumerate(self.j.transpose().ints))
        images = (contraction([(1, h, columns)]) for h in H.ints)
        return self.j.scale * H.scale, [{e: v[p] for e, p in enumerate(H.pivots) if p in v}
                                        for v in images]

    @cached_property
    def basis_names(self) -> list:
        """H's RREF basis in the algebra's names, read only where a witness or
        an output line names it, so a passing document formats none."""
        return [fmt_vec(self.algebra.names, h, self.H.scale) for h in self.H.ints]


class KahlerCRData(Frozen):
    """CR data plus a positive-definite metric; w(x, y) = <x, j y>."""

    def __init__(self, cr: CRData, metric: Matrix):
        self.__dict__.update(cr=cr, metric=metric)
        n = cr.algebra.dim
        if cr.H.dim == 0:
            raise ValueError("H must be nonzero")
        if metric.rows != n or metric.cols != n:
            raise ValueError("metric has the wrong size")
        if not metric.is_symmetric():
            raise ValueError("metric must be symmetric")
        # positive definiteness: Sylvester's leading minors, from one elimination
        bad = metric.first_nonpositive_minor()
        if bad is not None:
            raise ValueError("metric is not positive definite "
                             f"(leading minor {bad[0]} = {format_rat(bad[1])})")

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
    def h_basis(self) -> Matrix:
        """The RREF basis of H as the rows of a matrix, which keeps H^T."""
        return Matrix.from_ints(self.H.ambient_dim, self.H.scale, self.H.ints)

    @cached_property
    def omega_images(self) -> Matrix:
        """Omega H^T: entry (i, t) is w(e_i, h_t), column t being Omega h_t."""
        return self.omega_matrix * self.h_basis.transpose()

    @cached_property
    def gram(self) -> Matrix:
        """Gram matrix of w on the RREF basis of H: entry (a, b) is
        w(h_a, h_b)."""
        return self.h_basis * self.omega_images

    @cached_property
    def gram_reduced(self) -> tuple[int, list, list]:
        """The RREF (s, R, pivots) of the integer [G | I] for G = gram.ints.
        [G | I] has rank m, and G is singular exactly when some pivot falls in
        I; otherwise R / s = [I | G^-1]."""
        m = self.H.dim
        return rref([{**r, m + i: 1} for i, r in enumerate(self.gram.ints)], 2 * m)

    @cached_property
    def radical(self) -> Subspace:
        """L = {x : w(x, G) = 0}, the kernel of Omega^T."""
        return kernel(self.omega_matrix.transpose())

    @cached_property
    def omega_defects(self) -> tuple[list, list]:
        """The witnesses of `kahler.omega_antisymmetric` and
        `kahler.omega_closed`, read by `check_kahler` and `build_extension`."""
        alg, n = self.algebra, self.algebra.dim
        names, om = alg.names, self.omega_matrix.ints
        anti = [dict(x=names[a], y=names[b]) for a in range(n) for b in range(a, n)
                if om[a].get(b, 0) != -om[b].get(a, 0)]

        # dw = 0 is the Jacobi identity of the central extension G + R by w, so
        # cyclic_defects(O) with O[t] = {l: {0: w(e_l, e_t)}} finds the a < b < t
        # where w([e_a, e_b], e_t) + w([e_t, e_a], e_b) + w([e_b, e_t], e_a) != 0.
        # As c is antisymmetric, that sum is alternating: it vanishes when two
        # indices agree, and its value on a < b < t fixes it on the five others
        O = [{l: {0: x} for l, x in row.items()} for row in self.omega_matrix.transpose().ints]
        return anti, [dict(x=names[a], y=names[b], z=names[t]) for a, b, t in sorted(
            p for abt in alg.table.cyclic_defects(O) for p in permutations(abt))]


def _jacobi(triples) -> list:
    """A witness per basis triple on which a Jacobiator fails, its indices 1-based."""
    return [dict(kind="jacobi", indices=str(tuple(i + 1 for i in t))) for t in triples]


def _named(d: CRData, keys: str, indices) -> list:
    """A witness per index tuple t, with keys[k] naming H's basis vector t[k]."""
    return [dict(zip(keys, (d.basis_names[i] for i in t))) for t in indices]


# ---------------------------------------------------------------------------
# CR conditions

def check_cr(d: CRData) -> Report:
    """Def-level integrability: for X, Y in a basis of H,
    (2) [X,Y] - [jX,jY] in H, and
    (3) [jX,jY] = [X,Y] + j([X,jY] + [jX,Y]).

    Every bracket is a combination of the table B = d.brackets: with
    K[a][b] = [j h_a, h_b] = sum_e jH[a][e] B[e][b], formed only for the b
    with some B[e][b] != 0 where jH[a][e] != 0, [j h_a, j h_b] is
    sum_f jH[b][f] K[a][f] and [h_a, j h_b] = -K[b][a].  Both conditions are
    tested on integers: (2) on s_J^2 s_B times the difference, (3) on
    s_j s_J^2 s_B times both sides.  Each bracket v is `pack`ed with its image
    as [v | s_j j v] in 2n slots of w bits, so a combination is one integer
    P = r + q 2^N, N = w n, with r its first n slots, |r| < 2^(N-1), and
    q = (P + 2^(N-1)) >> N; only a witness or a test in a proper H unpacks."""
    rep = Report()
    (sB, B), (sJ, J), j = d.brackets, d.jH, d.j
    names, m, proper = d.algebra.names, d.H.dim, d.H.dim < d.algebra.dim
    # With beta the largest |entry| of B and r_J, r_j the largest row L1 norms of J and
    # s_j j, the digits of K, (2), K[a][b] - K[b][a] and its image under s_j j are at most
    # r_J, s_J^2 + r_J^2, 2 r_J and 2 r_J r_j times beta: w bounds (3), so all, as s_J r_j >= 1
    entries = chain.from_iterable(map(dict.values, chain.from_iterable(map(dict.values, B))))
    rJ, rj = (max((sum(map(abs, r.values())) for r in t), default=0) for t in (J, j.ints))
    w = (max(map(abs, entries), default=0)
         * (j.scale * (sJ * sJ + rJ * rJ) + 2 * sJ * rJ * rj)).bit_length() + 1
    N = w * d.algebra.dim
    # E[k] packs [e_k | column k of s_j j], so sum_k v_k E[k] packs [v | s_j j v]
    E = [(1 << w * k) + (pack(c, w) << N) for k, c in enumerate(j.transpose().ints)]
    PB = {a: {} for a in range(m)}  # B is antisymmetric: each bracket is packed once
    for a, row in enumerate(B):
        for b, v in row.items():
            PB[a][b] = -PB[b][a] if b < a else sum(map(mul, v.values(), map(E.__getitem__, v)))
    K = [contraction([(1, row, PB)]) for row in J]  # it adds packed vectors too
    s2, w2, w3, half, zeros = sJ * sJ * sB, [], [], 1 << N >> 1, repeat(0)
    for a in range(m):
        for b in range(a + 1, m):
            # s_J^2 s_B ([h_a, h_b] - [j h_a, j h_b]) is r, and s_j times its negative
            # minus s_J j([j h_a, h_b] - [j h_b, h_a]) reads q of K[a][b] - K[b][a]
            P = sJ * sJ * PB[a].get(b, 0) - sum(map(mul, J[b].values(), map(K[a].get, J[b], zeros)))
            diff = P and P - ((P + half) >> N << N)
            if proper and diff and not d.H.contains(unpack(diff, w)):
                w2.append(dict(x=d.basis_names[a], y=d.basis_names[b],
                               offending=fmt_vec(names, unpack(diff, w), s2)))
            P = K[a].get(b, 0) - K[b].get(a, 0)
            offending = -j.scale * diff - sJ * (P and (P + half) >> N)
            if offending:
                w3.append(dict(x=d.basis_names[a], y=d.basis_names[b],
                               offending=fmt_vec(names, unpack(offending, w), j.scale * s2)))
    rep.add("cr.condition2", not w2, w2)
    rep.add("cr.condition3", not w3, w3)
    return rep


def check_kahler(k: KahlerCRData) -> Report:
    """Antisymmetry of w, the cyclic closedness identity on all basis
    triples, and nondegeneracy of w restricted to H."""
    rep = Report()
    anti, closed = k.omega_defects
    rep.add("kahler.omega_antisymmetric", not anti, anti)
    rep.add("kahler.omega_closed", not closed, closed)
    rep.add("kahler.omega_h_nondegenerate", k.gram_reduced[2] == list(range(k.H.dim)))
    return rep


# ---------------------------------------------------------------------------
# left-symmetric product

def left_symmetric_product(k: KahlerCRData) -> IntTable:
    """For basis x, y of H, the unique xy in H with w(xy, z) = -w(y, [x, z])
    for all z in H, solved through the w|H Gram system: the table on the RREF
    basis h_a of H in H-coordinates, h_a h_b = sum_c rows[a][b][c] h_c / scale,
    in lowest terms, so that equal products compare equal."""
    m, G = k.H.dim, k.gram
    # w(sum_c coeff_c h_c, h_b) = sum_c coeff_c gram[c][b]  =>  coeff = (gram^T)^-1 rhs,
    # so coeff_c = sum_z gram^-1[z][c] rhs[z], read from si [I | G^-1] with
    # gram^-1 = s_G G^-1.  G is nonsingular for every KahlerCRData: for
    # x != 0 in H, j x is in H and w(x, j x) = <x, j^2 x> = -<x, x> < 0
    si, reduced, _ = k.gram_reduced
    inverse = {z: {c - m: G.scale * x for c, x in r.items() if c >= m}
               for z, r in enumerate(reduced)}
    # w(h_b, v) = sum_t R[t][b] v_t for R = (H Omega)^T = Omega^T H^T; rhs[z] =
    # -s w(h_b, [h_a, h_z]) is formed only for the z with [h_a, h_z] != 0
    R, (sB, B) = k.omega_matrix.transpose() * k.h_basis.transpose(), k.cr.brackets
    columns = dict(enumerate(R.ints))
    P = []
    for row in B:
        rhs = [{} for _ in range(m)]
        for z, v in row.items():
            for b, x in contraction([(-1, v, columns)]).items():
                rhs[b][z] = x
        # the inverse is nonsingular, so a nonzero rhs gives a nonzero product
        P.append({b: contraction([(1, r, inverse)]) for b, r in enumerate(rhs) if r})
    s = si * R.scale * sB
    g = gcd(s, *(x for row in P for v in row.values() for x in v.values()))
    return IntTable(m, s // g, [{b: {c: x // g for c, x in v.items()} for b, v in row.items()}
                                for row in P])


def check_left_symmetric(k: KahlerCRData, p: IntTable) -> Report:
    """Identity (1) w(xy - yx, u) = w([x, y], u) on H; the Jacobi test for
    the induced bracket xy - yx; and, when Jacobi holds, the left-symmetry
    identity (2) x(yz) - (xy)z = y(xz) - (yx)z on all basis triples.

    All three read the product table P = p.rows in H-coordinates, and
    C = P - P^T, formed where P or P^T is nonzero, holds the structure
    constants of the induced bracket.  Both identities are decided on pairs
    a < b only, and each failure is reported in both orientations: B and C
    are both antisymmetric, so the defect of (1) at (b, a) is minus the one
    at (a, b), and the defect of (2) changes sign when x and y are swapped
    and vanishes when x = y.

    Identity (2) is summed only on the triples where one of its terms can be
    nonzero.  With x, y, z = h_a, h_b, h_c and h_a v = sum_d v_d P[a][d],
    x(yz) = sum_d P[b][c][d] P[a][d] has a term only where supp P[b][c]
    meets the keys of P[a]; y(xz) only where the same holds with a and b
    swapped; and (xy - yx)z = sum_d C[a][b][d] P[d][c] only where c is a key
    of P[d] for some d in supp C[a][b].  The index
    d -> {(b, c) : d in supp P[b][c]} lists the first two kinds from the keys
    of P[a], so no pair a < b is scanned."""
    rep = Report()
    m, s, P = p.dim, p.scale, p.rows
    pairs = {(min(a, b), max(a, b)) for a, row in enumerate(P) for b in row if a != b}
    C = IntTable.antisymmetric(m, {(a, b): (1, contraction([(1, {b: 1}, P[a]), (-1, {a: 1}, P[b])]))
                                   for a, b in pairs})

    # w(xy - yx, h_t) = sum_c C[a][b][c] G[c][t] / (s s_G) and w([x, y], h_t) =
    # sum_i B[a][b][i] V[i][t] / (s_B s_V) for V = omega_images; tested on
    # s s_G s_B s_V times the difference, which vanishes where B and C do
    (sB, B), V, G = k.cr.brackets, k.omega_images, k.gram
    gram, images = dict(enumerate(G.ints)), dict(enumerate(V.ints))
    bad = {}
    for a, b in sorted({(a, b) for rows in (B, C.rows) for a, row in enumerate(rows)
                        for b in row if a < b}):
        d = contraction([(sB * V.scale, C.rows[a].get(b, {}), gram),
                         (-s * G.scale, B[a].get(b, {}), images)])
        if d:
            bad[a, b] = bad[b, a] = sorted(d)
    w1 = _named(k.cr, "xyu", ((a, b, t) for a, b in sorted(bad) for t in bad[a, b]))
    rep.add("leftsym.identity1", not w1, w1)

    # C is antisymmetric by construction, so only its Jacobiator is decided
    jac = _named(k.cr, "xyz", C.cyclic_defects(C.rows))
    rep.add("leftsym.jacobi_induced", not jac, jac)

    if not jac:
        # the defect x(yz) - y(xz) - (xy - yx)z is homogeneous of degree 2 in
        # P, so the scale cannot change a zero test; cols[c] = {d: P[d][c]}
        comm, cols, index = C.rows, {}, {}
        for b, row in enumerate(P):
            for c, v in row.items():
                cols.setdefault(c, {})[b] = v
                for d in v:
                    index.setdefault(d, []).append((b, c))
        # the unions form each triple once, however many d reach it
        triples = {(min(a, b), max(a, b), c) for a, row in enumerate(P)
                   for b, c in set().union(*(index.get(d, ()) for d in row)) if a != b}
        triples.update((a, b, c) for a, row in enumerate(comm) for b, v in row.items()
                       if a < b for c in set().union(*map(P.__getitem__, v)))
        failing = [(a, b, c) for a, b, c in triples
                   if contraction(((1, P[b].get(c, {}), P[a]),
                                   (-1, P[a].get(c, {}), P[b]),
                                   (-1, comm[a].get(b, {}), cols[c])))]
        w2 = _named(k.cr, "xyz", sorted(failing + [(b, a, c) for a, b, c in failing]))
        rep.add("leftsym.identity2", not w2, w2)
    return rep


# ---------------------------------------------------------------------------
# omega-radical and center machinery

def omega_radical(k: KahlerCRData) -> Report:
    """The subalgebra and <,>-orthogonality verdicts of the radical
    proposition for L = {x : w(x, G) = 0}, which is `k.radical`."""
    rep = Report()
    L, names = k.radical, k.algebra.names
    rep.add("radical.subalgebra", k.algebra.is_subalgebra(L))
    # <x, h_b> = sum_i x_i (M H^T)[i][b] for each basis vector x of L
    rows = dict(enumerate((k.metric * k.h_basis.transpose()).ints))
    orth = [dict(x=fmt_vec(names, x, L.scale), h=k.cr.basis_names[b])
            for x in L.ints for b in sorted(contraction([(1, x, rows)]))]
    rep.add("radical.orthogonal_h", not orth, orth)
    return rep


def center_U(k: KahlerCRData) -> tuple[Subspace, Report]:
    """U = (Z(G) cap H) + j(Z(G) cap H); commutative, and ad z keeps H in H.

    The brackets of the integer rows of U and H are `evaluate`d on the table;
    a pair it skips has a zero bracket, which lies in H; U's basis is named only for a witness."""
    rep = Report()
    alg, H, names = k.algebra, k.H, k.algebra.names
    zh = alg.center().intersect(H)
    # s_j s_z j z = sum_i z_i (column i of s_j j)
    cols = dict(enumerate(k.j.transpose().ints))
    U = Subspace.from_ints(alg.dim, [*zh.ints, *(contraction([(1, z, cols)]) for z in zh.ints)])
    s_uu, s_uh = alg.table.scale * U.scale * U.scale, alg.table.scale * U.scale * H.scale
    comm = {ab: fmt_vec(names, v, s_uu) for ab, v in alg.table.evaluate(U.ints).items()}
    stab = {ab: fmt_vec(names, v, s_uh) for ab, v in alg.table.evaluate(U.ints, H.ints).items()
            if not H.contains(v)}
    u = [fmt_vec(names, x, U.scale) for x in U.ints] if comm or stab else []
    rep.add("center_u.commutative", not comm, [dict(x=u[a], y=u[b], offending=v)
                                               for (a, b), v in comm.items()])
    rep.add("center_u.stabilizes_h", not stab, [dict(z=u[a], h=k.cr.basis_names[b], offending=v)
                                                for (a, b), v in stab.items()])
    return U, rep


# ---------------------------------------------------------------------------
# projection along a supplement and ideal-complement complex structure

def projected_brackets(d: CRData, S: Subspace) -> Optional[IntTable]:
    """The bracket of H projected onto H along S, as the table on H's RREF
    basis, or None when S does not supplement H.  [h_a, h_b] is sum_e x_e h_e
    plus a member of S; one RREF of [A | B], A the integer columns of H and S,
    B those of s_B [h_a, h_b], solves every pair a < b.  S supplements H exactly
    when A is square and invertible: dim H + dim S = n and the first n pivots
    are 0..n-1.  The RREF is then s [I | A^-1 B], so x_e = s_H (A^-1 B)_e / s_B."""
    n, m, H, (sB, B) = d.algebra.dim, d.H.dim, d.H, d.brackets
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    columns = [*H.ints, *S.ints, *(B[a].get(b, {}) for a, b in pairs)]
    s, R, pivots = rref(Matrix.from_ints(n, 1, columns).transpose().ints, len(columns))
    if m + S.dim != n or pivots[:n] != list(range(n)):
        return None
    X = Matrix.from_ints(len(pairs), s * sB,
                         [{p - n: H.scale * x for p, x in r.items() if p >= n} for r in R[:m]])
    # X is in lowest terms, so the table is canonical
    return IntTable.antisymmetric(m, dict(zip(pairs, ((X.scale, c) for c in X.transpose().ints))))


def ideal_complement_complex(d: CRData, ideal: Subspace) -> Report:
    """Given an ideal I with I + H = G (direct), verify the Jacobi identity of
    the bracket projected onto H along I and that j is complex-bilinear for it.

    `ideal.valid_input` fails, with its reason, when I is not an ideal or not
    complementary to H, and then nothing else is decided.
    """
    rep = Report()
    if not d.algebra.is_ideal(ideal):
        rep.add("ideal.valid_input", False, [dict(reason="not an ideal")])
        return rep
    table = projected_brackets(d, ideal)
    if table is None:
        rep.add("ideal.valid_input", False, [dict(reason="ideal is not supplementary to H")])
        return rep
    rep.add("ideal.valid_input", True)
    bad = table.cyclic_defects(table.rows)
    rep.add("ideal.jacobi", not bad, _jacobi(bad))

    # j [h_a, h_b]' = sum_e c[a][b][e] j h_e and [j h_a, h_b]' = sum_e jH[a][e] [h_e, h_b]',
    # compared as s_J times both sides; the latter is the table evaluated on jH and the units
    m, (_, J) = table.dim, d.jH
    jmap, K = dict(enumerate(J)), table.evaluate(J, [{b: 1} for b in range(m)])
    wj = _named(d, "xy", [(a, b) for a in range(m) for b in range(a + 1, m) if contraction(
        [(1, table.rows[a].get(b, {}), jmap)]) != K.get((a, b), {})])
    rep.add("ideal.complex_structure", not wj, wj)
    return rep


# ---------------------------------------------------------------------------
# extension checks

def build_extension(base: KahlerCRData, alpha: IntTable) -> Report:
    """Check the extension of a Kahler algebra G (base.H must be the full
    space) by a vector space V: [x, y] = [x, y]' + alpha(x, y), with
    [G, V] = [V, V] = 0, for alpha the antisymmetric table of V-vectors
    alpha(e_a, e_b) that the parser reads.

    Verifies Jacobi on G + V, j-invariance of alpha, the cyclic compatibility
    condition, and closedness of the extended form, without building G + V.
    The base must be a Lie algebra, as every parsed one is.  V is central, so
    the Jacobiator of G + V vanishes on every triple that touches V; on a
    G-triple its G-part is the base's and its V-part is minus the cyclic sum
    alpha([x, y]', z) + alpha([z, x]', y) + alpha([y, z]', x), which is
    therefore also the cyclic condition.  The extended form is w + 0, so it
    is closed exactly when w is antisymmetric and closed, and w's defects
    are its witnesses.  A base with H != G fails `extension.valid_input`,
    and then nothing else is decided.
    """
    alg, A = base.algebra, alpha.rows
    n, names = alg.dim, alg.names
    rep = Report()
    if base.H.dim != n:
        rep.add("extension.valid_input", False,
                [dict(reason="extension base must have H equal to the full algebra")])
        return rep

    failing = alg.table.cyclic_defects(A)
    rep.add("extension.jacobi", not failing, _jacobi(failing))

    # j and A hold s_j j and s_A alpha, so s_j^2 s_A alpha(j e_a, j e_b) is A evaluated
    # on the columns of j, compared with s_j^2 A[a][b] wherever either is nonzero
    sj, jA = base.j.scale, alpha.evaluate(base.j.transpose().ints)
    jinv = [dict(x=names[a], y=names[b]) for a, b in sorted(
                {*jA, *((a, b) for a, row in enumerate(A) for b in row if a < b)})
            if jA.get((a, b), {}) != {k: sj * sj * x for k, x in A[a].get(b, {}).items()}]
    rep.add("extension.alpha_j_invariant", not jinv, jinv)

    if failing:
        return rep
    # the cyclic sum is the V-part of the Jacobiator tested above
    rep.add("extension.cyclic", not failing)
    anti, closed = base.omega_defects
    rep.add("extension.omega_closed", not anti and not closed, anti + closed)
    return rep


# ---------------------------------------------------------------------------
# semisimple exactness machinery

def semisimple_exactness(k: KahlerCRData) -> tuple[Optional[tuple], Optional[tuple],
                                                   Optional[Subspace], Report]:
    """On a semisimple algebra, solve w(x, y) = a([x, y]) for the dual
    vector a, then K(X, .) = a for X, each an integer pair (s, {c: x}) from
    `solve`; return them with L = centralizer(X) and the verdicts that L is
    the w-radical and dim L = codim H.  Raises ValueError on an algebra that
    is not semisimple; `run_checks` decides that gate before calling it."""
    rep = Report()
    alg = k.algebra
    if not alg.is_semisimple():
        raise ValueError("algebra is not semisimple; exactness machinery unavailable")

    # one equation a . [e_a, e_b] = w(e_a, e_b) per pair a < b, both sides
    # times the table's scale.  A pair where both vanish gives 0 = 0, which
    # changes neither the row space nor the solution, so only pairs with a
    # nonzero bracket or a nonzero w enter.  An exact row reduction that finds
    # a solution satisfies every equation, so alpha_exact fails only when
    # there is none
    table, om = alg.table, k.omega_matrix
    pairs = sorted({(a, b) for rows in (table.rows, om.ints)
                    for a, row in enumerate(rows) for b in row if a < b})
    alpha = solve(Matrix.from_ints(alg.dim, 1, [table.rows[a].get(b, {}) for a, b in pairs]),
                  (om.scale, {i: table.scale * om.ints[a][b]
                              for i, (a, b) in enumerate(pairs) if b in om.ints[a]}))
    if alpha is None:
        rep.add("exactness.alpha_exact", False,
                detail="w(x,y) = a([x,y]) has no solution: input data invalid "
                       "for a semisimple Kahler-CR structure")
        return None, None, None, rep
    rep.add("exactness.alpha_exact", True)

    K = alg.killing_form()
    X = solve(K, alpha)
    assert X is not None  # Killing form nondegenerate
    # K is symmetric and K X = alpha, so K(X, [x, y]) = alpha([x, y]) = w(x, y)
    rep.add("exactness.killing_dual", True)

    L = alg.centralizer(X[1])
    rep.add("exactness.radical_match",
            L == k.radical and L.dim == alg.dim - k.H.dim,
            detail=f"dim L = {L.dim}, codim H = {alg.dim - k.H.dim}")
    return alpha, X, L, rep
