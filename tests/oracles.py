"""Independent oracles used to freeze expected values.

These deliberately take a different route than the library code: the
Schouten oracle expands pairwise over decomposables with wedge3, while the
implementation contracts full coefficient matrices against the structure
constants; the bracket and Jacobiator oracles visit every index of the
structure constants, zero or not, where the library skips zero terms.  The
exterior power oracles build the dense C(n,k) x C(n,k) matrix of a map on
Lambda^k from k x k minors and decide U ^ Lambda^2 G by row reduction of its
spanning set, where the library maps sparse coefficients through G -> G/U.
The Kahler oracles evaluate closedness with three dot products per triple,
solve one `Fraction` linear system per left-symmetric product, and test the
left-symmetric identities on the products' ambient vectors through
`h_coordinates`, where the library inverts the Gram matrix of w on H once,
keeps the product as one integer table P in H-coordinates with one scale,
and contracts P with tables precomputed from the structure constants.
`product_from_coordinates` builds that table from `Fraction` H-coordinates.  The
CR oracle takes four ambient brackets of H's basis vectors per pair, where
the library contracts the bracket table of H with j in H-coordinates.

The `*_over_fractions` oracles are the library's former `Fraction`
contractions, kept as they were when the library moved to integer tables
scaled by a common denominator: Jacobi as one linear combination per basis
triple, the CR conditions and identity (2) over `Fraction` tables of H,
closedness over all n^3 ordered triples and identity (2) over all m^3, and
positive definiteness as one determinant per leading minor.

The Poisson oracles are the library's former `Fraction` forms of the
Schouten/membership path, kept as they were when it moved to integer
coefficients: `schouten_over_fractions` contracts the full `Fraction`
coefficient matrices, `push_over_fractions` and `derive_over_fractions` act
through dense `Fraction` columns, and `check_pseudo_poisson_over_fractions`,
`check_j_invariance_over_fractions`, `coboundary_pi_over_fractions` and
`check_cocycle_over_fractions` compose them, the last two with
`ad_by_brackets`, the former `LieAlgebra.ad`, which takes one bracket with
each basis vector.  `center_dense` is the
former `LieAlgebra.center`: the kernel of all n^2 rows (c[i][j][k])_j,
zero or not.  `omega_defects_over_fractions` reads the antisymmetry and
closedness witnesses off `check_kahler_over_fractions`.

`semisimple_exactness_full_system` is the library's former exactness
solve, with one equation per pair a < b, zero ones included.

`dense_tensor` gives every oracle that reads the structure constants
entry by entry the dense `Fraction` tensor, built from `algebra.table`, and
`bilinear` is the former library kernel that extends a table of basis-pair
values bilinearly.

`build_extension_lifted` is the library's former extension builder: it
builds the (n + V_dim)-dimensional algebra G + V, validates it, and runs
`check_kahler` on it, where the library contracts alpha with the base
table and reads closedness from the base.
"""

from fractions import Fraction
from itertools import chain, combinations, permutations
from itertools import product as iproduct
from typing import Mapping, Optional, Sequence

from crlie import Bivector, LieAlgebra, Trivector, wedge3
from crlie.crkahler import (
    CRData, KahlerCRData, LeftSymmetricProduct, check_kahler, induced_bracket,
)
from crlie.lie import validate_structure
from crlie.linalg import (
    Matrix, Subspace, basis_vector, is_zero, kernel, lincomb, scaled, solve, vadd,
    vdot, vector, vscale, vsub, zero_vector,
)
from crlie.poisson import PseudoPoissonData
from crlie.report import Report, fmt_vec, witness


def dense_tensor(algebra: LieAlgebra) -> list:
    """The dense `Fraction` tensor c[i][j] = [e_i, e_j], zero vectors
    included, read from `algebra.table`."""
    n, s, rows = algebra.dim, algebra.table.scale, algebra.table.rows
    return [[tuple(Fraction(rows[i].get(j, {}).get(k, 0), s) for k in range(n))
             for j in range(n)] for i in range(n)]


def bilinear(table, x, y, n: int) -> tuple:
    """sum_{i,j} x_i y_j table[i][j]: the bilinear map whose values on basis
    pairs are the n-vectors table[i][j], skipping zero terms."""
    acc = [Fraction(0)] * n
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = table[i]
        for j, yj in enumerate(y):
            if yj:
                c = xi * yj
                for k, e in enumerate(row[j]):
                    if e:
                        acc[k] += c * e
    return tuple(acc)


def schouten_decomposable(algebra: LieAlgebra, p: Bivector, q: Bivector) -> Trivector:
    """Brute-force bilinear expansion of
    [a^b, c^d] = [a,c]^b^d - [a,d]^b^c - [b,c]^a^d + [b,d]^a^c."""
    n = algebra.dim
    acc = Trivector(n)
    for (a, b), pv in p.coeffs.items():
        for (c, d), qv in q.coeffs.items():
            ea, eb = basis_vector(n, a), basis_vector(n, b)
            ec, ed = basis_vector(n, c), basis_vector(n, d)
            term = (wedge3(algebra.bracket(ea, ec), eb, ed)
                    - wedge3(algebra.bracket(ea, ed), eb, ec)
                    - wedge3(algebra.bracket(eb, ec), ea, ed)
                    + wedge3(algebra.bracket(eb, ed), ea, ec))
            acc = acc + term.scale(pv * qv)
    return acc


def bracket_expanded(c, x, y) -> tuple:
    """[x, y]_m = sum over all i, j of x_i y_j c[i][j][m]."""
    n = len(c)
    return tuple(sum((x[i] * y[j] * c[i][j][m] for i in range(n) for j in range(n)),
                     Fraction(0))
                 for m in range(n))


def jacobiator(c, i, j, k) -> tuple:
    """[e_i,[e_j,e_k]] + [e_k,[e_i,e_j]] - [e_j,[e_i,e_k]], entry by entry:
    the m-th entry is sum_l c[j][k][l] c[i][l][m] + c[i][j][l] c[k][l][m]
    - c[i][k][l] c[j][l][m]."""
    n = len(c)
    return tuple(sum((c[j][k][l] * c[i][l][m] + c[i][j][l] * c[k][l][m]
                      - c[i][k][l] * c[j][l][m] for l in range(n)), Fraction(0))
                 for m in range(n))


def killing_entry(algebra: LieAlgebra, i: int, j: int) -> Fraction:
    """trace(ad e_i o ad e_j) computed entry by entry."""
    n = algebra.dim
    adi = algebra.ad(basis_vector(n, i))
    adj = algebra.ad(basis_vector(n, j))
    total = Fraction(0)
    for k in range(n):
        composed = adi.matvec(adj.column(k))
        total += composed[k]
    return total


def all_sign_bivectors(dim: int):
    """Every bivector with coefficients in {-1, 0, 1}."""
    keys = list(combinations(range(dim), 2))
    for combo in iproduct((-1, 0, 1), repeat=len(keys)):
        yield Bivector(dim, dict(zip(keys, combo)))


def _det(m) -> Fraction:
    """Determinant by the permutation expansion."""
    k = len(m)
    total = Fraction(0)
    for perm in permutations(range(k)):
        term = Fraction((-1) ** sum(perm[a] > perm[b]
                                    for a in range(k) for b in range(a + 1, k)))
        for r, c in enumerate(perm):
            term *= m[r][c]
        total += term
    return total


def exterior_power_matrix(A, k: int, leibniz: bool = False):
    """Lexicographic k-subsets of range(n) and the matrix of A on Lambda^k in
    those coordinates: entry (I, J) is the minor det A[I, J].  For the
    Leibniz extension it is the sum over slots s of that minor with every
    column but the s-th taken from the identity instead of A."""
    keys = list(combinations(range(A.rows), k))
    slots = range(k) if leibniz else [None]

    def column_entry(i, j, t, s):
        return A[i, j] if s in (None, t) else Fraction(int(i == j))

    rows = [[sum((_det([[column_entry(i, j, t, s) for t, j in enumerate(J)] for i in I])
                  for s in slots), Fraction(0))
             for J in keys]
            for I in keys]
    return keys, rows


def apply_exterior_power(A, t, leibniz: bool = False):
    """t mapped by the dense exterior power matrix of A."""
    keys, rows = exterior_power_matrix(A, t.arity, leibniz)
    coords = [t.coeffs.get(key, Fraction(0)) for key in keys]
    image = [sum((a * x for a, x in zip(row, coords)), Fraction(0)) for row in rows]
    return type(t)(t.dim, dict(zip(keys, image)))


def wedge_span_remainder(t: Trivector, u: Subspace) -> Trivector:
    """RREF remainder of t against span{u ^ e_a ^ e_b : u in basis(U), a < b}
    in lexicographic triple coordinates; the coordinate of x ^ y ^ z on the
    triple I is det [x | y | z] restricted to the rows I."""
    n = t.dim
    keys = list(combinations(range(n), 3))
    gens = []
    for uv in u.basis:
        for a, b in combinations(range(n), 2):
            ea, eb = basis_vector(n, a), basis_vector(n, b)
            gens.append([_det([[uv[i], ea[i], eb[i]] for i in I]) for I in keys])
    span = Subspace.span(gens, len(keys))
    coords = span.reduce(tuple(t.coeffs.get(key, Fraction(0)) for key in keys))
    return Trivector(n, dict(zip(keys, coords)))


def check_cr_ambient(d: CRData) -> Report:
    """`check_cr` with four ambient brackets of H's basis vectors per pair:
    (2) [x, y] - [jx, jy] in H and (3) [jx, jy] = [x, y] + j([x, jy] + [jx, y])."""
    rep = Report()
    alg, j = d.algebra, d.j
    names = alg.names
    w2, w3 = [], []
    for a, x in enumerate(d.H.basis):
        for y in d.H.basis[a + 1:]:
            jx, jy = j.matvec(x), j.matvec(y)
            xy, lhs = alg.bracket(x, y), alg.bracket(jx, jy)
            diff = vsub(xy, lhs)
            if not d.H.contains(diff):
                w2.append(witness(x=fmt_vec(names, x), y=fmt_vec(names, y),
                                  offending=fmt_vec(names, diff)))
            rhs = vadd(xy, j.matvec(vadd(alg.bracket(x, jy), alg.bracket(jx, y))))
            if lhs != rhs:
                w3.append(witness(x=fmt_vec(names, x), y=fmt_vec(names, y),
                                  offending=fmt_vec(names, vsub(lhs, rhs))))
    rep.add("cr.condition2", not w2, w2)
    rep.add("cr.condition3", not w3, w3)
    return rep


def h_coordinates(H: Subspace, v):
    """Coefficients of v in the RREF basis of H, after checking membership."""
    coeffs = tuple(v[p] for p in H.pivots)
    assert lincomb(coeffs, H.basis, H.ambient_dim) == tuple(v), "not a member of H"
    return coeffs


def check_kahler_by_triples(k: KahlerCRData) -> Report:
    """`check_kahler` with closedness as three dot products per triple:
    w([e_a, e_b], e_t) + w([e_t, e_a], e_b) + w([e_b, e_t], e_a)."""
    rep = Report()
    alg, n = k.algebra, k.algebra.dim
    names, c = alg.names, dense_tensor(alg)
    omega = k.omega_matrix
    anti = [witness(x=names[a], y=names[b]) for a in range(n) for b in range(a, n)
            if omega[a, b] != -omega[b, a]]
    rep.add("kahler.omega_antisymmetric", not anti, anti)
    col = omega.transpose().data
    closed = []
    for a in range(n):
        for b in range(n):
            for t in range(n):
                s = (vdot(c[a][b], col[t]) + vdot(c[t][a], col[b])
                     + vdot(c[b][t], col[a]))
                if s != 0:
                    closed.append(witness(x=names[a], y=names[b], z=names[t]))
    rep.add("kahler.omega_closed", not closed, closed)
    rep.add("kahler.omega_h_nondegenerate", k.omega_gram.det() != 0)
    return rep


def product_from_coordinates(basis, coords) -> LeftSymmetricProduct:
    """The product whose h_a h_b has the `Fraction` H-coordinates coords[a][b]."""
    m = len(basis)
    s, ints = scaled(v for row in coords for v in row)
    return LeftSymmetricProduct(tuple(basis), s, [ints[a * m:(a + 1) * m] for a in range(m)])


def left_symmetric_product_by_solves(k: KahlerCRData) -> LeftSymmetricProduct:
    """xy for each basis pair of H from its own Gram system
    gram^T coeff = (-w(y, [x, z]))_z."""
    alg = k.algebra
    basis = k.H.basis
    gram_t = k.omega_gram.transpose()
    coords = []
    for x in basis:
        brackets = [alg.bracket(x, z) for z in basis]
        coords.append([solve(gram_t, tuple(-k.omega(y, v) for v in brackets)) for y in basis])
    return product_from_coordinates(basis, coords)


def check_left_symmetric_ambient(k: KahlerCRData, p: LeftSymmetricProduct) -> Report:
    """`check_left_symmetric` on ambient vectors: the product is extended
    bilinearly through the H-coordinates of its arguments, and every identity
    is tested on the products themselves."""
    rep = Report()
    alg = k.algebra
    names = alg.names
    basis = k.H.basis
    m = len(basis)
    rows = [[p.ambient(a, b) for b in range(m)] for a in range(m)]
    comm = induced_bracket(k, p)

    w1 = []
    for a in range(m):
        for b in range(m):
            br = alg.bracket(basis[a], basis[b])
            for u in basis:
                if k.omega(comm[(a, b)], u) != k.omega(br, u):
                    w1.append(witness(x=fmt_vec(names, basis[a]),
                                      y=fmt_vec(names, basis[b]),
                                      u=fmt_vec(names, u)))
    rep.add("leftsym.identity1", not w1, w1)

    def prod(x, y):
        return bilinear(rows, h_coordinates(k.H, x), h_coordinates(k.H, y), alg.dim)

    def comm_ext(x, y):
        return vsub(prod(x, y), prod(y, x))

    jac = []
    for a in range(m):
        for b in range(a + 1, m):
            for c in range(b + 1, m):
                s = vadd(vadd(comm_ext(basis[a], comm[(b, c)]),
                              comm_ext(basis[c], comm[(a, b)])),
                         comm_ext(basis[b], comm[(c, a)]))
                if not is_zero(s):
                    jac.append(witness(x=fmt_vec(names, basis[a]),
                                       y=fmt_vec(names, basis[b]),
                                       z=fmt_vec(names, basis[c])))
    rep.add("leftsym.jacobi_induced", not jac, jac)

    if not jac:
        w2 = []
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    x, y, z = basis[a], basis[b], basis[c]
                    lhs = vsub(prod(x, prod(y, z)), prod(prod(x, y), z))
                    rhs = vsub(prod(y, prod(x, z)), prod(prod(y, x), z))
                    if lhs != rhs:
                        w2.append(witness(x=fmt_vec(names, x), y=fmt_vec(names, y),
                                          z=fmt_vec(names, z)))
        rep.add("leftsym.identity2", not w2, w2)
    return rep


def validate_structure_over_fractions(c) -> list:
    """Antisymmetry violations (i, j), i <= j, over every pair; when there are
    none, Jacobi violations (i, j, k) over every triple i < j < k."""
    n = len(c)
    bad = []
    for i in range(n):
        for j in range(i, n):
            if any(a != -b for a, b in zip(c[i][j], c[j][i])):
                bad.append(("antisymmetry", (i, j)))
    if bad:
        return bad
    # [e_i, v] = sum_m v_m c[i][m], so the Jacobiator
    # [e_i,[e_j,e_k]] + [e_k,[e_i,e_j]] + [e_j,[e_k,e_i]] is one linear combination
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                s = lincomb(chain(c[j][k], c[i][j], c[k][i]), chain(c[i], c[k], c[j]), n)
                if not is_zero(s):
                    bad.append(("jacobi", (i, j, k)))
    return bad


def j_on_h(H: Subspace, j: Matrix) -> list:
    """Row a is j h_a read at the pivots of H, over `Fraction`."""
    rows = [j.data[p] for p in H.pivots]
    return [tuple(vdot(r, h) for r in rows) for h in H.basis]


def h_tables(d: CRData):
    """B[a][b] = [h_a, h_b] over `Fraction` for the RREF basis h_a of H, and
    `j_on_h`."""
    basis, n = d.H.basis, d.algebra.dim
    B = [[zero_vector(n)] * len(basis) for _ in basis]
    for a, x in enumerate(basis):
        for b in range(a + 1, len(basis)):
            B[a][b] = d.algebra.bracket(x, basis[b])
            B[b][a] = vscale(-1, B[a][b])
    return B, j_on_h(d.H, d.j)


def crdata_error_over_fractions(H: Subspace, j: Matrix):
    """The message CRData construction raises for H and j, or None: the image
    of j column by column, then j^2 = -Id on H."""
    for i in range(j.cols):
        if not H.contains(j.column(i)):
            return f"image of j not contained in H (column {i + 1})"
    J = j_on_h(H, j)
    m = H.dim
    for a, row in enumerate(J):
        if lincomb(row, J, m) != vscale(-1, basis_vector(m, a)):
            return "j^2 is not -Id on H"
    return None


def check_cr_over_fractions(d: CRData) -> Report:
    """`check_cr` contracting the `Fraction` tables of `h_tables`:
    K[a][b] = [j h_a, h_b] = sum_e jH[a][e] B[e][b]."""
    rep = Report()
    (B, J), basis, names = h_tables(d), d.H.basis, d.algebra.names
    m, n = len(basis), d.algebra.dim
    K = [[lincomb(J[a], (row[b] for row in B), n) for b in range(m)] for a in range(m)]
    w2, w3 = [], []
    for a, x in enumerate(basis):
        for b in range(a + 1, m):
            xy, lhs = B[a][b], lincomb(J[b], K[a], n)
            diff = vsub(xy, lhs)
            if not d.H.contains(diff):
                w2.append(witness(x=fmt_vec(names, x), y=fmt_vec(names, basis[b]),
                                  offending=fmt_vec(names, diff)))
            rhs = vadd(xy, d.j.matvec(vsub(K[a][b], K[b][a])))
            if lhs != rhs:
                w3.append(witness(x=fmt_vec(names, x), y=fmt_vec(names, basis[b]),
                                  offending=fmt_vec(names, vsub(lhs, rhs))))
    rep.add("cr.condition2", not w2, w2)
    rep.add("cr.condition3", not w3, w3)
    return rep


def check_kahler_over_fractions(k: KahlerCRData) -> Report:
    """`check_kahler` with the dense `Fraction` table
    W[a][b][t] = w([e_a, e_b], e_t) and closedness on all n^3 ordered triples."""
    rep = Report()
    alg, n = k.algebra, k.algebra.dim
    names, c = alg.names, dense_tensor(alg)
    omega = k.omega_matrix
    anti = [witness(x=names[a], y=names[b]) for a in range(n) for b in range(a, n)
            if omega[a, b] != -omega[b, a]]
    rep.add("kahler.omega_antisymmetric", not anti, anti)
    col = omega.transpose().data
    W = [[[vdot(v, u) for u in col] for v in row] for row in c]
    closed = [witness(x=names[a], y=names[b], z=names[t])
              for a in range(n) for b in range(n) for t in range(n)
              if W[a][b][t] + W[t][a][b] + W[b][t][a] != 0]
    rep.add("kahler.omega_closed", not closed, closed)
    rep.add("kahler.omega_h_nondegenerate", k.omega_gram.det() != 0)
    return rep


def check_left_symmetric_over_fractions(k: KahlerCRData, p: LeftSymmetricProduct) -> Report:
    """`check_left_symmetric` over the `Fraction` product table read at the
    pivots of H, with identity (2) on all m^3 ordered triples."""
    rep = Report()
    basis, (B, _) = k.H.basis, h_tables(k.cr)
    m = len(basis)
    fmt = [fmt_vec(k.algebra.names, h) for h in basis]
    comm = induced_bracket(k, p)
    P = [[tuple(p.ambient(a, b)[i] for i in k.H.pivots) for b in range(m)]
         for a in range(m)]
    C = [[vsub(P[a][b], P[b][a]) for b in range(m)] for a in range(m)]
    images = [k.omega_matrix.matvec(u) for u in basis]
    w1 = []
    for a in range(m):
        for b in range(m):
            d = vsub(comm[(a, b)], B[a][b])
            w1.extend(witness(x=fmt[a], y=fmt[b], u=fmt[t])
                      for t, image in enumerate(images) if vdot(d, image) != 0)
    rep.add("leftsym.identity1", not w1, w1)
    jac = [witness(x=fmt[a], y=fmt[b], z=fmt[c])
           for _, (a, b, c) in validate_structure_over_fractions(C)]
    rep.add("leftsym.jacobi_induced", not jac, jac)
    if not jac:
        cols = [[P[d][c] for d in range(m)] for c in range(m)]
        w2 = [witness(x=fmt[a], y=fmt[b], z=fmt[c])
              for a in range(m) for b in range(m) for c in range(m)
              if lincomb(P[b][c], P[a], m)
              != vadd(lincomb(P[a][c], P[b], m), lincomb(C[a][b], cols[c], m))]
        rep.add("leftsym.identity2", not w2, w2)
    return rep


def first_nonpositive_minor_over_fractions(M: Matrix):
    """(k, d_k) for the first leading principal minor d_k <= 0, one `det`
    per minor, or None."""
    for k in range(1, M.rows + 1):
        minor = Matrix([r[:k] for r in M.data[:k]]).det()
        if minor <= 0:
            return k, minor
    return None


def build_extension_lifted(base: KahlerCRData, v_dim: int,
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
    base_c = dense_tensor(alg)
    c = [[base_c[a][b] + alpha_rows[a][b] if a < n and b < n else zero_vector(total)
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
           if not is_zero(lincomb(chain(base_c[a][b], base_c[d_][a], base_c[b][d_]),
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


def ad_by_brackets(algebra: LieAlgebra, x) -> Matrix:
    """Matrix of y -> [x, y], column j being the bracket of x with e_j."""
    if len(x) != algebra.dim:
        raise ValueError("dimension mismatch in ad")
    cols = [algebra.bracket(x, basis_vector(algebra.dim, j)) for j in range(algebra.dim)]
    return Matrix.from_columns(cols)


def center_dense(algebra: LieAlgebra) -> Subspace:
    """Common kernel of the ad e_i; row k of ad e_i is (c[i][j][k])_j."""
    return kernel(Matrix([col for row in dense_tensor(algebra) for col in zip(*row)]))


def _nonzero(v) -> list:
    return [(i, c) for i, c in enumerate(v) if c != 0]


def _sparse_columns(A: Matrix, t) -> list:
    if A.rows != A.cols or A.rows != t.dim:
        raise ValueError("square matrix of the multivector's dimension required")
    return [_nonzero(col) for col in zip(*A.data)]


def push_over_fractions(A: Matrix, t):
    """Multiplicative extension: e_a^e_b(^e_c) -> Ae_a ^ Ae_b (^ Ae_c)."""
    cols = _sparse_columns(A, t)
    acc: dict = {}
    for key, v in t.coeffs.items():
        for entries in iproduct(*(cols[a] for a in key)):
            w = v
            for _, x in entries:
                w *= x
            raw = tuple(i for i, _ in entries)
            acc[raw] = acc.get(raw, 0) + w
    return type(t)(t.dim, acc)


def derive_over_fractions(D: Matrix, t):
    """Leibniz extension: e_a^e_b(^e_c) -> De_a^e_b(^e_c) + e_a^De_b(^e_c)
    (+ e_a^e_b^De_c)."""
    cols = _sparse_columns(D, t)
    acc: dict = {}
    for key, v in t.coeffs.items():
        for s, a in enumerate(key):
            for i, x in cols[a]:
                raw = key[:s] + (i,) + key[s + 1:]
                acc[raw] = acc.get(raw, 0) + v * x
    return type(t)(t.dim, acc)


def _full_matrix(p: Bivector) -> Matrix:
    """Antisymmetric n x n coefficient matrix."""
    m = [[Fraction(0)] * p.dim for _ in range(p.dim)]
    for (i, j), v in p.coeffs.items():
        m[i][j] = v
        m[j][i] = -v
    return Matrix(m)


def schouten_over_fractions(algebra: LieAlgebra, p: Bivector, q: Bivector) -> Trivector:
    """[P,Q] = sum_{a,b,c,d} P^{ab} Q^{cd} [e_a, e_c] ^ e_b ^ e_d over the full
    antisymmetric `Fraction` coefficient matrices."""
    if p.dim != algebra.dim or q.dim != algebra.dim:
        raise ValueError("dimension mismatch in schouten")
    n, tensor = algebra.dim, dense_tensor(algebra)
    pm = _full_matrix(p)
    qm = _full_matrix(q)
    acc: dict = {}
    for a in range(n):
        for b in range(n):
            pab = pm[a, b]
            if pab == 0:
                continue
            for c in range(n):
                for d in range(n):
                    qcd = qm[c, d]
                    if qcd == 0:
                        continue
                    w = pab * qcd
                    for k, ck in _nonzero(tensor[a][c]):
                        acc[(k, b, d)] = acc.get((k, b, d), 0) + w * ck
    return Trivector(n, acc)


def _residual_over_fractions(t: Trivector, u: Subspace) -> Trivector:
    """t under the `Fraction` quotient map R_U, column i the remainder of e_i."""
    n = t.dim
    return push_over_fractions(
        Matrix.from_columns([u.reduce(basis_vector(n, i)) for i in range(n)]), t)


def check_pseudo_poisson_over_fractions(d: PseudoPoissonData) -> Report:
    rep = Report()
    t = schouten_over_fractions(d.algebra, d.Lambda, d.Lambda)
    res = _residual_over_fractions(t, d.U)
    ok = res.is_zero()
    w = [] if ok else [witness(residual=res.format(d.algebra.names))]
    rep.add("poisson.schouten_membership", ok, w,
            detail=f"[L,L] = {t.format(d.algebra.names)}")
    return rep


def check_j_invariance_over_fractions(d: PseudoPoissonData) -> Report:
    rep = Report()
    image = push_over_fractions(d.j, d.Lambda)
    ok = image == d.Lambda
    w = [] if ok else [witness(image=image.format(d.algebra.names))]
    rep.add("poisson.j_invariance", ok, w)
    return rep


def coboundary_pi_over_fractions(algebra: LieAlgebra, r: Bivector, U: Subspace):
    rep = Report()
    rr = schouten_over_fractions(algebra, r, r)
    bad = []
    for i in range(algebra.dim):
        res = _residual_over_fractions(
            derive_over_fractions(ad_by_brackets(algebra, basis_vector(algebra.dim, i)), rr), U)
        if not res.is_zero():
            bad.append(witness(generator=algebra.names[i],
                               residual=res.format(algebra.names)))
    rep.add("poisson.coboundary_invariance", not bad, bad,
            detail=f"[r,r] = {rr.format(algebra.names)}")
    return rep


def check_cocycle_over_fractions(algebra: LieAlgebra, delta) -> Report:
    """`check_cocycle` with `Bivector` sums, `derive_over_fractions` and
    `ad_by_brackets`: delta([x, y]) = ad2(x) delta(y) - ad2(y) delta(x)."""
    rep = Report()
    n, tensor = algebra.dim, dense_tensor(algebra)
    ad = [ad_by_brackets(algebra, basis_vector(n, i)) for i in range(n)]
    bad = []
    for a in range(n):
        for b in range(a + 1, n):
            lhs = sum((delta[k].scale(ck) for k, ck in enumerate(tensor[a][b]) if ck),
                      Bivector(n))
            rhs = derive_over_fractions(ad[a], delta[b]) - derive_over_fractions(ad[b], delta[a])
            if lhs != rhs:
                bad.append(witness(x=algebra.names[a], y=algebra.names[b],
                                   difference=(lhs - rhs).format(algebra.names)))
    rep.add("poisson.cocycle", not bad, bad)
    return rep


def omega_defects_over_fractions(k: KahlerCRData) -> tuple:
    """`KahlerCRData.omega_defects` as `check_kahler_over_fractions` reports them."""
    rep = check_kahler_over_fractions(k)
    return tuple([dict(w) for w in rep.result(check_id).witnesses]
                 for check_id in ("kahler.omega_antisymmetric", "kahler.omega_closed"))


def semisimple_exactness_full_system(k: KahlerCRData):
    """`semisimple_exactness` with one equation a . [e_a, e_b] = w(e_a, e_b)
    for every pair a < b, the 0 = 0 rows of the pairs where both sides
    vanish included."""
    rep = Report()
    alg = k.algebra
    if not alg.is_semisimple():
        rep.add("exactness.semisimple", False,
                detail="algebra is not semisimple; exactness machinery unavailable")
        return None, None, None, rep

    c = dense_tensor(alg)
    pairs = list(combinations(range(alg.dim), 2))
    alpha = solve(Matrix([c[a][b] for a, b in pairs]),
                  tuple(k.omega_matrix[a, b] for a, b in pairs))
    if alpha is None:
        rep.add("exactness.alpha_exact", False,
                detail="w(x,y) = a([x,y]) has no solution: input data invalid "
                       "for a semisimple Kahler-CR structure")
        return None, None, None, rep
    rep.add("exactness.alpha_exact", True)

    K = alg.killing_form()
    X = solve(K, alpha)
    assert X is not None  # Killing form nondegenerate
    rep.add("exactness.killing_dual", True)

    L = alg.centralizer(X)
    rep.add("exactness.radical_match",
            L == k.radical and L.dim == alg.dim - k.H.dim,
            detail=f"dim L = {L.dim}, codim H = {alg.dim - k.H.dim}")
    return alpha, X, L, rep
