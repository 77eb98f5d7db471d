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
solve one linear system per left-symmetric product, and test the
left-symmetric identities on ambient vectors through `h_coordinates`, where
the library contracts tables precomputed from the structure constants.  The
CR oracle takes four ambient brackets of H's basis vectors per pair, where
the library contracts the bracket table of H with j in H-coordinates.

The `*_over_fractions` oracles are the library's former `Fraction`
contractions, kept as they were when the library moved to integer tables
scaled by a common denominator: Jacobi as one linear combination per basis
triple, the CR conditions and identity (2) over `Fraction` tables of H,
closedness over all n^3 ordered triples and identity (2) over all m^3, and
positive definiteness as one determinant per leading minor.
"""

from fractions import Fraction
from itertools import chain, combinations, permutations

from crlie import Bivector, LieAlgebra, Trivector, wedge3
from crlie.crkahler import CRData, KahlerCRData, LeftSymmetricProduct, induced_bracket
from crlie.linalg import (
    Matrix, Subspace, basis_vector, bilinear, is_zero, lincomb, solve, vadd, vdot,
    vscale, vsub, zero_vector,
)
from crlie.report import Report, fmt_vec, witness


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
    from itertools import product

    from crlie.multivector import pair_basis
    keys = pair_basis(dim)
    for combo in product((-1, 0, 1), repeat=len(keys)):
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
    names, c = alg.names, alg.c
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


def left_symmetric_product_by_solves(k: KahlerCRData) -> LeftSymmetricProduct:
    """xy for each basis pair of H from its own Gram system
    gram^T coeff = (-w(y, [x, z]))_z."""
    alg = k.algebra
    basis = k.H.basis
    gram_t = k.omega_gram.transpose()
    table = {}
    for a, x in enumerate(basis):
        brackets = [alg.bracket(x, z) for z in basis]
        for b, y in enumerate(basis):
            coeffs = solve(gram_t, tuple(-k.omega(y, v) for v in brackets))
            table[(a, b)] = lincomb(coeffs, basis, alg.dim)
    return LeftSymmetricProduct(tuple(basis), table)


def check_left_symmetric_ambient(k: KahlerCRData, p: LeftSymmetricProduct) -> Report:
    """`check_left_symmetric` on ambient vectors: the product is extended
    bilinearly through the H-coordinates of its arguments, and every identity
    is tested on the products themselves."""
    rep = Report()
    alg = k.algebra
    names = alg.names
    basis = k.H.basis
    m = len(basis)
    rows = [[p.table[(a, b)] for b in range(m)] for a in range(m)]
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
    names, c = alg.names, alg.c
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
    P = [[tuple(p.table[(a, b)][i] for i in k.H.pivots) for b in range(m)]
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
