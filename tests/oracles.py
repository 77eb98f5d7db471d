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
"""

from fractions import Fraction
from itertools import combinations, permutations

from crlie import Bivector, LieAlgebra, Trivector, wedge3
from crlie.crkahler import CRData, KahlerCRData, LeftSymmetricProduct, induced_bracket
from crlie.linalg import (
    Subspace, basis_vector, bilinear, is_zero, lincomb, solve, vadd, vdot, vsub,
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
