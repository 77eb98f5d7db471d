"""Independent oracles used to freeze expected values.

These deliberately take a different route than the library code: the
Schouten oracle expands pairwise over decomposables with wedge3, while the
implementation contracts full coefficient matrices against the structure
constants; the bracket and Jacobiator oracles visit every index of the
structure constants, zero or not, where the library skips zero terms.  The
exterior power oracles build the dense C(n,k) x C(n,k) matrix of a map on
Lambda^k from k x k minors and decide U ^ Lambda^2 G by row reduction of its
spanning set, where the library maps sparse coefficients through G -> G/U.
"""

from fractions import Fraction
from itertools import combinations, permutations

from crlie import Bivector, LieAlgebra, Trivector, wedge3
from crlie.linalg import Subspace, basis_vector


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
