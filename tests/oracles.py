"""Independent oracles used to freeze expected values.

These deliberately take a different route than the library code: the
Schouten oracle expands pairwise over decomposables with wedge3, while the
implementation contracts full coefficient matrices against the structure
constants; the bracket and Jacobiator oracles visit every index of the
structure constants, zero or not, where the library skips zero terms.
"""

from fractions import Fraction

from crlie import Bivector, LieAlgebra, Trivector, wedge3
from crlie.linalg import basis_vector


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
