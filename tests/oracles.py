"""Definition-level oracles, one per check id that `crlie` emits.

The rule: an oracle evaluates the paper's identity straight from its
definition, on ambient `Fraction` vectors, and returns the report the
library must give, witnesses in order.  It reads its inputs only as data --
the structure constants through `dense_tensor`, a subspace through its
basis vectors, a matrix through its entries, a multivector through its
coefficients -- and calls none of the library's integer kernels
(`contraction`, `remainder`, `cyclic_defects`, `_packed_cyclic_defects`,
`evaluate`, `rref`, `push_ints`, `derive_ints`, `schouten_ints`,
`_wedge_front`, `quotient_columns`, `projected_brackets`, `pack`, `unpack`,
`IntTable`).
Every elimination is the `Fraction` one below.  Where the library derives a
fact from the shape of an identity (alternation, a zero table entry, a
cached table), the oracle evaluates the identity on every basis pair or
triple instead.  `ORACLES` at the end maps each check id to its oracle;
`test_catalog` asserts the map and the rule.

- `check_cr_ambient`: CR conditions (2) and (3) on four ambient brackets of
  the basis vectors of H per pair.
- `check_kahler_by_triples`: w = <., j .> from the metric and j, closedness
  as three dot products per ordered triple, and det of w on H.
- `left_symmetric_product_by_solves` and `check_left_symmetric_ambient`:
  one Gram system per product h_a h_b, and the left-symmetric identities on
  the ambient products, extended bilinearly through H-coordinates.  Both
  hold the product as its dense `Fraction` table in H-coordinates, so the
  tests compare the library's product through `dense_table`.
- `omega_radical_ambient` and `center_U_ambient`: L as the kernel of w, Z(G)
  as the common kernel of the ad e_i, U as (Z cap H) + j(Z cap H), and the
  brackets and memberships that the propositions name.
- `ideal_complement_complex_ambient`: whether the input is an ideal
  supplementary to H, the bracket of H projected along the ideal by one
  solve per pair, which the tests compare with `projected_brackets`, its
  Jacobiator entry by entry, and j-linearity in H-coordinates.
- `build_extension_lifted`: whether H = G, the algebra G + V built in full,
  its Jacobiator entry by entry, and closedness of the extended form.
- `semisimple_exactness_full_system`: Cartan's criterion on the Killing
  form of traces, one exactness equation per pair a < b, and the
  centralizer of X as a kernel.
- `check_pseudo_poisson_ambient`, `check_j_invariance_ambient` and
  `coboundary_pi_ambient`: the Schouten bracket expanded over
  decomposables, maps on Lambda^k by minors, and membership in
  U ^ Lambda^2 G as the remainder against the span of its generators.

The other oracles are definitions of library pieces that the checks build
on: the `Fraction` `rref`/`solve`/`kernel`/`det` and subspace operations,
the bracket and Jacobiator expanded over every index, the Killing form as
traces, maps on Lambda^k by minors, the parse conversion and the number
formatters over `Fraction`.  `supplementary_by_intersection` keeps the
library's former test for H + U = G direct.  `int_table` goes the other
way from `dense_tensor`, for tests that build an algebra or a product from
a dense tensor, and `direct_sum` builds a block algebra through it;
`from_brackets` builds an algebra from its brackets on pairs.  No oracle
calls any of the three.
"""

from fractions import Fraction
from itertools import combinations
from itertools import product as iproduct
from math import lcm, prod
from typing import Mapping

from crlie import Bivector, LieAlgebra, Trivector, parse_document
from crlie.crkahler import CRData, KahlerCRData
from crlie.lie import IntTable
from crlie.linalg import Matrix, Subspace, rat, read_row
from crlie.report import Report, fmt_vec


# -- `Fraction` vectors and matrices ---------------------------------------------

Vector = tuple[Fraction, ...]


def rows_of(A: Matrix) -> list:
    """The rows of A as `Fraction` tuples, read from its integer rows and scale."""
    return [tuple(Fraction(r.get(k, 0), A.scale) for k in range(A.cols)) for r in A.ints]


def basis_of(S: Subspace) -> tuple:
    """The RREF basis of S as `Fraction` tuples, read from its integer rows and scale."""
    return tuple(tuple(Fraction(v.get(k, 0), S.scale) for k in range(S.ambient_dim))
                 for v in S.ints)


def transpose(rows) -> list:
    return [tuple(col) for col in zip(*rows)]


def apply(rows, x) -> Vector:
    """The matrix with the given rows applied to x."""
    return tuple(vdot(r, x) for r in rows)


def matvec(A: Matrix, x) -> Vector:
    return apply(rows_of(A), x)


def matmul(A, B) -> list:
    """The product of two matrices given by their rows."""
    cols = transpose(B)
    return [tuple(vdot(r, col) for col in cols) for r in A]


def column(A: Matrix, j: int) -> Vector:
    return tuple(Fraction(r.get(j, 0), A.scale) for r in A.ints)


def from_columns(cols) -> Matrix:
    return Matrix(list(zip(*cols)))


def vdot(x, y) -> Fraction:
    """sum_i x_i y_i, skipping terms with a zero factor."""
    assert len(x) == len(y)
    return sum((a * b for a, b in zip(x, y) if a and b), Fraction(0))


def identity(n: int, c=1) -> Matrix:
    """c times the n x n identity."""
    return Matrix([[c * (i == k) for k in range(n)] for i in range(n)])


def zeros(rows: int, cols: int) -> Matrix:
    return Matrix([[0] * cols for _ in range(rows)])


def block_diag(A: Matrix, B: Matrix) -> Matrix:
    """The block matrix with A and B on the diagonal, from their entries."""
    return Matrix([*(r + (0,) * B.cols for r in rows_of(A)),
                   *((0,) * A.cols + r for r in rows_of(B))])


def mat_add(A: Matrix, B: Matrix) -> Matrix:
    assert (A.rows, A.cols) == (B.rows, B.cols)
    return Matrix([vadd(a, b) for a, b in zip(rows_of(A), rows_of(B))])


def mat_scale(c, A: Matrix) -> Matrix:
    return Matrix([vscale(c, r) for r in rows_of(A)])


def vadd(x, y) -> tuple:
    assert len(x) == len(y)
    return tuple(a + b for a, b in zip(x, y))


def vsub(x, y) -> tuple:
    assert len(x) == len(y)
    return tuple(a - b for a, b in zip(x, y))


def vector(entries) -> Vector:
    return tuple(rat(e) for e in entries)


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def basis_vector(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if k == i else 0) for k in range(n))


def vscale(c, x) -> Vector:
    c = rat(c)
    return tuple(c * a for a in x)


def is_zero(x) -> bool:
    return all(a == 0 for a in x)


def lincomb(coeffs, vectors, n: int) -> tuple:
    """sum_i coeffs[i] * vectors[i] in dimension n, skipping zero terms."""
    acc = [Fraction(0)] * n
    for c, v in zip(coeffs, vectors):
        if c:
            for k, e in enumerate(v):
                if e:
                    acc[k] += c * e
    return tuple(acc)


def sparse(v) -> dict:
    """The nonzero entries {k: x} of a dense vector."""
    return {k: x for k, x in enumerate(v) if x}


def densify(v, n: int) -> tuple:
    """The dense n-vector of a sparse one."""
    return tuple(v.get(k, 0) for k in range(n))


def unscaled(v, s: int) -> Vector:
    return tuple(Fraction(x, s) for x in v)


def from_pair(x, n: int):
    """The `Fraction` n-vector x / s of a pair x = (s, {k: x_k}), the form in
    which `read_row` reads a vector and `solve` and `semisimple_exactness`
    return one; None, which they return for no solution, stays None."""
    return None if x is None else tuple(Fraction(x[1].get(k, 0), x[0]) for k in range(n))


def _nonzero(v) -> list:
    return [(i, c) for i, c in enumerate(v) if c != 0]


# -- coefficient dicts of multivectors --------------------------------------------

ARITY = {Bivector: 2, Trivector: 3}


def alternating(cls, dim: int, coeffs=()):
    """The `cls` multivector with rational coefficients on index tuples in
    any order: each key is sorted and its coefficient, signed by the parity
    of the sort, merged onto it; a key that repeats an index drops out."""
    acc: dict = {}
    for key, v in dict(coeffs).items():
        assert len(key) == ARITY[cls] and all(0 <= i < dim for i in key), (key, dim)
        if len(set(key)) == len(key):
            sign, key = (-1) ** sum(a > b for a, b in combinations(key, 2)), tuple(sorted(key))
            acc[key] = acc.get(key, 0) + sign * Fraction(v)
    s = lcm(*(q.denominator for q in acc.values()))
    return cls.from_ints(dim, s, {k: q.numerator * (s // q.denominator) for k, q in acc.items()})


def coefficients(t) -> dict:
    """The coefficients of a multivector as {sorted key: Fraction}."""
    return {key: Fraction(x, t.scale) for key, x in t.ints.items()}


def combine(*terms) -> dict:
    """sum c * coeffs over the pairs (c, coeffs), for coefficient dicts or
    multivectors, as a coefficient dict on the keys as given; the
    multivector comes from `alternating`, which signs and merges raw keys."""
    acc: dict = {}
    for c, coeffs in terms:
        for key, v in (coeffs if isinstance(coeffs, dict) else coefficients(coeffs)).items():
            acc[key] = acc.get(key, 0) + c * v
    return acc


def wedge_coeffs(*vectors) -> dict:
    """x ^ y (^ z) as coefficients on raw index tuples: the product of the
    entries for every choice of one nonzero entry per vector."""
    return {tuple(i for i, _ in entries): prod(x for _, x in entries)
            for entries in iproduct(*(_nonzero(v) for v in vectors))}


# -- the `Fraction` linear algebra --------------------------------------------------

def rref_over_fractions(rows):
    """Reduced row-echelon form; returns (nonzero rows, pivot columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    n_cols = len(m[0])
    pivots = []
    piv_r = 0
    for c in range(n_cols):
        piv = next((r for r in range(piv_r, len(m)) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[piv_r], m[piv] = m[piv], m[piv_r]
        inv = 1 / m[piv_r][c]
        m[piv_r] = [inv * e for e in m[piv_r]]
        for r in range(len(m)):
            if r != piv_r and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[piv_r])]
        pivots.append(c)
        piv_r += 1
        if piv_r == len(m):
            break
    return [tuple(r) for r in m[:piv_r]], pivots


def solve_over_fractions(rows, b, cols: int):
    """Solve A x = b exactly for the matrix A with the given rows and cols
    columns.

    Returns None when inconsistent; with a positive-dimensional solution
    space, free variables are set to zero (canonical representative).
    """
    if len(rows) != len(b):
        raise ValueError(f"dimension mismatch: {len(rows)} rows vs rhs of {len(b)}")
    reduced, pivots = rref_over_fractions([tuple(r) + (bi,) for r, bi in zip(rows, b)])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for row, p in zip(reduced, pivots):
        x[p] = row[-1]
    return tuple(x)


def kernel_over_fractions(rows, cols: int):
    """Null space of the matrix with the given rows, as its `Fraction` RREF
    (rows, pivots)."""
    reduced, pivots = rref_over_fractions(rows)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return rref_over_fractions(basis)


def det_over_fractions(rows) -> Fraction:
    """Determinant of the square matrix with the given rows."""
    m = [list(r) for r in rows]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("determinant of non-square matrix")
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c] != 0:
                f = m[r][c] * inv
                for k in range(c, n):
                    m[r][k] -= f * m[c][k]
    return det


def reduce_over_fractions(span, v):
    """Remainder of v after elimination against span = (RREF rows, pivots)."""
    r = list(v)
    for row, p in zip(*span):
        if r[p] != 0:
            f = r[p]
            r = [a - f * b for a, b in zip(r, row)]
    return tuple(r)


def in_span(span, v) -> bool:
    return is_zero(reduce_over_fractions(span, v))


def intersect_over_fractions(s_rows, t_rows, n: int):
    """The RREF (rows, pivots) of span(s_rows) cap span(t_rows) in dimension n."""
    if not s_rows or not t_rows:
        return [], []
    # x = sum a_i s_i = sum b_j t_j  <=>  (a, b) in ker [S^T | -T^T]
    cols = [tuple(v) for v in s_rows] + [vscale(-1, v) for v in t_rows]
    K, _ = kernel_over_fractions(transpose(cols), len(cols))
    return rref_over_fractions([lincomb(coeffs[:len(s_rows)], s_rows, n) for coeffs in K])


def supplementary_by_intersection(H: Subspace, U: Subspace) -> bool:
    """H + U = G direct, as the library tested it before it took one rank:
    the dimensions add up to n and the intersection, the common kernel of
    the `_perp` functionals, is zero."""
    return H.dim + U.dim == H.ambient_dim and H.intersect(U).dim == 0


def h_coordinates(basis, v):
    """Coefficients of v in an echelon basis, read at its pivots, after
    checking that they give v back."""
    coeffs = tuple(v[next(i for i, e in enumerate(h) if e)] for h in basis)
    assert lincomb(coeffs, basis, len(v)) == tuple(v), "not a member of the span"
    return coeffs


def first_nonpositive_minor_over_fractions(M: Matrix):
    """(k, d_k) for the first leading principal minor d_k <= 0, one `det`
    per minor, or None."""
    rows = rows_of(M)
    for k in range(1, M.rows + 1):
        minor = det_over_fractions([r[:k] for r in rows[:k]])
        if minor <= 0:
            return k, minor
    return None


# -- structure constants -----------------------------------------------------------

def dense_tensor(algebra: LieAlgebra) -> list:
    """The dense `Fraction` tensor c[i][j] = [e_i, e_j], zero vectors
    included, read from `algebra.table`."""
    return dense_table(algebra.table, algebra.dim)


def dense_table(table, width: int) -> list:
    """The dense `Fraction` table c[i][j] = rows[i][j] / scale of width-vectors,
    zero vectors included, read from the scale and rows of a table in the
    form of `IntTable`."""
    n, s, rows = table.dim, table.scale, table.rows
    return [[tuple(Fraction(rows[i].get(j, {}).get(k, 0), s) for k in range(width))
             for j in range(n)] for i in range(n)]


def int_table(c) -> IntTable:
    """The table of a dense tensor c, antisymmetric or not: `dense_tensor` inverted."""
    s = lcm(*(Fraction(e).denominator for row in c for v in row for e in v))
    return IntTable(len(c), s, [{j: {k: int(e * s) for k, e in enumerate(v) if e}
                                 for j, v in enumerate(row) if any(v)} for row in c])


def from_brackets(dim: int, brackets: Mapping, names=None) -> LieAlgebra:
    """The Lie algebra with [e_i, e_j] = brackets[(i, j)], a list of rationals,
    for 0-based pairs, each mirrored, and zero at every pair not listed."""
    return LieAlgebra(IntTable.antisymmetric(dim, {ij: read_row(v) for ij, v in brackets.items()}),
                      names)


def direct_sum(g1: LieAlgebra, g2: LieAlgebra) -> LieAlgebra:
    """g1 + g2 on the basis of g1 followed by that of g2, from the block tensor
    of the two dense tensors; a name of g2 that g1 uses gets a prime."""
    c1, c2, n, m = dense_tensor(g1), dense_tensor(g2), g1.dim, g2.dim
    zero = (Fraction(0),) * (n + m)
    c = [[c1[i][j] + zero[:m] if i < n and j < n else
          zero[:n] + c2[i - n][j - n] if i >= n and j >= n else zero
          for j in range(n + m)] for i in range(n + m)]
    names = [*g1.names, *(x + "'" if x in g1.names else x for x in g2.names)]
    return LieAlgebra(int_table(c), names, validate=False)


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


def bracket(c, x, y) -> tuple:
    """[x, y] on the dense tensor c, extended bilinearly."""
    return bilinear(c, x, y, len(c))


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
    acc = [Fraction(0)] * len(c)
    for sign, inner, outer in ((1, c[j][k], c[i]), (1, c[i][j], c[k]), (-1, c[i][k], c[j])):
        for l, x in enumerate(inner):
            if x:
                for m, y in enumerate(outer[l]):
                    if y:
                        acc[m] += sign * x * y
    return tuple(acc)


def evaluate_by_sums(c, S, T=None) -> dict:
    """{(a, b): sum_{i,j} S[a]_i T[b]_j c[i][j]} over its nonzero values, for a
    dense table c of vectors, antisymmetric or not, and lists S and T of dense
    vectors, summed over every i and j; with T omitted, over the pairs a < b of S."""
    n = len(c)
    pairs = ([(a, b) for a in range(len(S)) for b in range(a + 1, len(S))] if T is None
             else [(a, b) for a in range(len(S)) for b in range(len(T))])
    T = S if T is None else T
    values = {(a, b): tuple(sum((S[a][i] * T[b][j] * c[i][j][m] for i in range(n)
                                 for j in range(n)), Fraction(0)) for m in range(len(c[0][0])))
              for a, b in pairs}
    return {ab: v for ab, v in values.items() if not is_zero(v)}


def cyclic_defects_by_sums(c, outer, width: int) -> list:
    """The triples i < j < k on which sum_l c[b][d][l] outer[a][l], summed over
    the cyclic orderings (a, b, d) of (i, j, k), is nonzero, for a dense tensor
    c and a dense table outer of width-vectors, summed over every l."""
    n = len(c)

    def term(a, b, d):
        return [sum((c[b][d][l] * outer[a][l][m] for l in range(n)), Fraction(0))
                for m in range(width)]

    return [(i, j, k) for i, j, k in combinations(range(n), 3)
            if any(map(sum, zip(term(i, j, k), term(k, i, j), term(j, k, i))))]


def structure_violations(c) -> list:
    """Antisymmetry violations (i, j), i <= j, over every pair; when there are
    none, the triples i < j < k with a nonzero `jacobiator`."""
    n = len(c)
    bad = [("antisymmetry", (i, j)) for i in range(n) for j in range(i, n)
           if any(a != -b for a, b in zip(c[i][j], c[j][i]))]
    if bad:
        return bad
    return [("jacobi", t) for t in combinations(range(n), 3) if not is_zero(jacobiator(c, *t))]


def ad_rows(c, x) -> list:
    """The rows of the matrix of y -> [x, y], column j being [x, e_j]."""
    n = len(c)
    return transpose([bracket(c, x, basis_vector(n, j)) for j in range(n)])


def killing_entry(c, i: int, j: int) -> Fraction:
    """trace(ad e_i o ad e_j) on the dense tensor c, entry by entry: column l
    of ad e_i is c[i][l], so the trace is sum_{k,l} c[i][l][k] c[j][k][l]."""
    n = len(c)
    return sum((c[i][l][k] * c[j][k][l] for k in range(n) for l in range(n)), Fraction(0))


def center_kernel(c):
    """Z(G) as the `Fraction` RREF (rows, pivots) of the common kernel of the
    ad e_i: row k of ad e_i is (c[i][j][k])_j."""
    return kernel_over_fractions([col for row in c for col in zip(*row)], len(c))


# -- maps on Lambda^k and membership in U ^ Lambda^2 G ------------------------------

def all_sign_bivectors(dim: int):
    """Every bivector with coefficients in {-1, 0, 1}."""
    keys = list(combinations(range(dim), 2))
    for combo in iproduct((-1, 0, 1), repeat=len(keys)):
        yield alternating(Bivector, dim, dict(zip(keys, combo)))


def minors(cols) -> dict:
    """{I: det M[I]} over the row sets I on which the k x k minor of the
    matrix M with the k given columns is nonzero, by the permutation
    expansion: every choice of one nonzero entry per column, in k distinct
    rows, adds the product of the entries, signed by the parity of the
    rows' order, to the minor on the set of those rows."""
    acc: dict = {}
    for entries in iproduct(*(_nonzero(col) for col in cols)):
        rows = [i for i, _ in entries]
        if len(set(rows)) == len(rows):
            I = tuple(sorted(rows))
            sign = (-1) ** sum(a > b for a, b in combinations(rows, 2))
            acc[I] = acc.get(I, 0) + sign * prod(x for _, x in entries)
    return {I: e for I, e in acc.items() if e}


def exterior_power_matrix(A, k: int, leibniz: bool = False) -> dict:
    """The matrix of A (given by its rows) on Lambda^k in k-subset
    coordinates, as {J: {I: entry}} over its nonzero entries: entry (I, J) is
    the minor det A[I, J].  For the Leibniz extension it is the sum over
    slots s of that minor with every column but the s-th taken from the
    identity instead of A."""
    n = len(A)
    columns, units = transpose(A), [basis_vector(n, j) for j in range(n)]
    matrix = {}
    for J in combinations(range(n), k):
        column: dict = {}
        for s in range(k) if leibniz else [None]:
            for I, e in minors([columns[j] if s in (None, t) else units[j]
                                for t, j in enumerate(J)]).items():
                column[I] = column.get(I, 0) + e
        matrix[J] = {I: e for I, e in column.items() if e}
    return matrix


def map_multivector(matrix, t):
    """t mapped by a matrix from `exterior_power_matrix`."""
    acc: dict = {}
    for J, x in coefficients(t).items():
        for I, e in matrix[J].items():
            acc[I] = acc.get(I, 0) + x * e
    return alternating(type(t), t.dim, acc)


def apply_exterior_power(A, t, leibniz: bool = False):
    """t mapped by the exterior power matrix of A (given by its rows)."""
    return map_multivector(exterior_power_matrix(A, ARITY[type(t)], leibniz), t)


def wedge_span(u_rows, n: int):
    """The RREF (rows, pivots) of span{u ^ e_a ^ e_b : u in u_rows, a < b} in
    lexicographic triple coordinates; the coordinate of x ^ y ^ z on the
    triple I is det [x | y | z] restricted to the rows I."""
    keys = list(combinations(range(n), 3))
    gens = []
    for uv in u_rows:
        for a, b in combinations(range(n), 2):
            coords = minors([uv, basis_vector(n, a), basis_vector(n, b)])
            gens.append([coords.get(I, Fraction(0)) for I in keys])
    return rref_over_fractions(gens)


def span_remainder(t: Trivector, span) -> Trivector:
    """The RREF remainder of t against a `wedge_span`."""
    keys = list(combinations(range(t.dim), 3))
    coeffs = coefficients(t)
    coords = reduce_over_fractions(span, tuple(coeffs.get(key, Fraction(0)) for key in keys))
    return alternating(Trivector, t.dim, dict(zip(keys, coords)))


def wedge_span_remainder(t: Trivector, u: Subspace) -> Trivector:
    """RREF remainder of t against span{u ^ e_a ^ e_b : u in basis(U), a < b}."""
    return span_remainder(t, wedge_span(basis_of(u), t.dim))


def schouten_decomposable(algebra: LieAlgebra, p: Bivector, q: Bivector) -> Trivector:
    """Brute-force bilinear expansion of
    [a^b, c^d] = [a,c]^b^d - [a,d]^b^c - [b,c]^a^d + [b,d]^a^c over the
    coefficients of p and q, each [e_i, e_j] ^ e_v ^ e_z accumulated on raw
    index triples, which `alternating` signs and merges."""
    brackets = [[_nonzero(v) for v in row] for row in dense_tensor(algebra)]
    acc: dict = {}
    for (a, b), pv in coefficients(p).items():
        for (c, d), qv in coefficients(q).items():
            w = pv * qv
            for sign, i, j, v, z in ((w, a, c, b, d), (-w, a, d, b, c),
                                     (-w, b, c, a, d), (w, b, d, a, c)):
                for k, x in brackets[i][j]:
                    acc[(k, v, z)] = acc.get((k, v, z), 0) + sign * x
    return alternating(Trivector, algebra.dim, acc)


# -- the CR and Kahler layers ---------------------------------------------------------

def omega_rows(k: KahlerCRData) -> list:
    """The matrix of w(x, y) = <x, j y>: the metric times j."""
    return matmul(rows_of(k.metric), rows_of(k.j))


def omega(k: KahlerCRData, x, y) -> Fraction:
    """w(x, y) = <x, j y>."""
    return vdot(x, matvec(k.metric, matvec(k.j, y)))


def check_cr_ambient(d: CRData) -> Report:
    """`check_cr` with four ambient brackets of H's basis vectors per pair:
    (2) [x, y] - [jx, jy] in H and (3) [jx, jy] = [x, y] + j([x, jy] + [jx, y])."""
    rep = Report()
    c, j, names = dense_tensor(d.algebra), rows_of(d.j), d.algebra.names
    H = rref_over_fractions(basis_of(d.H))
    w2, w3 = [], []
    for a, x in enumerate(H[0]):
        for y in H[0][a + 1:]:
            jx, jy = apply(j, x), apply(j, y)
            xy, lhs = bracket(c, x, y), bracket(c, jx, jy)
            diff = vsub(xy, lhs)
            if not in_span(H, diff):
                w2.append(dict(x=fmt_vec(names, x), y=fmt_vec(names, y),
                                  offending=fmt_vec(names, diff)))
            rhs = vadd(xy, apply(j, vadd(bracket(c, x, jy), bracket(c, jx, y))))
            if lhs != rhs:
                w3.append(dict(x=fmt_vec(names, x), y=fmt_vec(names, y),
                                  offending=fmt_vec(names, vsub(lhs, rhs))))
    rep.add("cr.condition2", not w2, w2)
    rep.add("cr.condition3", not w3, w3)
    return rep


def crdata_error_ambient(H: Subspace, j: Matrix):
    """The message CRData construction raises for H and j, or None: the image
    of j column by column, then j j h = -h for each basis vector h of H."""
    span, rows = rref_over_fractions(basis_of(H)), rows_of(j)
    for i in range(j.cols):
        if not in_span(span, column(j, i)):
            return f"image of j not contained in H (column {i + 1})"
    if any(apply(rows, apply(rows, h)) != vscale(-1, h) for h in span[0]):
        return "j^2 is not -Id on H"
    return None


def omega_defects_by_triples(c, om, names) -> tuple:
    """The antisymmetry witnesses of the form with matrix om, and the ordered
    triples (a, b, t) with w([e_a, e_b], e_t) + w([e_t, e_a], e_b)
    + w([e_b, e_t], e_a) != 0, three dot products each."""
    n = len(c)
    anti = [dict(x=names[a], y=names[b]) for a in range(n) for b in range(a, n)
            if om[a][b] != -om[b][a]]
    col = transpose(om)
    closed = [dict(x=names[a], y=names[b], z=names[t])
              for a in range(n) for b in range(n) for t in range(n)
              if vdot(c[a][b], col[t]) + vdot(c[t][a], col[b]) + vdot(c[b][t], col[a]) != 0]
    return anti, closed


def check_kahler_by_triples(k: KahlerCRData) -> Report:
    """`check_kahler` with closedness as three dot products per ordered
    triple, and nondegeneracy as det (w(h_a, h_b)) != 0."""
    rep = Report()
    om = omega_rows(k)
    anti, closed = omega_defects_by_triples(dense_tensor(k.algebra), om, k.algebra.names)
    rep.add("kahler.omega_antisymmetric", not anti, anti)
    rep.add("kahler.omega_closed", not closed, closed)
    basis = rref_over_fractions(basis_of(k.H))[0]
    rep.add("kahler.omega_h_nondegenerate",
            det_over_fractions([[vdot(x, apply(om, y)) for y in basis] for x in basis]) != 0)
    return rep


def left_symmetric_product_by_solves(k: KahlerCRData) -> list:
    """xy for each basis pair of H from its own Gram system
    w(xy, z) = -w(y, [x, z]) for every basis vector z of H: the dense table
    whose entry [a][b] is the `Fraction` H-coordinates of h_a h_b."""
    c, om = dense_tensor(k.algebra), omega_rows(k)
    basis = rref_over_fractions(basis_of(k.H))[0]
    m = len(basis)

    def w(x, y):
        return vdot(x, apply(om, y))

    # row z, column e: w(h_e, h_z)
    system = [[w(h, z) for h in basis] for z in basis]
    return [[solve_over_fractions(system, tuple(-w(y, bracket(c, x, z)) for z in basis), m)
             for y in basis] for x in basis]


def check_left_symmetric_ambient(k: KahlerCRData, P: list) -> Report:
    """`check_left_symmetric` on ambient vectors, for the product whose dense
    table P holds the H-coordinates P[a][b] of h_a h_b: R[a][b] = h_a h_b is
    read off it in G, the product of two members of H is extended
    bilinearly through their H-coordinates, and every identity is tested on
    every basis pair or triple with the products themselves."""
    rep = Report()
    alg, names = k.algebra, k.algebra.names
    c, om, n = dense_tensor(alg), omega_rows(k), alg.dim
    basis = basis_of(k.H)
    m = len(basis)
    fmt = [fmt_vec(names, h) for h in basis]
    R = [[lincomb(v, basis, n) for v in row] for row in P]
    # by their nonzero entries: each product, its H-coordinates, and those of
    # each commutator xy - yx
    Rc = [[h_coordinates(basis, v) for v in row] for row in R]
    Rs, Rz = ([[_nonzero(v) for v in row] for row in T] for T in (R, Rc))
    Cz = [[_nonzero(vsub(Rc[a][b], Rc[b][a])) for b in range(m)] for a in range(m)]
    unit = [[(a, 1)] for a in range(m)]

    def nonzero_sum(*terms) -> bool:
        """Whether sum sign * xy over the terms (sign, x, y) is nonzero, the
        product extended bilinearly through the H-coordinates x and y."""
        acc = {}
        for sign, x, y in terms:
            for i, xi in x:
                for j, yj in y:
                    for l, e in Rs[i][j]:
                        acc[l] = acc.get(l, 0) + sign * xi * yj * e
        return any(acc.values())

    images = [apply(om, u) for u in basis]
    w1 = []
    for a in range(m):
        for b in range(m):
            d = vsub(vsub(R[a][b], R[b][a]), bracket(c, basis[a], basis[b]))
            w1.extend(dict(x=fmt[a], y=fmt[b], u=fmt[t])
                      for t, image in enumerate(images) if vdot(d, image) != 0)
    rep.add("leftsym.identity1", not w1, w1)

    def commutators(*pairs):
        """The terms of the sum of [x, v]' = xv - vx over the pairs (x, v)."""
        return [term for x, v in pairs for term in ((1, x, v), (-1, v, x))]

    # [x, [y, z]'] + [z, [x, y]'] + [y, [z, x]']
    jac = [dict(x=fmt[a], y=fmt[b], z=fmt[t]) for a, b, t in combinations(range(m), 3)
           if nonzero_sum(*commutators((unit[a], Cz[b][t]), (unit[t], Cz[a][b]),
                                       (unit[b], Cz[t][a])))]
    rep.add("leftsym.jacobi_induced", not jac, jac)

    if not jac:
        # x(yz) - (xy)z - y(xz) + (yx)z
        w2 = [dict(x=fmt[a], y=fmt[b], z=fmt[t])
              for a in range(m) for b in range(m) for t in range(m)
              if nonzero_sum((1, unit[a], Rz[b][t]), (-1, Rz[a][b], unit[t]),
                             (-1, unit[b], Rz[a][t]), (1, Rz[b][a], unit[t]))]
        rep.add("leftsym.identity2", not w2, w2)
    return rep


def omega_radical_ambient(k: KahlerCRData):
    """L = {x : w(x, e_t) = 0 for every t} as its `Fraction` RREF rows, with
    [x, y] in L for every basis pair of L and <x, h> = 0 for every basis
    vector x of L and h of H."""
    rep = Report()
    alg, names, n = k.algebra, k.algebra.names, k.algebra.dim
    c, metric = dense_tensor(alg), rows_of(k.metric)
    L = kernel_over_fractions(transpose(omega_rows(k)), n)
    rep.add("radical.subalgebra", all(in_span(L, bracket(c, x, y))
                                      for x, y in combinations(L[0], 2)))
    orth = [dict(x=fmt_vec(names, x), h=fmt_vec(names, h))
            for x in L[0] for h in rref_over_fractions(basis_of(k.H))[0]
            if vdot(x, apply(metric, h)) != 0]
    rep.add("radical.orthogonal_h", not orth, orth)
    return L[0], rep


def center_U_ambient(k: KahlerCRData):
    """U = (Z(G) cap H) + j(Z(G) cap H) as its `Fraction` RREF rows, with
    [x, y] = 0 for every basis pair of U and [z, h] in H for every basis
    vector z of U and h of H."""
    rep = Report()
    alg, names, n = k.algebra, k.algebra.names, k.algebra.dim
    c, j, H = dense_tensor(alg), rows_of(k.j), rref_over_fractions(basis_of(k.H))
    zh, _ = intersect_over_fractions(center_kernel(c)[0], H[0], n)
    U, _ = rref_over_fractions([*zh, *(apply(j, z) for z in zh)])
    comm = []
    for a, x in enumerate(U):
        for y in U[a + 1:]:
            b = bracket(c, x, y)
            if not is_zero(b):
                comm.append(dict(x=fmt_vec(names, x), y=fmt_vec(names, y),
                                    offending=fmt_vec(names, b)))
    rep.add("center_u.commutative", not comm, comm)
    stab = []
    for z in U:
        for h in H[0]:
            b = bracket(c, z, h)
            if not in_span(H, b):
                stab.append(dict(z=fmt_vec(names, z), h=fmt_vec(names, h),
                                    offending=fmt_vec(names, b)))
    rep.add("center_u.stabilizes_h", not stab, stab)
    return U, rep


def ideal_complement_complex_ambient(d: CRData, ideal: Subspace):
    """For an ideal I with I + H = G (direct), the bracket of H projected
    along I, c[a][b] = the H-coordinates of [h_a, h_b] in the basis of H and
    I, one solve per pair; its violations from `structure_violations`; and
    j[x, y]' = [jx, y]' for each basis pair, with j in H-coordinates.
    Returns (c, the matrix of j on H as rows, report); when I is not an
    ideal or not supplementary to H, `ideal.valid_input` fails with its
    reason, c and j are None, and nothing else is decided."""
    alg, n, names = d.algebra, d.algebra.dim, d.algebra.names
    c = dense_tensor(alg)
    I, H = rref_over_fractions(basis_of(ideal)), rref_over_fractions(basis_of(d.H))
    rep = Report()
    if not all(in_span(I, bracket(c, basis_vector(n, i), x)) for x in I[0] for i in range(n)):
        rep.add("ideal.valid_input", False, [dict(reason="not an ideal")])
        return None, None, rep
    if len(I[0]) + len(H[0]) != n or len(rref_over_fractions(I[0] + H[0])[0]) != n:
        rep.add("ideal.valid_input", False, [dict(reason="ideal is not supplementary to H")])
        return None, None, rep
    rep.add("ideal.valid_input", True)

    basis, j = H[0], rows_of(d.j)
    m = len(basis)
    system = transpose([*basis, *I[0]])

    def project(v):
        return solve_over_fractions(system, v, n)[:m]

    cq = [[project(bracket(c, x, y)) for y in basis] for x in basis]
    bad = structure_violations(cq)
    rep.add("ideal.jacobi", not bad,
            [dict(kind=kind, indices=str(tuple(i + 1 for i in idx))) for kind, idx in bad])
    # row a: the H-coordinates of j h_a
    jH = [project(apply(j, h)) for h in basis]
    wj = [dict(x=fmt_vec(names, basis[a]), y=fmt_vec(names, basis[b]))
          for a, b in combinations(range(m), 2)
          if lincomb(cq[a][b], jH, m) != lincomb(jH[a], [cq[e][b] for e in range(m)], m)]
    rep.add("ideal.complex_structure", not wj, wj)
    return cq, transpose(jH), rep


def build_extension_lifted(base: KahlerCRData, alpha):
    """Extend a Kahler algebra G (base.H must be the full space) by a vector
    space V: [x, y] = [x, y]' + alpha(x, y), with [G, V] = [V, V] = 0, for
    alpha the table of V-vectors alpha(e_a, e_b), read as data through its
    scale and rows.  V has one dimension more than the largest V index that
    alpha uses, or 1 when alpha is zero: V is central, so trailing zero
    coordinates change no verdict and no witness.

    Builds the dense tensor of G + V and verifies Jacobi on it entry by
    entry, j-invariance of alpha, the cyclic compatibility condition, and
    closedness of the extended form (w on G, 0 on V).  Returns (data,
    report), data the lifted `KahlerCRData`, or None when Jacobi fails or
    H != G, which fails `extension.valid_input` and decides nothing else.
    """
    alg = base.algebra
    n, rep = alg.dim, Report()
    if base.H.dim != n:
        rep.add("extension.valid_input", False,
                [dict(reason="extension base must have H equal to the full algebra")])
        return None, rep
    v_dim = 1 + max((k for row in alpha.rows for v in row.values() for k in v), default=0)
    # alpha on basis pairs: alpha_rows[a][b] = alpha(e_a, e_b)
    alpha_rows = dense_table(alpha, v_dim)

    total = n + v_dim
    base_c = dense_tensor(alg)
    c = [[base_c[a][b] + alpha_rows[a][b] if a < n and b < n else zero_vector(total)
          for b in range(total)] for a in range(total)]

    bad = structure_violations(c)
    rep.add("extension.jacobi", not bad,
            [dict(kind=k, indices=str(tuple(i + 1 for i in idx))) for k, idx in bad])

    j, names = rows_of(base.j), alg.names
    jcols = transpose(j)
    jinv = [dict(x=names[a], y=names[b]) for a, b in combinations(range(n), 2)
            if bilinear(alpha_rows, jcols[a], jcols[b], v_dim) != alpha_rows[a][b]]
    rep.add("extension.alpha_j_invariant", not jinv, jinv)

    if bad:
        return None, rep

    # cyclic condition: alpha([x, y]', z) + alpha([z, x]', y) + alpha([y, z]', x)
    # = 0, the V-part of the Jacobiator, as V is central
    def alpha_of(x, z):
        return bilinear(alpha_rows, x, basis_vector(n, z), v_dim)

    cyc = [dict(x=names[a], y=names[b], z=names[t])
           for a, b, t in combinations(range(n), 3)
           if not is_zero(vadd(vadd(alpha_of(base_c[a][b], t), alpha_of(base_c[t][a], b)),
                               alpha_of(base_c[b][t], a)))]
    rep.add("extension.cyclic", not cyc, cyc)

    ext_names = list(names) + [f"v{i + 1}" for i in range(v_dim)]
    om = [tuple(r) + zero_vector(v_dim) for r in omega_rows(base)]
    om += [zero_vector(total)] * v_dim
    anti, closed = omega_defects_by_triples(c, om, ext_names)
    rep.add("extension.omega_closed", not anti and not closed, anti + closed)

    # the lifted data, read by the parser from the document of G + V
    def text(rows):
        return [[str(x) for x in r] for r in rows]

    doc = {"algebra": {"dim": total, "names": ext_names, "brackets": [
               {"x": a + 1, "y": b + 1, "result": [str(x) for x in c[a][b]]}
               for a, b in combinations(range(total), 2)]},
           "cr": {"H": text(h + zero_vector(v_dim) for h in basis_of(base.H)),
                  "j": text(rows_of(block_diag(base.j, zeros(v_dim, v_dim))))},
           "metric": text(rows_of(block_diag(base.metric, identity(v_dim))))}
    return parse_document(doc).kahler, rep


def semisimple_exactness_full_system(k: KahlerCRData):
    """`semisimple_exactness` from the definitions: semisimplicity by
    Cartan's criterion, det K != 0 for the Killing form K of traces, else
    ValueError; one equation a . [e_a, e_b] = w(e_a, e_b) for every pair
    a < b, the 0 = 0 rows included; K X = a; and L = centralizer(X) as the
    kernel of ad X, compared with the kernel of w.  L is returned as its
    `Fraction` RREF rows."""
    rep = Report()
    n, c = k.algebra.dim, dense_tensor(k.algebra)
    K = [[killing_entry(c, a, b) for b in range(n)] for a in range(n)]
    if det_over_fractions(K) == 0:
        raise ValueError("algebra is not semisimple; exactness machinery unavailable")

    om = omega_rows(k)
    pairs = list(combinations(range(n), 2))
    alpha = solve_over_fractions([c[a][b] for a, b in pairs], tuple(om[a][b] for a, b in pairs), n)
    if alpha is None:
        rep.add("exactness.alpha_exact", False,
                detail="w(x,y) = a([x,y]) has no solution: input data invalid "
                       "for a semisimple Kahler-CR structure")
        return None, None, None, rep
    rep.add("exactness.alpha_exact", True)

    X = solve_over_fractions(K, alpha, n)
    assert X is not None  # Killing form nondegenerate
    rep.add("exactness.killing_dual", True)

    L = kernel_over_fractions(ad_rows(c, X), n)[0]
    codim = n - len(rref_over_fractions(basis_of(k.H))[0])
    rep.add("exactness.radical_match",
            L == kernel_over_fractions(transpose(om), n)[0] and len(L) == codim,
            detail=f"dim L = {len(L)}, codim H = {codim}")
    return alpha, X, L, rep


# -- the Poisson layer -----------------------------------------------------------------

def check_pseudo_poisson_ambient(d) -> Report:
    """[Lambda, Lambda] by `schouten_decomposable`, and its remainder against
    the span of U ^ Lambda^2 G."""
    rep = Report()
    names = d.algebra.names
    t = schouten_decomposable(d.algebra, d.Lambda, d.Lambda)
    res = wedge_span_remainder(t, d.U)
    ok = res.is_zero()
    rep.add("poisson.schouten_membership", ok, [] if ok else [dict(residual=res.format(names))],
            detail=f"[L,L] = {t.format(names)}")
    return rep


def check_j_invariance_ambient(d) -> Report:
    """(Lambda^2 j)(Lambda) = Lambda, with Lambda^2 j by minors."""
    rep = Report()
    image = apply_exterior_power(rows_of(d.j), d.Lambda)
    ok = image == d.Lambda
    rep.add("poisson.j_invariance", ok,
            [] if ok else [dict(image=image.format(d.algebra.names))])
    return rep


def coboundary_pi_ambient(algebra: LieAlgebra, r: Bivector, U: Subspace) -> Report:
    """For each generator e_i, the derivation extension of ad e_i (by minors)
    applied to [r, r] (by `schouten_decomposable`), and its remainder against
    the span of U ^ Lambda^2 G."""
    rep = Report()
    n, names, c = algebra.dim, algebra.names, dense_tensor(algebra)
    rr, span = schouten_decomposable(algebra, r, r), wedge_span(basis_of(U), n)
    bad = []
    for i in range(n):
        res = span_remainder(apply_exterior_power(ad_rows(c, basis_vector(n, i)), rr, leibniz=True),
                             span)
        if not res.is_zero():
            bad.append(dict(generator=names[i], residual=res.format(names)))
    rep.add("poisson.coboundary_invariance", not bad, bad,
            detail=f"[r,r] = {rr.format(names)}")
    return rep


# -- the parse conversion and the number formatters -------------------------------------

def format_rat_over_fractions(q, scale: int = 1) -> str:
    """q / scale through one `Fraction`."""
    q = Fraction(q, scale)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_terms_over_fractions(terms, scale: int = 1) -> str:
    """Each coefficient divided by scale as a `Fraction`, its absolute value
    compared with 1, and its sign written as "+ " or "- " before the term;
    the leading "+ " is dropped and a leading "- " becomes "-"."""
    out = []
    for coeff, symbol in terms:
        if coeff == 0:
            continue
        q = Fraction(coeff, scale)
        term = symbol if abs(q) == 1 else f"{format_rat_over_fractions(abs(q))}*{symbol}"
        out.append(("+ " if q > 0 else "- ") + term)
    if not out:
        return "0"
    text = " ".join(out)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def scaled_sparse(rows) -> tuple[int, list]:
    """(s, ints) with rows[i][k] = ints[i].get(k, 0) / s exactly, where s is
    the least common denominator of the entries (1 when there are none) and
    ints[i] = {k: x} keeps the nonzero entries."""
    rows = [tuple(r) for r in rows]
    s = lcm(*(e.denominator for r in rows for e in r))
    return s, [{k: e.numerator * (s // e.denominator) for k, e in enumerate(r) if e}
               for r in rows]


def table_over_fractions(dim: int, entries: Mapping) -> tuple[int, list]:
    """(scale, rows) of the table with c[i][j] = entries[(i, j)], a
    `Fraction` vector, and zero at every pair not listed."""
    nonzero = sorted((ij, v) for ij, v in entries.items() if any(v))
    scale = lcm(*(e.denominator for _, v in nonzero for e in v))
    rows = [{} for _ in range(dim)]
    for (i, j), v in nonzero:
        rows[i][j] = {k: e.numerator * (scale // e.denominator) for k, e in enumerate(v) if e}
    return scale, rows


def parse_over_fractions(doc: dict) -> dict:
    """The parts of a valid document that `parse_document` reads as
    rationals, each converted through `vector` to `Fraction`s and scaled by
    a common denominator: {"table", "alpha": (scale, rows), "H", "U",
    "ideal": Subspace, "j", "metric": Matrix, "lambda", "r": Bivector}, for
    the blocks present."""
    dim = doc["algebra"]["dim"]

    def table(entries):
        given = {}
        for e in entries:
            i, j, v = e["x"] - 1, e["y"] - 1, vector(e["result"])
            given[(i, j)], given[(j, i)] = v, tuple(-x for x in v)
        return table_over_fractions(dim, given)

    out = {"table": table(doc["algebra"].get("brackets", []))}

    def subspace(rows):
        return Subspace.from_ints(dim, scaled_sparse([vector(r) for r in rows])[1])

    def matrix(rows):
        return Matrix.from_ints(dim, *scaled_sparse([vector(r) for r in rows]))

    def bivector(entries):
        coeffs = {}
        for e in entries:
            ij = (e["i"] - 1, e["j"] - 1)
            coeffs[ij] = coeffs.get(ij, 0) + rat(e["coeff"])
        return alternating(Bivector, dim, coeffs)

    if "cr" in doc:
        out["H"], out["j"] = subspace(doc["cr"]["H"]), matrix(doc["cr"]["j"])
    if "metric" in doc:
        out["metric"] = matrix(doc["metric"])
    if "poisson" in doc:
        out["U"] = subspace(doc["poisson"]["U"])
        out["lambda"] = bivector(doc["poisson"].get("lambda", []))
        if "r" in doc["poisson"]:
            out["r"] = bivector(doc["poisson"]["r"])
    if "ideal" in doc:
        out["ideal"] = subspace(doc["ideal"])
    if "extension" in doc:
        out["alpha"] = table(doc["extension"].get("alpha", []))
    return out


# The definition-level oracle of every check id that `crlie` emits.
ORACLES = {
    **dict.fromkeys(("cr.condition2", "cr.condition3"), check_cr_ambient),
    **dict.fromkeys(("kahler.omega_antisymmetric", "kahler.omega_closed",
                     "kahler.omega_h_nondegenerate"), check_kahler_by_triples),
    **dict.fromkeys(("leftsym.identity1", "leftsym.jacobi_induced", "leftsym.identity2"),
                    check_left_symmetric_ambient),
    **dict.fromkeys(("radical.subalgebra", "radical.orthogonal_h"), omega_radical_ambient),
    **dict.fromkeys(("center_u.commutative", "center_u.stabilizes_h"), center_U_ambient),
    **dict.fromkeys(("ideal.valid_input", "ideal.jacobi", "ideal.complex_structure"),
                    ideal_complement_complex_ambient),
    **dict.fromkeys(("extension.valid_input", "extension.jacobi", "extension.alpha_j_invariant",
                     "extension.cyclic", "extension.omega_closed"), build_extension_lifted),
    **dict.fromkeys(("exactness.alpha_exact", "exactness.killing_dual",
                     "exactness.radical_match"), semisimple_exactness_full_system),
    "poisson.schouten_membership": check_pseudo_poisson_ambient,
    "poisson.j_invariance": check_j_invariance_ambient,
    "poisson.coboundary_invariance": coboundary_pi_ambient,
}
