"""Independent oracles used to freeze expected values.

These deliberately take a different route than the library code: the
Schouten oracle expands pairwise over decomposables with `wedge_coeffs`, while the
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

The `Fraction` linear algebra is the library's former one, kept as it was
when `Matrix` and `Subspace` moved to integer rows over one scale and one
fraction-free elimination: `rref_over_fractions`, `solve_over_fractions`,
`kernel_over_fractions` and `det_over_fractions` eliminate over `Fraction`
with a pivot division per step, and `intersect_over_fractions`,
`sum_over_fractions` and `reduce_over_fractions` are the former `Subspace`
operations on the `Fraction` basis.  The subspace oracles return the
`Fraction` RREF (rows, pivots) instead of a `Subspace`, so that no
comparison goes through the library's elimination.
`center_U_over_fractions` takes one `Fraction` bracket and one membership
test per pair, and `ideal_complement_complex_over_fractions` one `Fraction`
solve per pair, where the library contracts integer rows and reduces all
pairs at once.  The small helpers below them (`rows_of`, `identity`,
`zeros`, `mat_add`, `mat_scale`, `vadd`, `basis_vector`, `vscale`,
`is_zero`, ...) stand in for the `Matrix` and vector arithmetic the library
no longer has, and `coefficients`, `combine` and `wedge_coeffs` for the
multivector arithmetic: a multivector is read as its `Fraction` coefficient
dict, linear combinations are taken on dicts, and x ^ y (^ z) is the dict
of products on raw index tuples, which the `Bivector` and `Trivector`
constructors sign and merge.  `format_rat_over_fractions` and
`format_terms_over_fractions` are the former formatters, which divided
every coefficient by its scale as a `Fraction`, where the library reduces
integers by their gcd with the scale.
`parse_over_fractions` is the library's former parse conversion, kept as it
was when the document reader moved to `read_row`: every rational goes
through `vector` to a `Fraction`, the bracket table is mirrored by
negating `Fraction`s and scaled by `table_over_fractions`, the former
`IntTable.from_entries`, and H, U, the ideal, j and the metric by
`scaled_sparse`, the former common-denominator scaling of `Matrix(rows)`
and `Subspace.span`.

The `*_dense` oracles are the library's former tables on H, kept as they
were when those tables moved to sparse rows that hold only their nonzero
entries: `h_brackets_dense` (one triple loop per pair), `j_on_h_dense`,
`omega_images_dense` and `gram_dense` build dense integer vectors, and
`check_cr_dense`, `left_symmetric_product_dense` (all m^3 entries of P),
`check_left_symmetric_dense` (identity (1) on all m^2 pairs),
`omega_radical_dense` and `center_U_dense` (which brackets every u with
itself too) contract them.  `lincomb`, `vsub`, `table_from_dense_ints`,
`bracket_ints_dense`, `reduce_dense` and `contains_dense` are the former
`linalg.lincomb` and `vsub`, `IntTable.dense_ints`,
`LieAlgebra.bracket_ints`, and `Subspace.reduce` and `contains` on dense
vectors; `sparse`, `densify`, `product_from_dense_ints` and `dense_product`
convert between the two forms.
"""

from fractions import Fraction
from itertools import chain, combinations, permutations
from itertools import product as iproduct
from math import lcm, prod
from typing import Mapping, Optional, Sequence

from crlie import Bivector, LieAlgebra, Trivector
from crlie.crkahler import (
    CRData, KahlerCRData, LeftSymmetricProduct, check_kahler, induced_bracket,
)
from crlie.lie import IntTable, contraction
from crlie.linalg import Matrix, Subspace, Vector, kernel, rat, rref, vector
from crlie.multivector import derive_ints, push_ints
from crlie.poisson import PseudoPoissonData
from crlie.report import Report, fmt_vec, witness


# -- `Fraction` helpers --------------------------------------------------------

def rows_of(A: Matrix) -> list:
    """The rows of A as `Fraction` tuples."""
    return [tuple(A[i, k] for k in range(A.cols)) for i in range(A.rows)]


def matvec(A: Matrix, x) -> Vector:
    return tuple(vdot(r, x) for r in rows_of(A))


def column(A: Matrix, j: int) -> Vector:
    return tuple(A[i, j] for i in range(A.rows))


def from_columns(cols) -> Matrix:
    return Matrix(list(zip(*cols)))


def vdot(x, y) -> Fraction:
    """sum_i x_i y_i, skipping terms with a zero factor."""
    assert len(x) == len(y)
    return sum((a * b for a, b in zip(x, y) if a and b), Fraction(0))


def validate_structure(c) -> list:
    """The antisymmetry and Jacobi violations of a dense bracket tensor, as
    `IntTable.violations` reports them."""
    return IntTable.dense(c).violations()


def identity(n: int, c=1) -> Matrix:
    """c times the n x n identity."""
    return Matrix([[c * (i == k) for k in range(n)] for i in range(n)])


def zeros(rows: int, cols: int) -> Matrix:
    return Matrix([[0] * cols for _ in range(rows)])


def mat_add(A: Matrix, B: Matrix) -> Matrix:
    assert (A.rows, A.cols) == (B.rows, B.cols)
    return Matrix([vadd(a, b) for a, b in zip(rows_of(A), rows_of(B))])


def mat_scale(c, A: Matrix) -> Matrix:
    return Matrix([vscale(c, r) for r in rows_of(A)])


def vadd(x, y) -> tuple:
    assert len(x) == len(y)
    return tuple(a + b for a, b in zip(x, y))


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def basis_vector(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if k == i else 0) for k in range(n))


def vscale(c, x) -> Vector:
    c = rat(c)
    return tuple(c * a for a in x)


def is_zero(x) -> bool:
    return all(a == 0 for a in x)


def vsub(x, y) -> tuple:
    """The former `linalg.vsub`."""
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    return tuple(a - b for a, b in zip(x, y))


# -- coefficient dicts of multivectors ------------------------------------------

def coefficients(t) -> dict:
    """The coefficients of a multivector as {sorted key: Fraction}."""
    return {key: Fraction(x, t.scale) for key, x in t.ints.items()}


def combine(*terms) -> dict:
    """sum c * coeffs over the pairs (c, coeffs), for coefficient dicts or
    multivectors, as a coefficient dict on the keys as given; the
    multivector constructors sign and merge raw keys."""
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


def lincomb(coeffs, vectors, n: int) -> tuple:
    """The former `linalg.lincomb`: sum_i coeffs[i] * vectors[i] in dimension
    n, skipping zero terms; exact for rational and integer entries alike."""
    acc = [0] * n
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


def format_rat_over_fractions(q, scale: int = 1) -> str:
    """The former `linalg.format_rat`: q / scale through one `Fraction`."""
    q = Fraction(q, scale)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_terms_over_fractions(terms, scale: int = 1) -> str:
    """The former `linalg.format_terms`: each coefficient divided by scale as
    a `Fraction` and compared with 1 and -1."""
    out = []
    for coeff, symbol in terms:
        if coeff == 0:
            continue
        q = Fraction(coeff, scale)
        if q == 1:
            out.append(symbol)
        elif q == -1:
            out.append(f"-{symbol}")
        else:
            out.append(f"{format_rat_over_fractions(q)}*{symbol}")
    return " + ".join(out).replace("+ -", "- ") if out else "0"


def scaled(rows) -> tuple:
    """(s, ints) with rows[i][k] = ints[i][k] / s, s the least common
    denominator of the entries."""
    rows = [tuple(r) for r in rows]
    s = lcm(*(e.denominator for r in rows for e in r))
    return s, [tuple(e.numerator * (s // e.denominator) for e in r) for r in rows]


def unscaled(v, s: int) -> Vector:
    return tuple(Fraction(x, s) for x in v)


def omega(k: KahlerCRData, x, y) -> Fraction:
    """w(x, y) = <x, j y>."""
    return vdot(x, matvec(k.omega_matrix, y))


def push(A: Matrix, t):
    """`push_ints` on the integer forms of A and t, scaled back."""
    cols = dict(enumerate(A.transpose().ints))
    return t.from_ints(t.dim, t.scale * A.scale ** t.arity, push_ints(cols, t.ints))


def derive(D: Matrix, t):
    """`derive_ints` on the integer forms of D and t, scaled back."""
    cols = dict(enumerate(D.transpose().ints))
    return t.from_ints(t.dim, t.scale * D.scale, derive_ints(cols, t.ints))


def coordinate_complement(s: Subspace) -> Subspace:
    """The standard basis vectors at the non-pivot positions of s."""
    return Subspace.span([basis_vector(s.ambient_dim, c)
                          for c in range(s.ambient_dim) if c not in s.pivots],
                         s.ambient_dim)


# -- the former `Fraction` linear algebra ----------------------------------------

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


def solve_over_fractions(A: Matrix, b):
    """Solve A x = b exactly.

    Returns None when inconsistent; with a positive-dimensional solution
    space, free variables are set to zero (canonical representative).
    """
    if A.rows != len(b):
        raise ValueError(f"dimension mismatch: {A.rows} rows vs rhs of {len(b)}")
    aug = [tuple(r) + (bi,) for r, bi in zip(rows_of(A), b)]
    reduced, pivots = rref_over_fractions(aug)
    if A.cols in pivots:
        return None
    x = [Fraction(0)] * A.cols
    for row, p in zip(reduced, pivots):
        x[p] = row[-1]
    return tuple(x)


def kernel_over_fractions(A: Matrix):
    """Null space of A as its `Fraction` RREF (rows, pivots)."""
    reduced, pivots = rref_over_fractions(rows_of(A))
    free = [c for c in range(A.cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * A.cols
        v[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return rref_over_fractions(basis)


def det_over_fractions(A: Matrix) -> Fraction:
    if A.rows != A.cols:
        raise ValueError("determinant of non-square matrix")
    m = [list(r) for r in rows_of(A)]
    n = A.rows
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


def reduce_over_fractions(s: Subspace, v):
    """Remainder of v after elimination against the RREF basis of s."""
    r = list(v)
    for row, p in zip(s.basis, s.pivots):
        if r[p] != 0:
            f = r[p]
            r = [a - f * b for a, b in zip(r, row)]
    return tuple(r)


def intersect_over_fractions(s: Subspace, t: Subspace):
    if s.dim == 0 or t.dim == 0:
        return [], []
    # x = sum a_i s_i = sum b_j t_j  <=>  (a, b) in ker [S^T | -T^T]
    cols = [tuple(v) for v in s.basis] + [vscale(-1, v) for v in t.basis]
    K, _ = kernel_over_fractions(from_columns(cols))
    return rref_over_fractions(
        [lincomb(coeffs[: s.dim], s.basis, s.ambient_dim) for coeffs in K])


def sum_over_fractions(s: Subspace, t: Subspace):
    return rref_over_fractions(list(s.basis) + list(t.basis))


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
    acc: dict = {}
    for (a, b), pv in coefficients(p).items():
        for (c, d), qv in coefficients(q).items():
            ea, eb = basis_vector(n, a), basis_vector(n, b)
            ec, ed = basis_vector(n, c), basis_vector(n, d)
            w = pv * qv
            acc = combine((1, acc),
                          (w, wedge_coeffs(algebra.bracket(ea, ec), eb, ed)),
                          (-w, wedge_coeffs(algebra.bracket(ea, ed), eb, ec)),
                          (-w, wedge_coeffs(algebra.bracket(eb, ec), ea, ed)),
                          (w, wedge_coeffs(algebra.bracket(eb, ed), ea, ec)))
    return Trivector(n, acc)


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
        composed = matvec(adi, column(adj, k))
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
    coords = [coefficients(t).get(key, Fraction(0)) for key in keys]
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
    coeffs = coefficients(t)
    coords = reduce_over_fractions(span, tuple(coeffs.get(key, Fraction(0)) for key in keys))
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
            jx, jy = matvec(j, x), matvec(j, y)
            xy, lhs = alg.bracket(x, y), alg.bracket(jx, jy)
            diff = vsub(xy, lhs)
            if not contains_dense(d.H, diff):
                w2.append(witness(x=fmt_vec(names, x), y=fmt_vec(names, y),
                                  offending=fmt_vec(names, diff)))
            rhs = vadd(xy, matvec(j, vadd(alg.bracket(x, jy), alg.bracket(jx, y))))
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
    col = rows_of(omega.transpose())
    closed = []
    for a in range(n):
        for b in range(n):
            for t in range(n):
                s = (vdot(c[a][b], col[t]) + vdot(c[t][a], col[b])
                     + vdot(c[b][t], col[a]))
                if s != 0:
                    closed.append(witness(x=names[a], y=names[b], z=names[t]))
    rep.add("kahler.omega_closed", not closed, closed)
    rep.add("kahler.omega_h_nondegenerate", det_over_fractions(k.gram) != 0)
    return rep


def product_from_coordinates(H: Subspace, coords) -> LeftSymmetricProduct:
    """The product whose h_a h_b has the `Fraction` H-coordinates coords[a][b]."""
    m = H.dim
    s, ints = scaled(v for row in coords for v in row)
    return product_from_dense_ints(H, s, [ints[a * m:(a + 1) * m] for a in range(m)])


def left_symmetric_product_by_solves(k: KahlerCRData) -> LeftSymmetricProduct:
    """xy for each basis pair of H from its own Gram system
    gram^T coeff = (-w(y, [x, z]))_z."""
    alg = k.algebra
    basis = k.H.basis
    gram_t = k.gram.transpose()
    coords = []
    for x in basis:
        brackets = [alg.bracket(x, z) for z in basis]
        coords.append([solve_over_fractions(gram_t, tuple(-omega(k, y, v) for v in brackets))
                       for y in basis])
    return product_from_coordinates(k.H, coords)


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
                if omega(k, comm[(a, b)], u) != omega(k, br, u):
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
    rows = [rows_of(j)[p] for p in H.pivots]
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
        if not contains_dense(H, column(j, i)):
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
            if not contains_dense(d.H, diff):
                w2.append(witness(x=fmt_vec(names, x), y=fmt_vec(names, basis[b]),
                                  offending=fmt_vec(names, diff)))
            rhs = vadd(xy, matvec(d.j, vsub(K[a][b], K[b][a])))
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
    col = rows_of(omega.transpose())
    W = [[[vdot(v, u) for u in col] for v in row] for row in c]
    closed = [witness(x=names[a], y=names[b], z=names[t])
              for a in range(n) for b in range(n) for t in range(n)
              if W[a][b][t] + W[t][a][b] + W[b][t][a] != 0]
    rep.add("kahler.omega_closed", not closed, closed)
    rep.add("kahler.omega_h_nondegenerate", det_over_fractions(k.gram) != 0)
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
    images = [matvec(k.omega_matrix, u) for u in basis]
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
        minor = det_over_fractions(Matrix([r[:k] for r in rows_of(M)[:k]]))
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
            if bilinear(alpha_rows, column(base.j, a), column(base.j, b), v_dim) \
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

    j_ext = Matrix.block_diag(base.j, zeros(v_dim, v_dim))
    metric_ext = Matrix.block_diag(base.metric, identity(v_dim))
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
    return from_columns(cols)


def center_dense(algebra: LieAlgebra) -> Subspace:
    """Common kernel of the ad e_i; row k of ad e_i is (c[i][j][k])_j."""
    return kernel(Matrix([col for row in dense_tensor(algebra) for col in zip(*row)]))


def _nonzero(v) -> list:
    return [(i, c) for i, c in enumerate(v) if c != 0]


def _sparse_columns(A: Matrix, t) -> list:
    if A.rows != A.cols or A.rows != t.dim:
        raise ValueError("square matrix of the multivector's dimension required")
    return [_nonzero(col) for col in zip(*rows_of(A))]


def push_over_fractions(A: Matrix, t):
    """Multiplicative extension: e_a^e_b(^e_c) -> Ae_a ^ Ae_b (^ Ae_c)."""
    cols = _sparse_columns(A, t)
    acc: dict = {}
    for key, v in coefficients(t).items():
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
    for key, v in coefficients(t).items():
        for s, a in enumerate(key):
            for i, x in cols[a]:
                raw = key[:s] + (i,) + key[s + 1:]
                acc[raw] = acc.get(raw, 0) + v * x
    return type(t)(t.dim, acc)


def _full_matrix(p: Bivector) -> Matrix:
    """Antisymmetric n x n coefficient matrix."""
    m = [[Fraction(0)] * p.dim for _ in range(p.dim)]
    for (i, j), v in coefficients(p).items():
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
        from_columns([reduce_over_fractions(u, basis_vector(n, i)) for i in range(n)]), t)


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
    """`check_cocycle` with `Fraction` coefficient sums, `derive_over_fractions`
    and `ad_by_brackets`: delta([x, y]) = ad2(x) delta(y) - ad2(y) delta(x)."""
    rep = Report()
    n, tensor = algebra.dim, dense_tensor(algebra)
    ad = [ad_by_brackets(algebra, basis_vector(n, i)) for i in range(n)]
    bad = []
    for a in range(n):
        for b in range(a + 1, n):
            lhs = Bivector(n, combine(*((ck, delta[k]) for k, ck in enumerate(tensor[a][b]) if ck)))
            rhs = Bivector(n, combine((1, derive_over_fractions(ad[a], delta[b])),
                                      (-1, derive_over_fractions(ad[b], delta[a]))))
            if lhs != rhs:
                difference = Bivector(n, combine((1, lhs), (-1, rhs)))
                bad.append(witness(x=algebra.names[a], y=algebra.names[b],
                                   difference=difference.format(algebra.names)))
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
    alpha = solve_over_fractions(Matrix([c[a][b] for a, b in pairs]),
                                 tuple(k.omega_matrix[a, b] for a, b in pairs))
    if alpha is None:
        rep.add("exactness.alpha_exact", False,
                detail="w(x,y) = a([x,y]) has no solution: input data invalid "
                       "for a semisimple Kahler-CR structure")
        return None, None, None, rep
    rep.add("exactness.alpha_exact", True)

    K = alg.killing_form()
    X = solve_over_fractions(K, alpha)
    assert X is not None  # Killing form nondegenerate
    rep.add("exactness.killing_dual", True)

    L = alg.centralizer(X)
    rep.add("exactness.radical_match",
            L == k.radical and L.dim == alg.dim - k.H.dim,
            detail=f"dim L = {L.dim}, codim H = {alg.dim - k.H.dim}")
    return alpha, X, L, rep


def center_U_over_fractions(k: KahlerCRData):
    """U = (Z(G) cap H) + j(Z(G) cap H); commutative, and ad z keeps H in H."""
    rep = Report()
    alg = k.algebra
    zh = alg.center().intersect(k.H)
    jzh = Subspace.span([matvec(k.j, v) for v in zh.basis], alg.dim)
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
            if not contains_dense(k.H, b):
                stab.append(witness(z=fmt_vec(names, z), h=fmt_vec(names, h),
                                    offending=fmt_vec(names, b)))
    rep.add("center_u.stabilizes_h", not stab, stab)
    return U, rep


def ideal_complement_complex_over_fractions(d: CRData, ideal: Subspace):
    """Given an ideal I with I + H = G (direct), build the projected bracket
    on H and verify j is complex-bilinear for it."""
    alg = d.algebra
    if not alg.is_ideal(ideal):
        raise ValueError("not an ideal")
    if ideal.dim + d.H.dim != alg.dim or ideal.intersect(d.H).dim != 0:
        raise ValueError("ideal is not supplementary to H")

    basis = d.H.basis
    m = len(basis)
    # v = sum_a s_a h_a + (a member of I): the first m coordinates of the
    # solution in the combined basis are the H-coordinates of v's projection
    A = from_columns(list(basis) + list(ideal.basis))
    s, B = h_brackets_dense(d)
    c = [[solve_over_fractions(A, unscaled(v, s))[:m] for v in row] for row in B]
    rep = Report()
    bad = validate_structure_over_fractions(c)
    rep.add("ideal.jacobi", not bad,
            [witness(kind=k, indices=str(tuple(i + 1 for i in idx))) for k, idx in bad])
    quotient_like = LieAlgebra(c, names=[f"h{i + 1}" for i in range(m)], validate=False)

    s, J = j_on_h_dense(d)
    jH = from_columns([unscaled(row, s) for row in J])
    wj = []
    for a in range(m):
        for b in range(a + 1, m):
            lhs = matvec(jH, c[a][b])
            rhs = quotient_like.bracket(column(jH, a), basis_vector(m, b))
            if lhs != rhs:
                wj.append(witness(x=fmt_vec(alg.names, basis[a]),
                                  y=fmt_vec(alg.names, basis[b])))
    rep.add("ideal.complex_structure", not wj, wj)
    return quotient_like, jH, rep


# -- the former dense integer tables on H ---------------------------------------

def table_from_dense_ints(c) -> IntTable:
    """The former `IntTable.dense_ints`: the table of the dense tensor c of
    integers, at scale 1."""
    return IntTable(len(c), 1, [{j: {k: x for k, x in enumerate(v) if x}
                                 for j, v in enumerate(row) if any(v)} for row in c])


def bracket_ints_dense(algebra: LieAlgebra, x, y) -> list:
    """The former `LieAlgebra.bracket_ints`: table.scale [x, y] as a dense
    list, for sparse vectors {i: x_i}."""
    rows = algebra.table.rows
    acc = contraction((xi, y, rows[i]) for i, xi in x.items())
    return [acc.get(k, 0) for k in range(algebra.dim)]


def reduce_dense(S: Subspace, v) -> tuple:
    """The former `Subspace.reduce`: scale times the remainder of the dense
    vector v after elimination against the RREF basis."""
    if len(v) != S.ambient_dim:
        raise ValueError(f"dimension mismatch: vector of {len(v)} in ambient {S.ambient_dim}")
    r = [S.scale * x for x in v]
    for p, h in zip(S.pivots, S.ints):
        f = v[p]
        if f:
            for k, x in h.items():
                r[k] -= f * x
    return tuple(r)


def contains_dense(S: Subspace, v) -> bool:
    """The former `Subspace.contains`, for a dense vector."""
    return not any(reduce_dense(S, v))


def h_brackets_dense(d: CRData) -> tuple:
    """The former `CRData.brackets`: (s, B) with B[a][b] = s [h_a, h_b], a
    dense integer n-vector, by one triple loop per pair a < b."""
    table, sh, H = d.algebra.table, d.H.scale, d.H.ints
    rows, n, m = table.rows, d.algebra.dim, len(H)
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


def j_on_h_dense(d: CRData) -> tuple:
    """The former `CRData.jH`: (s, J), row a being s j h_a read at the
    pivots of H, a dense integer m-vector."""
    j, H = d.j.ints, d.H.ints
    return d.j.scale * d.H.scale, [tuple(sum(x * h.get(i, 0) for i, x in j[p].items())
                                         for p in d.H.pivots) for h in H]


def omega_images_dense(k: KahlerCRData) -> tuple:
    """The former `KahlerCRData.omega_images`: (s, U) with U[b] = s Omega h_b,
    a dense integer n-vector."""
    om, H = k.omega_matrix, k.H
    return om.scale * H.scale, [tuple(sum(x * h.get(i, 0) for i, x in row.items())
                                      for row in om.ints) for h in H.ints]


def gram_dense(k: KahlerCRData) -> Matrix:
    """The former `KahlerCRData.gram`, from `omega_images_dense`."""
    (su, U), H = omega_images_dense(k), k.H
    return Matrix.from_ints(len(U), su * H.scale,
                            [{b: sum(x * u[i] for i, x in h.items()) for b, u in enumerate(U)}
                             for h in H.ints])


def product_from_dense_ints(H: Subspace, scale: int, P) -> LeftSymmetricProduct:
    """The product with dense integer H-coordinates P[a][b] over scale."""
    return LeftSymmetricProduct(H, scale, [{b: sparse(v) for b, v in enumerate(row) if any(v)}
                                           for row in P])


def dense_product(p: LeftSymmetricProduct) -> list:
    """The former form of `LeftSymmetricProduct.P`: P[a][b] a dense integer
    m-vector."""
    m = p.H.dim
    return [[densify(row.get(b, {}), m) for b in range(m)] for row in p.P]


def check_cr_dense(d: CRData) -> Report:
    """The former `check_cr`, contracting the dense integer tables of
    `h_brackets_dense` and `j_on_h_dense` over every pair."""
    rep = Report()
    (sB, B), (sJ, J), (sj, j) = h_brackets_dense(d), j_on_h_dense(d), (d.j.scale, d.j.ints)
    basis, sh, names = d.H.ints, d.H.scale, d.algebra.names
    m, n = len(basis), d.algebra.dim
    K = [[lincomb(J[a], (row[b] for row in B), n) for b in range(m)] for a in range(m)]
    s2, s3 = sJ * sJ * sB, sj * sJ * sJ * sB
    w2, w3 = [], []
    for a, x in enumerate(basis):
        for b in range(a + 1, m):
            xy, lhs = tuple(sJ * sJ * e for e in B[a][b]), lincomb(J[b], K[a], n)
            diff = vsub(xy, lhs)
            if not contains_dense(d.H, diff):
                w2.append(witness(x=fmt_vec(names, x, sh), y=fmt_vec(names, basis[b], sh),
                                  offending=fmt_vec(names, diff, s2)))
            jk = vsub(K[a][b], K[b][a])
            offending = tuple(sj * (e - f) - sJ * sum(z * jk[i] for i, z in row.items())
                              for e, f, row in zip(lhs, xy, j))
            if any(offending):
                w3.append(witness(x=fmt_vec(names, x, sh), y=fmt_vec(names, basis[b], sh),
                                  offending=fmt_vec(names, offending, s3)))
    rep.add("cr.condition2", not w2, w2)
    rep.add("cr.condition3", not w3, w3)
    return rep


def left_symmetric_product_dense(k: KahlerCRData) -> LeftSymmetricProduct:
    """The former `left_symmetric_product`: all m^3 entries of P from the
    inverse of G^T and a right-hand side for every pair (a, z)."""
    m, G = k.H.dim, gram_dense(k)
    si, reduced, pivots = rref([{**r, m + i: 1} for i, r in enumerate(G.transpose().ints)],
                               2 * m)
    if pivots != list(range(m)):
        raise ValueError("omega restricted to H is degenerate")
    inverse = [{c - m: G.scale * x for c, x in r.items() if c >= m} for r in reduced]
    om, H, (sB, B) = k.omega_matrix, k.H, h_brackets_dense(k.cr)
    rows = dict(enumerate(om.ints))
    R = [contraction([(1, h, rows)]) for h in H.ints]
    P = [[[sum(x * rhs[z] for z, x in row.items()) for row in inverse]
          for rhs in ([-sum(x * v[t] for t, x in r.items()) for v in brackets] for r in R)]
         for brackets in B]
    return product_from_dense_ints(H, si * om.scale * H.scale * sB, P)


def check_left_symmetric_dense(k: KahlerCRData, p: LeftSymmetricProduct) -> Report:
    """The former `check_left_symmetric`: the dense tables P and C = P - P^T,
    identity (1) on all m^2 pairs."""
    rep = Report()
    m, n, s, P = k.H.dim, k.algebra.dim, p.scale, dense_product(p)
    fmt = [fmt_vec(k.algebra.names, h, k.H.scale) for h in k.H.ints]
    C = table_from_dense_ints([[vsub(P[a][b], P[b][a]) for b in range(m)] for a in range(m)])
    (sB, B), (sU, U), G = h_brackets_dense(k.cr), omega_images_dense(k), gram_dense(k)
    gram = dict(enumerate(G.ints))
    images = {i: {t: u[i] for t, u in enumerate(U) if u[i]} for i in range(n)}
    w1 = []
    for a in range(m):
        for b in range(m):
            d = contraction([(sB * sU, C.rows[a].get(b, {}), gram),
                             (-s * G.scale, sparse(B[a][b]), images)])
            w1.extend(witness(x=fmt[a], y=fmt[b], u=fmt[t]) for t in sorted(d) if d[t])
    rep.add("leftsym.identity1", not w1, w1)
    jac = [witness(x=fmt[a], y=fmt[b], z=fmt[c]) for _, (a, b, c) in C.violations()]
    rep.add("leftsym.jacobi_induced", not jac, jac)
    if not jac:
        prod, comm = table_from_dense_ints(P).rows, C.rows
        cols = [{d: prod[d][c] for d in range(m) if c in prod[d]} for c in range(m)]
        failing = [(a, b, c) for a in range(m) for b in range(a + 1, m) for c in range(m)
                   if any(contraction(((1, prod[b].get(c, {}), prod[a]),
                                       (-1, prod[a].get(c, {}), prod[b]),
                                       (-1, comm[a].get(b, {}), cols[c]))).values())]
        w2 = [witness(x=fmt[a], y=fmt[b], z=fmt[c])
              for a, b, c in sorted(failing + [(b, a, c) for a, b, c in failing])]
        rep.add("leftsym.identity2", not w2, w2)
    return rep


def omega_radical_dense(k: KahlerCRData):
    """The former `omega_radical`: <x, h_b> through the dense images of H
    under the metric."""
    rep = Report()
    L, H, names = k.radical, k.H, k.algebra.names
    rep.add("radical.subalgebra", k.algebra.is_subalgebra(L))
    images = [[sum(x * h.get(i, 0) for i, x in row.items()) for row in k.metric.ints]
              for h in H.ints]
    orth = [witness(x=fmt_vec(names, x, L.scale), h=fmt_vec(names, h, H.scale))
            for x in L.ints for h, image in zip(H.ints, images)
            if sum(e * image[i] for i, e in x.items())]
    rep.add("radical.orthogonal_h", not orth, orth)
    return L, rep


def center_U_dense(k: KahlerCRData):
    """The former `center_U`: dense integer brackets, every u bracketed with
    itself too, and membership by `contains_dense`."""
    rep = Report()
    alg, H, names = k.algebra, k.H, k.algebra.names
    zh = alg.center().intersect(H)
    cols = dict(enumerate(k.j.transpose().ints))
    U = Subspace.from_ints(alg.dim, [*zh.ints, *(contraction([(1, z, cols)]) for z in zh.ints)])
    s_uu, s_uh = alg.table.scale * U.scale * U.scale, alg.table.scale * U.scale * H.scale
    comm = []
    for a, x in enumerate(U.ints):
        for y in U.ints[a:]:
            b = bracket_ints_dense(alg, x, y)
            if any(b):
                comm.append(witness(x=fmt_vec(names, x, U.scale), y=fmt_vec(names, y, U.scale),
                                    offending=fmt_vec(names, b, s_uu)))
    rep.add("center_u.commutative", not comm, comm)
    stab = []
    for z in U.ints:
        for h in H.ints:
            b = bracket_ints_dense(alg, z, h)
            if not contains_dense(H, b):
                stab.append(witness(z=fmt_vec(names, z, U.scale), h=fmt_vec(names, h, H.scale),
                                    offending=fmt_vec(names, b, s_uh)))
    rep.add("center_u.stabilizes_h", not stab, stab)
    return U, rep


# -- the former parse conversion -----------------------------------------------

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
    rationals, each converted the former way: {"table": (scale, rows),
    "H", "U", "ideal": Subspace, "j", "metric": Matrix, "lambda", "r":
    Bivector, "alpha": {(a, b): (s, ints)}}, for the blocks present."""
    dim = doc["algebra"]["dim"]
    given = {}
    for e in doc["algebra"].get("brackets", []):
        i, j, v = e["x"] - 1, e["y"] - 1, vector(e["result"])
        given[(i, j)], given[(j, i)] = v, tuple(-x for x in v)
    out = {"table": table_over_fractions(dim, given)}

    def subspace(rows):
        return Subspace.from_ints(dim, scaled_sparse([vector(r) for r in rows])[1])

    def matrix(rows):
        return Matrix.from_ints(dim, *scaled_sparse([vector(r) for r in rows]))

    def bivector(entries):
        coeffs = {}
        for e in entries:
            ij = (e["i"] - 1, e["j"] - 1)
            coeffs[ij] = coeffs.get(ij, 0) + rat(e["coeff"])
        return Bivector(dim, coeffs)

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
        out["alpha"] = {}
        for e in doc["extension"].get("alpha", []):
            s, (ints,) = scaled_sparse([vector(e["result"])])
            out["alpha"][(e["x"] - 1, e["y"] - 1)] = (s, ints)
    return out
