"""Exact linear algebra over the rationals.

Everything downstream computes with `fractions.Fraction`, so identities are
checked against literal zero -- no tolerances anywhere.  Subspaces are kept in
reduced row-echelon form, which makes equality and membership decidable by
direct comparison.  The hot contractions run on `scaled` integer forms: a
table times the least common denominator of its entries.  Every identity
they test is homogeneous, so the scale cannot change a zero test.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

Rational = Fraction
Vector = tuple[Fraction, ...]


def rat(x) -> Fraction:
    """Coerce an int, string "p/q" (or "p"), or Fraction to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ValueError(f"not a rational: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise ValueError(f"malformed rational {x!r}: {e}") from None
    raise ValueError(f"not a rational: {x!r}")


def format_rat(q: Fraction) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_terms(terms: Iterable) -> str:
    """Render (coefficient, symbol) pairs as "a - 2*b + 1/2*c"; zero
    coefficients are skipped and an empty sum is "0"."""
    out = []
    for coeff, symbol in terms:
        if coeff == 0:
            continue
        if coeff == 1:
            out.append(symbol)
        elif coeff == -1:
            out.append(f"-{symbol}")
        else:
            out.append(f"{format_rat(coeff)}*{symbol}")
    return " + ".join(out).replace("+ -", "- ") if out else "0"


# ---------------------------------------------------------------------------
# vectors

def vector(entries: Iterable) -> Vector:
    return tuple(rat(e) for e in entries)


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def basis_vector(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if k == i else 0) for k in range(n))


def vadd(x: Vector, y: Vector) -> Vector:
    _same_dim(x, y)
    return tuple(a + b for a, b in zip(x, y))


def vsub(x: Vector, y: Vector) -> Vector:
    _same_dim(x, y)
    return tuple(a - b for a, b in zip(x, y))


def vscale(c, x: Vector) -> Vector:
    c = rat(c)
    return tuple(c * a for a in x)


def vdot(x: Vector, y: Vector) -> Fraction:
    """sum_i x_i y_i, skipping terms with a zero factor."""
    _same_dim(x, y)
    return sum((a * b for a, b in zip(x, y) if a and b), Fraction(0))


def lincomb(coeffs: Iterable, vectors: Iterable[Vector], n: int) -> Vector:
    """sum_i coeffs[i] * vectors[i] in dimension n, skipping zero terms; exact
    for rational and integer entries alike."""
    acc = [0] * n
    for c, v in zip(coeffs, vectors):
        if c:
            for k, e in enumerate(v):
                if e:
                    acc[k] += c * e
    return tuple(acc)


def bilinear(table, x: Vector, y: Vector, n: int) -> Vector:
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


def scaled(rows: Iterable[Iterable]) -> tuple[int, list]:
    """(s, ints) with rows[i][k] = ints[i][k] / s exactly, where s is the least
    common denominator of the entries (1 when there are none)."""
    rows = [tuple(r) for r in rows]
    s = lcm(*(e.denominator for r in rows for e in r))
    return s, [tuple(e.numerator * (s // e.denominator) for e in r) for r in rows]


def scaled_sparse(rows: Iterable[Iterable]) -> tuple[int, list]:
    """`scaled`, each integer row kept as {k: x} over its nonzero entries."""
    s, ints = scaled(rows)
    return s, [{k: x for k, x in enumerate(r) if x} for r in ints]


def unscaled(v: Iterable[int], s: int) -> Vector:
    """The rational vector v / s."""
    return tuple(Fraction(x, s) for x in v)


def is_zero(x: Vector) -> bool:
    return all(a == 0 for a in x)


def _same_dim(x: Sequence, y: Sequence) -> None:
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")


# ---------------------------------------------------------------------------
# matrices

class Matrix:
    """Dense rational matrix, immutable, row-major; without rows it is 0 x 0."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows_data: Iterable[Iterable]):
        data = tuple(vector(row) for row in rows_data)
        cols = len(data[0]) if data else 0
        if any(len(r) != cols for r in data):
            raise ValueError("ragged matrix rows")
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([basis_vector(n, i) for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([zero_vector(cols)] * rows)

    @classmethod
    def from_columns(cls, cols: Sequence[Vector]) -> "Matrix":
        return cls(list(zip(*cols)))

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.data[i][j]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.data)

    def matvec(self, x: Vector) -> Vector:
        if len(x) != self.cols:
            raise ValueError(f"dimension mismatch: {self.cols} cols vs vector of {len(x)}")
        return tuple(vdot(r, x) for r in self.data)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        return Matrix([[vdot(r, other.column(j)) for j in range(other.cols)]
                       for r in self.data])

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in matrix sum")
        return Matrix([vadd(a, b) for a, b in zip(self.data, other.data)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in matrix difference")
        return Matrix([vsub(a, b) for a, b in zip(self.data, other.data)])

    def scale(self, c) -> "Matrix":
        return Matrix([vscale(c, r) for r in self.data])

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.data)))

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        return sum((self.data[i][i] for i in range(self.rows)), Fraction(0))

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        m = [list(r) for r in self.data]
        n = self.rows
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

    def first_nonpositive_minor(self) -> Optional[tuple[int, Fraction]]:
        """(k, d_k) for the first leading principal minor d_k <= 0, or None
        when every one is positive.  One fraction-free Bareiss pass without
        pivoting over the integer matrix s M: its k-th pivot is the k-th
        leading minor of s M, i.e. s^k d_k (Sylvester), and every division
        in the update is exact."""
        if self.rows != self.cols:
            raise ValueError("leading minors of non-square matrix")
        s, ints = scaled(self.data)
        a = [list(r) for r in ints]
        prev = 1
        for k in range(self.rows):
            pivot = a[k][k]
            if pivot <= 0:
                return k + 1, Fraction(pivot, s ** (k + 1))
            for i in range(k + 1, self.rows):
                for j in range(k + 1, self.rows):
                    a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            prev = pivot
        return None

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.data[i][j] == self.data[j][i]
            for i in range(self.rows) for j in range(i + 1, self.cols))

    def is_zero(self) -> bool:
        return all(is_zero(r) for r in self.data)

    @staticmethod
    def block_diag(a: "Matrix", b: "Matrix") -> "Matrix":
        rows = []
        for r in a.data:
            rows.append(list(r) + [Fraction(0)] * b.cols)
        for r in b.data:
            rows.append([Fraction(0)] * a.cols + list(r))
        return Matrix(rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        body = "; ".join(" ".join(format_rat(e) for e in r) for r in self.data)
        return f"Matrix[{body}]"


# ---------------------------------------------------------------------------
# row reduction

def rref(rows: Sequence[Vector]) -> tuple[list[Vector], list[int]]:
    """Reduced row-echelon form; returns (nonzero rows, pivot columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    n_cols = len(m[0])
    pivots: list[int] = []
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


def solve(A: Matrix, b: Vector) -> Optional[Vector]:
    """Solve A x = b exactly.

    Returns None when inconsistent; with a positive-dimensional solution
    space, free variables are set to zero (canonical representative).
    """
    if A.rows != len(b):
        raise ValueError(f"dimension mismatch: {A.rows} rows vs rhs of {len(b)}")
    aug = [tuple(r) + (bi,) for r, bi in zip(A.data, b)]
    reduced, pivots = rref(aug)
    if A.cols in pivots:
        return None
    x = [Fraction(0)] * A.cols
    for row, p in zip(reduced, pivots):
        x[p] = row[-1]
    return tuple(x)


def kernel(A: Matrix) -> "Subspace":
    """Null space of A as a canonical subspace."""
    reduced, pivots = rref(A.data)
    free = [c for c in range(A.cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * A.cols
        v[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return Subspace.span(basis, A.cols)


# ---------------------------------------------------------------------------
# subspaces

class Subspace:
    """Linear subspace with a canonical RREF basis."""

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: Sequence[Vector], pivots: Sequence[int]):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", tuple(basis))
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def span(cls, vectors: Iterable, ambient_dim: int) -> "Subspace":
        vs = [vector(v) for v in vectors]
        for v in vs:
            if len(v) != ambient_dim:
                raise ValueError(
                    f"dimension mismatch: vector of {len(v)} in ambient {ambient_dim}")
        basis, pivots = rref(vs)
        return cls(ambient_dim, basis, pivots)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, (), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls.span([basis_vector(ambient_dim, i) for i in range(ambient_dim)],
                        ambient_dim)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Vector) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError(
                f"dimension mismatch: vector of {len(v)} in ambient {self.ambient_dim}")
        return is_zero(self.reduce(v))

    def reduce(self, v: Vector) -> Vector:
        """Remainder of v after elimination against the RREF basis.

        Zero iff v is a member; deterministic for any v.
        """
        r = list(v)
        for row, p in zip(self.basis, self.pivots):
            if r[p] != 0:
                f = r[p]
                r = [a - f * b for a, b in zip(r, row)]
        return tuple(r)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        # x = sum a_i s_i = sum b_j t_j  <=>  (a, b) in ker [S^T | -T^T]
        cols = [tuple(v) for v in self.basis] + [vscale(-1, v) for v in other.basis]
        K = kernel(Matrix.from_columns(cols))
        return Subspace.span(
            [lincomb(coeffs[: self.dim], self.basis, self.ambient_dim) for coeffs in K.basis],
            self.ambient_dim)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.span(list(self.basis) + list(other.basis), self.ambient_dim)

    def complement(self) -> "Subspace":
        """Coordinate complement: standard basis vectors at non-pivot positions."""
        return Subspace.span(
            [basis_vector(self.ambient_dim, c)
             for c in range(self.ambient_dim) if c not in self.pivots],
            self.ambient_dim)

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                f"dimension mismatch: ambient {self.ambient_dim} vs {other.ambient_dim}")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        rows = "; ".join(" ".join(format_rat(e) for e in v) for v in self.basis)
        return f"Subspace(dim {self.dim} of {self.ambient_dim}: {rows})"
