"""Exact linear algebra over the rationals, computed on integers.

Identities are checked against literal zero -- no tolerances anywhere.  A
`Matrix` is kept as sparse integer rows over one scale, the least common
denominator of its entries, and a `Subspace` as its reduced row-echelon
basis in the same form plus its pivots.  Both forms are canonical, so
equality is a comparison; `__eq__` and `__hash__` are kept as library API.
Vectors inside the library are sparse integer rows {k: x} over their
nonzero entries, as `Subspace.reduce` and `contains` take them.  One
fraction-free Gauss-Jordan elimination, `_echelon`, serves `rref`,
`kernel`, `solve` and `det`: Bareiss's exact division (Math. Comp. 22
(1968) 565-578) in the Gauss-Jordan form of Nakos, Turner and Williams
(ACM SIGSAM Bull. 31(3), 1997).  Rationals are read by
`read_row`, straight into one integer row over its least common
denominator; `Fraction` appears there only for a spelling other than the
canonical ones, and otherwise only where an entry or a dense vector is
handed out (and where such a `Fraction` is formatted).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence

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


def format_rat(q, scale: int = 1) -> str:
    """Serialize q / scale, for a rational q and a scale >= 1, as "p/q", or
    "p" when the denominator is 1; an int q is reduced by its gcd with scale."""
    if isinstance(q, int):
        g = gcd(q, scale)
        p, d = q // g, scale // g
    else:
        q = Fraction(q, scale)
        p, d = q.numerator, q.denominator
    return str(p) if d == 1 else f"{p}/{d}"


def format_terms(terms: Iterable, scale: int = 1) -> str:
    """Render (coefficient, symbol) pairs, each coefficient divided by scale,
    as "a - 2*b + 1/2*c"; zero coefficients are skipped and an empty sum is
    "0"."""
    out = []
    for coeff, symbol in terms:
        if coeff == 0:
            continue
        if coeff == scale:
            out.append(symbol)
        elif coeff == -scale:
            out.append(f"-{symbol}")
        else:
            out.append(f"{format_rat(coeff, scale)}*{symbol}")
    return " + ".join(out).replace("+ -", "- ") if out else "0"


def read_row(entries: Iterable) -> tuple[int, dict]:
    """(s, ints) with entries[k] = ints.get(k, 0) / s exactly, where s is the
    least common denominator of the entries (1 when all vanish) and
    ints = {k: x} keeps the nonzero ones.

    The canonical spellings -- ints other than bool, and strings "p", "-p",
    "p/q" and "-p/q" of ASCII digits with q != 0 -- are read with int().
    Every other value, and one whose int() raises (too many digits), goes
    through `rat`, so what is accepted, and the error for what is not, are
    exactly those of `Fraction`."""
    if isinstance(entries, (str, dict)):
        kind = "string" if isinstance(entries, str) else "object"
        raise TypeError(f"expected a list of rationals, not the {kind} {entries!r}")
    ints, dens = {}, {}
    for k, e in enumerate(entries):
        if type(e) is int:
            p, q = e, 1
        else:
            p = q = 0
            if type(e) is str and e.isascii():
                num, slash, den = e.partition("/")
                if (num[1:] if num[:1] == "-" else num).isdigit() and (not slash or den.isdigit()):
                    try:
                        p, q = int(num), int(den) if slash else 1
                    except ValueError:  # more digits than int() reads
                        pass
            if not q:
                f = rat(e)
                p, q = f.numerator, f.denominator
        if p:
            if q != 1:
                g = gcd(p, q)
                p, q = p // g, q // g
                if q != 1:
                    dens[k] = q
            ints[k] = p
    if not dens:
        return 1, ints
    s = lcm(*dens.values())
    return s, {k: x * (s // dens.get(k, 1)) for k, x in ints.items()}


def common_scale(rows: Iterable[tuple[int, dict]]) -> tuple[int, list]:
    """(s, ints) for rows r_i / t_i given as pairs (t_i, r_i) of a positive
    scale and integer entries {key: x}: s is the lcm of the t_i and
    ints[i] = (s / t_i) r_i, so that row i is ints[i] / s."""
    rows = list(rows)
    s = lcm(*(t for t, _ in rows))
    return s, [r if t == s else {k: x * (s // t) for k, x in r.items()} for t, r in rows]


# ---------------------------------------------------------------------------
# matrices

class Matrix:
    """Rational matrix, immutable: entry (i, k) is ints[i].get(k, 0) / scale,
    where scale is the least common denominator of the entries (1 when all
    vanish) and ints[i] = {k: x} keeps the nonzero entries of row i.  The
    form is canonical, so `==` compares it.  Any shape is allowed, 0 x n and
    n x 0 included; `Matrix(rows)` reads rational rows, `from_ints` integer
    ones."""

    __slots__ = ("rows", "cols", "scale", "ints")

    def __init__(self, rows_data: Iterable[Iterable]):
        rows_data = list(rows_data)
        read = [read_row(row) for row in rows_data]
        cols = len(rows_data[0]) if rows_data else 0
        if any(len(r) != cols for r in rows_data):
            raise ValueError("ragged matrix rows")
        self._store(cols, *common_scale(read))

    @classmethod
    def from_ints(cls, cols: int, scale: int, ints: Iterable) -> "Matrix":
        """The matrix with entry (i, k) ints[i].get(k, 0) / scale, for integer
        rows {k: x} and a nonzero integer scale, put in lowest terms."""
        m = object.__new__(cls)
        m._store(cols, scale, ints)
        return m

    def _store(self, cols: int, scale: int, ints: Iterable) -> None:
        ints = [{k: x for k, x in r.items() if x} for r in ints]
        g = gcd(scale, *(x for r in ints for x in r.values()))
        g = -g if scale < 0 else g
        for name, value in (("rows", len(ints)), ("cols", cols), ("scale", scale // g),
                            ("ints", tuple({k: x // g for k, x in r.items()} for r in ints))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return Fraction(self.ints[i].get(j, 0), self.scale)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        out = []
        for r in self.ints:
            acc = {}
            for t, x in r.items():
                for k, y in other.ints[t].items():
                    acc[k] = acc.get(k, 0) + x * y
            out.append(acc)
        return Matrix.from_ints(other.cols, self.scale * other.scale, out)

    def transpose(self) -> "Matrix":
        cols = [{} for _ in range(self.cols)]
        for i, r in enumerate(self.ints):
            for k, x in r.items():
                cols[k][i] = x
        return Matrix.from_ints(self.rows, self.scale, cols)

    def det(self) -> Fraction:
        """d / scale^n for the last Bareiss pivot d of `_echelon`, which is
        the determinant with the columns in the order the pivots were found;
        sorting them back is a permutation, whose sign the inversions give."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        d, _, pivots = _echelon(self.ints, self.cols)
        if len(pivots) < self.rows:
            return Fraction(0)
        inversions = sum(p > q for i, p in enumerate(pivots) for q in pivots[i + 1:])
        return Fraction((-1) ** inversions * d, self.scale ** self.rows)

    def first_nonpositive_minor(self) -> Optional[tuple[int, Fraction]]:
        """(k, d_k) for the first leading principal minor d_k <= 0, or None
        when every one is positive.  One fraction-free Bareiss pass without
        pivoting over the integer matrix s M: its k-th pivot is the k-th
        leading minor of s M, i.e. s^k d_k (Sylvester), and every division
        in the update is exact."""
        if self.rows != self.cols:
            raise ValueError("leading minors of non-square matrix")
        s, n = self.scale, self.rows
        a = [[r.get(k, 0) for k in range(n)] for r in self.ints]
        prev = 1
        for k in range(n):
            pivot = a[k][k]
            if pivot <= 0:
                return k + 1, Fraction(pivot, s ** (k + 1))
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            prev = pivot
        return None

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.ints[k].get(i, 0) == x for i, r in enumerate(self.ints) for k, x in r.items())

    @staticmethod
    def block_diag(a: "Matrix", b: "Matrix") -> "Matrix":
        return Matrix.from_ints(
            a.cols + b.cols, a.scale * b.scale,
            [{k: x * b.scale for k, x in r.items()} for r in a.ints]
            + [{k + a.cols: x * a.scale for k, x in r.items()} for r in b.ints])

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.scale == other.scale
                and self.ints == other.ints)

    def __repr__(self):
        body = "; ".join(" ".join(format_rat(self[i, k]) for k in range(self.cols))
                         for i in range(self.rows))
        return f"Matrix[{body}]"


# ---------------------------------------------------------------------------
# row reduction

def _echelon(rows: Iterable, cols: int) -> tuple[int, list, list]:
    """Fraction-free Gauss-Jordan over integer rows {k: x}, one row at a time,
    stopping once every column holds a pivot.

    Returns (d, basis, pivots): the rows found independent, in the order they
    came, each reduced against the others, and their pivot columns.  Every
    basis row is d times a row of the reduced row-echelon form of the rows
    seen, where d is the determinant of the kept rows on the pivot columns,
    both in the order found (Bareiss's pivot).  A new row v becomes
    w = d v - sum_a v[p_a] b_a, which vanishes at every pivot; its entry k is
    the determinant with v and column k added, so it needs no division.
    When w is nonzero, its first nonzero entry e, at column c, is the next
    pivot, and every basis row b becomes (e b - b[c] w) / d, e times a row of
    the new reduced form, which Cramer's rule makes integral: the division is
    exact.
    """
    d, basis, pivots = 1, [], []
    for v in rows:
        if len(pivots) == cols:
            break
        w = {k: d * x for k, x in v.items()}
        for p, b in zip(pivots, basis):
            f = v.get(p)
            if f:
                for k, x in b.items():
                    w[k] = w.get(k, 0) - f * x
        w = {k: x for k, x in w.items() if x}
        if not w:
            continue
        c = min(w)
        e = w[c]
        for i, b in enumerate(basis):
            f = b.get(c, 0)
            u = {k: e * x for k, x in b.items()}
            for k, x in w.items():
                u[k] = u.get(k, 0) - f * x
            basis[i] = {k: x // d for k, x in u.items() if x}
        basis.append(w)
        pivots.append(c)
        d = e
    return d, basis, pivots


def rref(rows: Iterable, cols: int) -> tuple[int, list, list]:
    """The reduced row-echelon form of integer rows {k: x} in `cols` columns,
    as (s, R, pivots): its rows are R[a] / s, sorted by pivot, where s > 0 is
    their least common denominator and R[a][pivots[a]] = s."""
    d, basis, pivots = _echelon(rows, cols)
    g = gcd(d, *(x for b in basis for x in b.values()))
    g = -g if d < 0 else g
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return (d // g, [{k: x // g for k, x in basis[a].items()} for a in order],
            [pivots[a] for a in order])


def _perp(s: int, R: Sequence, pivots: Sequence, n: int) -> list:
    """The integer vectors, one per non-pivot column f, that span the null
    space of the RREF rows R / s: s e_f - sum_a R[a][f] e_{p_a}.  Read as
    functionals they cut out the row space: v lies in it iff each vanishes."""
    free = set(range(n)).difference(pivots)
    return [{f: s, **{p: -r[f] for p, r in zip(pivots, R) if f in r}} for f in sorted(free)]


def solve(A: Matrix, b: Sequence) -> Optional[Vector]:
    """Solve A x = b exactly, for a rational b.

    Returns None when inconsistent; with a positive-dimensional solution
    space, free variables are set to zero (canonical representative).  One
    `rref` of the integer system [ints | scale * sb * b], with sb the least
    common denominator of b, which sb x solves.
    """
    if A.rows != len(b):
        raise ValueError(f"dimension mismatch: {A.rows} rows vs rhs of {len(b)}")
    n, (sb, bi) = A.cols, read_row(b)
    s, R, pivots = rref([{**r, n: A.scale * bi[i]} if i in bi else r
                         for i, r in enumerate(A.ints)], n + 1)
    if pivots and pivots[-1] == n:
        return None
    x = [Fraction(0)] * n
    for r, p in zip(R, pivots):
        x[p] = Fraction(r.get(n, 0), s * sb)
    return tuple(x)


def kernel(A: Matrix) -> "Subspace":
    """Null space of A as a canonical subspace."""
    return Subspace.from_ints(A.cols, _perp(*rref(A.ints, A.cols), A.cols))


# ---------------------------------------------------------------------------
# subspaces

class Subspace:
    """Linear subspace, kept as its reduced row-echelon basis in integer form:
    basis vector a is ints[a] / scale, with ints[a] = {k: x} over its nonzero
    entries, scale their least common denominator, and ints[a][pivots[a]] =
    scale.  The form is canonical, so `==` compares it."""

    __slots__ = ("ambient_dim", "scale", "ints", "pivots")

    def __init__(self, ambient_dim: int, scale: int, ints: Sequence, pivots: Sequence[int]):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "ints", tuple(ints))
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def span(cls, vectors: Iterable, ambient_dim: int) -> "Subspace":
        """The span of rational vectors, each read by `read_row`."""
        vectors = list(vectors)
        ints = [read_row(v)[1] for v in vectors]
        if any(len(v) != ambient_dim for v in vectors):
            raise ValueError(f"row of wrong dimension (ambient is {ambient_dim})")
        return cls.from_ints(ambient_dim, ints)

    @classmethod
    def from_ints(cls, ambient_dim: int, rows: Iterable) -> "Subspace":
        """The span of integer vectors {k: x}."""
        return cls(ambient_dim, *rref(rows, ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def basis(self) -> tuple:
        """The RREF basis as rational vectors."""
        return tuple(self.member({a: 1}) for a in range(self.dim))

    def member(self, coords, s: int = 1) -> Vector:
        """The rational vector sum_a coords[a] h_a / s, for integer
        coordinates {a: x} on the RREF basis h_a."""
        acc = [0] * self.ambient_dim
        for a, c in coords.items():
            if c:
                for k, x in self.ints[a].items():
                    acc[k] += c * x
        return tuple(Fraction(x, s * self.scale) for x in acc)

    def contains(self, v: Mapping) -> bool:
        """Membership of the sparse vector v = {k: x}, or of any nonzero
        multiple of it."""
        return not self.reduce(v)

    def reduce(self, v: Mapping) -> dict:
        """scale times the remainder of the sparse vector v = {k: x} after
        elimination against the RREF basis, s v - sum_a v[p_a] ints[a], as
        its nonzero entries: none at the pivots, and at each other column f
        the value on v of the `_perp` functional of f.  Empty iff v is a
        member; integer for an integer v."""
        if v and max(v) >= self.ambient_dim:
            raise ValueError(
                f"dimension mismatch: index {max(v)} in ambient {self.ambient_dim}")
        r = {k: self.scale * x for k, x in v.items()}
        for p, h in zip(self.pivots, self.ints):
            f = v.get(p)
            if f:
                for k, x in h.items():
                    r[k] = r.get(k, 0) - f * x
        return {k: x for k, x in r.items() if x}

    def intersect(self, other: "Subspace") -> "Subspace":
        """The common null space of the two sets of `_perp` functionals."""
        n = self.ambient_dim
        if other.ambient_dim != n:
            raise ValueError(f"dimension mismatch: ambient {n} vs {other.ambient_dim}")
        return kernel(Matrix.from_ints(n, 1, _perp(self.scale, self.ints, self.pivots, n)
                                       + _perp(other.scale, other.ints, other.pivots, n)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.scale == other.scale and self.ints == other.ints)

    def __hash__(self):
        return hash((self.ambient_dim, self.scale, self.pivots))

    def __repr__(self):
        rows = "; ".join(" ".join(format_rat(e) for e in v) for v in self.basis)
        return f"Subspace(dim {self.dim} of {self.ambient_dim}: {rows})"
