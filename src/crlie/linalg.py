"""Exact linear algebra over the rationals, computed on integers.

Identities are checked against literal zero -- no tolerances anywhere.  A
`Matrix` is kept as sparse integer rows over one scale, the least common
denominator of its entries, and a `Subspace` as its reduced row-echelon
basis in the same form plus its pivots.  Both forms are canonical, so
equality is a comparison; `__eq__` and `__hash__` are kept as library API.
Vectors inside the library are sparse integer rows {k: x} over their
nonzero entries, as `Subspace.reduce` and `contains` take them.

Two kernels do the library's sparse integer arithmetic, and the cost of each
follows the entries it reads, not the size of the space: `contraction` sums
sparse vectors against rows of a table (a bracket, a matrix product, a map
applied to a vector), and `remainder` reduces a vector against rows keyed by
their pivot columns, visiting only the vector's own entries.  `pack` makes a
vector one integer (Kronecker substitution: D. Harvey, J. Symbolic Comput.
44 (2009) 1502-1510), so that a combination of vectors is one big-integer
expression.  One fraction-free Gauss-Jordan elimination, `_echelon`, built
on `remainder`, serves `Subspace.supplements`, the leading minors and,
except on monomial rows (whose reduced form `rref` reads off their
columns, and whose systems `solve` reads off row by row), `rref`, `kernel`,
`solve` and the Killing form's rank: Bareiss's
exact division (Math. Comp. 22 (1968) 565-578) in the Gauss-Jordan form of
Nakos, Turner and Williams (ACM SIGSAM Bull. 31(3), 1997).  Rationals are
read by `read_row`, straight into one integer row over its least common
denominator; `Fraction` appears there only for a spelling other than the
canonical ones, and otherwise only where an entry or a dense vector is handed
out (and where such a `Fraction` is formatted).
"""

from __future__ import annotations

from decimal import Decimal
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
            f = Fraction(x)
            str(f)  # raises past the int-string limit, so "1e5000" is read as its digits are
        except (ValueError, ZeroDivisionError) as e:
            raise ValueError(f"malformed rational {x!r}: {e}") from None
        return f
    raise ValueError(f"not a rational: {x!r}")


def format_rat(q, scale: int = 1) -> str:
    """Serialize q / scale, for a rational q and a scale >= 1, as "p/q", or
    "p" when the denominator is 1; an int q is reduced by its gcd with scale.
    An integer past the int-string limit is spelled by `Decimal`, exactly."""
    if isinstance(q, int):
        g = gcd(q, scale)
        p, d = q // g, scale // g
    else:
        q = Fraction(q, scale)
        p, d = q.numerator, q.denominator
    try:
        return str(p) if d == 1 else f"{p}/{d}"
    except ValueError:  # past sys.get_int_max_str_digits(); Decimal spells an int exactly
        return str(Decimal(p)) if d == 1 else f"{Decimal(p)}/{Decimal(d)}"


def format_terms(terms: Iterable, scale: int = 1) -> str:
    """Render (coefficient, symbol) pairs, each coefficient divided by scale,
    as "a - 2*b + 1/2*c"; zero coefficients are skipped and an empty sum is
    "0".  Each sign comes from its coefficient, whatever the symbols read."""
    out = ""
    for coeff, symbol in terms:
        if coeff == 0:
            continue
        if out:
            out += " + " if coeff > 0 else " - "
        elif coeff < 0:
            out = "-"
        out += symbol if abs(coeff) == scale else f"{format_rat(abs(coeff), scale)}*{symbol}"
    return out or "0"


# the canonical spellings of -9..9 but 0, which most nonzero entries of a document are
_SMALL = {str(p): p for p in range(-9, 10) if p}


def read_row(entries: Iterable) -> tuple[int, dict]:
    """(s, ints) with entries[k] = ints.get(k, 0) / s exactly, where s is the
    least common denominator of the entries (1 when all vanish) and
    ints = {k: x} keeps the nonzero ones.

    The canonical spellings -- ints other than bool, and strings "p", "-p",
    "p/q" and "-p/q" of ASCII digits with q != 0 -- are read with int(), the
    strings "-9" to "9" from a table.  Every other value, and one whose int()
    raises (too many digits), goes through `rat`, so what is accepted, and
    the error for what is not, are exactly those of `Fraction`."""
    if isinstance(entries, (str, dict)):
        kind = "string" if isinstance(entries, str) else "object"
        raise TypeError(f"expected a list of rationals, not the {kind} {entries!r}")
    ints, dens, small = {}, {}, _SMALL.get
    for k, e in enumerate(entries):
        if e == "0":  # most entries of a sparse document; it adds nothing
            continue
        p = small(e) if type(e) is str else None
        if p:
            ints[k] = p
            continue
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


def contraction(terms) -> dict:
    """sum_{(sign, x, rows) in terms} sign * sum_l x[l] rows[l] as its nonzero
    entries {m: int}, for sparse integer vectors x = {l: int} and
    rows = {l: {m: int}}; a row missing from rows is zero.  Zeros are
    dropped here, so no table or vector built by it stores one."""
    acc = {}
    for sign, x, rows in terms:
        for l, xl in x.items():
            c = sign * xl
            for m, y in rows.get(l, {}).items():
                acc[m] = acc.get(m, 0) + c * y
    return {m: v for m, v in acc.items() if v}


def remainder(v: Mapping, d: int, rows: Mapping) -> dict:
    """d v - sum_p v[p] rows[p] as its nonzero entries, for a sparse integer
    vector v = {k: x} and integer rows {p: {k: x}} keyed by pivot column p.
    Only the entries of v are visited: a row whose pivot v misses adds
    nothing."""
    r = {k: d * x for k, x in v.items()}
    for p, x in v.items():
        b = rows.get(p)
        if b:
            for k, y in b.items():
                r[k] = r.get(k, 0) - x * y
    return {k: x for k, x in r.items() if x}


def pack(v: Mapping, w: int) -> int:
    """sum_k v[k] 2^(w k) for a sparse integer vector v = {k: x}: linear, so
    packed vectors combine as the vectors do.  `unpack` reads back digits
    |d_k| < 2^(w-1), as w = bound.bit_length() + 1 gives |d_k| <= bound: two
    such digit vectors of one integer would first differ at a slot k, by
    0 < |e| <= 2^w - 2, and e 2^(w k) plus multiples of 2^(w (k+1)) is not 0,
    so P = 0 iff v = 0.  {0: 2^(w-1)} and {0: -2^(w-1), 1: 1} pack alike."""
    return sum(x << (w * k) for k, x in v.items())


def unpack(P: int, w: int) -> dict:
    """The digits {k: d_k != 0} of P = sum_k d_k 2^(w k), |d_k| < 2^(w-1)."""
    v, k, half = {}, 0, 1 << (w - 1)
    while P:
        z = ((P & -P).bit_length() - 1) // w  # zero slots below the lowest set bit
        P, k = P >> w * z, k + z
        v[k] = d = ((P + half) & (2 * half - 1)) - half
        P, k = (P - d) >> w, k + 1
    return v


class Frozen:
    """Base of the read-only classes: each constructor sets its fields with
    `object.__setattr__` or `__dict__.update`, and nothing sets them after."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


# ---------------------------------------------------------------------------
# matrices

class Matrix(Frozen):
    """Rational matrix, immutable: entry (i, k) is ints[i].get(k, 0) / scale,
    where scale is the least common denominator of the entries (1 when all
    vanish) and ints[i] = {k: x} keeps the nonzero entries of row i.  The
    form is canonical, so `==` compares it.  Any shape is allowed, 0 x n and
    n x 0 included; `Matrix(rows)` reads rational rows, `from_ints` integer
    ones.  A matrix builds its transpose on first use and keeps it, so every
    reader of one matrix shares one transpose.  A product with the identity,
    in canonical form scale 1 with rows {i: 1} (row 0 settles that for almost
    any other matrix), is its other factor, as it is, with its transpose."""

    __slots__ = ("rows", "cols", "scale", "ints", "_transpose")

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
        if g != 1:
            ints = [{k: x // g for k, x in r.items()} for r in ints]
        self._set(len(ints), cols, scale // g, tuple(ints), None)

    def _set(self, *values) -> None:
        for name, value in zip(Matrix.__slots__, values):
            object.__setattr__(self, name, value)

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return Fraction(self.ints[i].get(j, 0), self.scale)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        if self._is_identity():
            return other
        if other._is_identity():
            return self
        rows = dict(enumerate(other.ints))
        return Matrix.from_ints(other.cols, self.scale * other.scale,
                                [contraction([(1, r, rows)]) for r in self.ints])

    def _is_identity(self) -> bool:
        return self.scale == 1 and self.rows == self.cols and all(
            len(r) == 1 and r.get(i) == 1 for i, r in enumerate(self.ints))

    def transpose(self) -> "Matrix":
        """Built once and kept.  It has the entries and the scale of this
        matrix, so it is canonical as it is, and its transpose is this one."""
        if self._transpose is None:
            cols = [{} for _ in range(self.cols)]
            for i, r in enumerate(self.ints):
                for k, x in r.items():
                    cols[k][i] = x
            t = object.__new__(Matrix)
            t._set(self.cols, self.rows, self.scale, tuple(cols), self)
            object.__setattr__(self, "_transpose", t)
        return self._transpose

    def first_nonpositive_minor(self) -> Optional[tuple[int, Fraction]]:
        """(k, d_k) for the first leading principal minor d_k <= 0 of a
        symmetric matrix, or None when every one is positive, read from the
        pivots of one `_echelon` of the integer matrix s M, rows in order."""
        if self.rows != self.cols:
            raise ValueError("leading minors of non-square matrix")
        if not self.is_symmetric():
            raise ValueError("leading minors of non-symmetric matrix")
        # Rows 0..k-1 took pivots 0..k-1 (by induction), so row k's remainder
        # vanishes there and its entry k is the leading minor of size k + 1 of
        # s M, that is s^(k+1) d_(k+1).  When it is zero, pivots[k] != k: row k
        # pivots at a later column or depends on the rows above it.  Then
        # symmetry makes column k the same combination sum_a c_a (column a) of
        # the columns before it, so every row-space vector has x_k = sum_a c_a
        # x_a; a reduced row, zero at pivots 0..k-1, is zero at column k too,
        # and no later row can take pivot k.
        ds, basis = _echelon(self.ints, self.cols)
        pivots = list(basis)
        for k in range(self.rows):
            if k == len(pivots) or pivots[k] != k:
                return k + 1, Fraction(0)
            if ds[k] < 0:
                return k + 1, Fraction(ds[k], self.scale ** (k + 1))
        return None

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.ints[k].get(i, 0) == x for i, r in enumerate(self.ints) for k, x in r.items())

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

def _echelon(rows: Iterable, cols: int) -> tuple[list, dict]:
    """Fraction-free Gauss-Jordan over integer rows {k: x}, one row at a time,
    stopping once every column holds a pivot.

    Returns (ds, basis): the Bareiss pivots in the order found, and the rows
    found independent, each reduced against the others, as one dict keyed by
    pivot column in the order found.  Every basis row is d times a row of the
    reduced row-echelon form of the rows seen, where d, the last of ds, is
    the determinant of the kept rows on the pivot columns, both in the order
    found.  A new row v becomes w = `remainder`(v, d, basis), which vanishes
    at every pivot; its entry k is the determinant with v and column k added,
    so it needs no division.  When w is nonzero, its first nonzero entry e,
    at column c, is the next pivot, and every basis row b becomes
    (e b - b[c] w) / d, e times a row of the new reduced form, which Cramer's
    rule makes integral: the division is exact.  A row with b[c] = 0 when
    e = d is left as it is, since (e b - 0) / d = b exactly; so the rows an
    update skips keep the entries, and the entry bound, that Bareiss's
    argument gives them, and an identity matrix is eliminated without
    rebuilding any row.
    """
    d, ds, basis = 1, [], {}
    for v in rows:
        if len(basis) == cols:
            break
        w = remainder(v, d, basis)
        if not w:
            continue
        c = min(w)
        e = w[c]
        for p, b in basis.items():
            f = b.get(c)
            if f or e != d:
                u = {k: e * x for k, x in b.items()}
                if f:
                    for k, x in w.items():
                        u[k] = u.get(k, 0) - f * x
                basis[p] = {k: x // d for k, x in u.items() if x}
        basis[c] = w
        ds.append(e)
        d = e
    return ds, basis


def rref(rows: Iterable, cols: int) -> tuple[int, list, list]:
    """The reduced row-echelon form of integer rows {k: x} in `cols` columns,
    as (s, R, pivots): its rows are R[a] / s, sorted by pivot, where s > 0 is
    their least common denominator and R[a][pivots[a]] = s.

    Monomial rows, each with at most one nonzero entry, need no elimination:
    a nonzero row x e_c spans the line of e_c, so the rows span the e_c for
    c in the set C of columns holding an entry, and the reduced form is
    those unit rows over s = 1, with pivots C."""
    rows = list(rows)
    if all(len(r) <= 1 for r in rows):
        pivots = sorted({c for r in rows for c in r})
        return 1, [{c: 1} for c in pivots], pivots
    ds, basis = _echelon(rows, cols)
    d = ds[-1] if ds else 1
    g = gcd(d, *(x for b in basis.values() for x in b.values()))
    g = -g if d < 0 else g
    pivots = sorted(basis)
    return d // g, [{k: x // g for k, x in basis[p].items()} for p in pivots], pivots


def _perp(s: int, R: Sequence, pivots: Sequence, n: int) -> list:
    """The integer vectors, one per non-pivot column f, that span the null
    space of the RREF rows R / s: s e_f - sum_a R[a][f] e_{p_a}.  Read as
    functionals they cut out the row space: v lies in it iff each vanishes."""
    free = set(range(n)).difference(pivots)
    return [{f: s, **{p: -r[f] for p, r in zip(pivots, R) if f in r}} for f in sorted(free)]


def solve(A: Matrix, b: tuple[int, Mapping]) -> Optional[tuple[int, dict]]:
    """Solve A x = y / sb exactly for b = (sb, {i: y_i}), a vector in the
    form `read_row` gives (sb > 0, zeros omitted): (s, {c: x_c}), the
    solution x / s with free variables set to zero (canonical
    representative), or None when inconsistent.  One `rref` of the integer
    system [ints | scale * y], which sb x solves.

    When every row of A holds at most one entry, no elimination is needed:
    row i reads a x_c = scale * y_i / sb for the integer entry a of
    scale * A, and a zero row reads 0 = y_i.  The system is consistent iff
    every zero row has y_i = 0 and the rows that share a column agree,
    y_i a' = y_i' a; the columns no row holds are the free variables.
    """
    n, (sb, y) = A.cols, b
    if y and max(y) >= A.rows:
        raise ValueError(f"dimension mismatch: {A.rows} rows vs rhs index {max(y)}")
    if all(len(r) <= 1 for r in A.ints):
        x = {}
        for i, r in enumerate(A.ints):
            for c, a in r.items():
                yc, ac = x.setdefault(c, (y.get(i, 0), a))
                if y.get(i, 0) * ac != yc * a:
                    return None
            if not r and i in y:
                return None
        t = lcm(*(a for yc, a in x.values() if yc))
        return sb * t, {c: A.scale * yc * (t // a) for c, (yc, a) in x.items() if yc}
    s, R, pivots = rref([{**r, n: A.scale * y[i]} if i in y else r
                         for i, r in enumerate(A.ints)], n + 1)
    if pivots and pivots[-1] == n:
        return None
    return s * sb, {p: r[n] for r, p in zip(R, pivots) if n in r}


def kernel(A: Matrix) -> "Subspace":
    """Null space of A as a canonical subspace."""
    return Subspace.from_ints(A.cols, _perp(*rref(A.ints, A.cols), A.cols))


# ---------------------------------------------------------------------------
# subspaces

class Subspace(Frozen):
    """Linear subspace, kept as its reduced row-echelon basis in integer form:
    basis vector a is ints[a] / scale, with ints[a] = {k: x} over its nonzero
    entries, scale their least common denominator, and ints[a][pivots[a]] =
    scale.  The form is canonical, so `==` compares it.  by_pivot maps each
    pivot to its basis row, the index `remainder` reads."""

    __slots__ = ("ambient_dim", "scale", "ints", "pivots", "by_pivot")

    def __init__(self, ambient_dim: int, scale: int, ints: Sequence, pivots: Sequence[int]):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "ints", tuple(ints))
        object.__setattr__(self, "pivots", tuple(pivots))
        object.__setattr__(self, "by_pivot", dict(zip(self.pivots, self.ints)))

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
        v = contraction([(1, coords, dict(enumerate(self.ints)))])
        return tuple(Fraction(v.get(k, 0), s * self.scale) for k in range(self.ambient_dim))

    def contains(self, v: Mapping) -> bool:
        """Membership of the sparse vector v = {k: x}, or of any nonzero
        multiple of it.  The whole space holds every v of its dimension."""
        if self.dim == self.ambient_dim and (not v or max(v) < self.ambient_dim):
            return True
        return not self.reduce(v)

    def reduce(self, v: Mapping) -> dict:
        """scale times the remainder of the sparse vector v = {k: x} after
        elimination against the RREF basis, scale v - sum_a v[p_a] ints[a]
        = `remainder`(v, scale, by_pivot), as its nonzero entries: none at
        the pivots, and at each other column f the value on v of the `_perp`
        functional of f.  Empty iff v is a member; integer for an integer v."""
        if v and max(v) >= self.ambient_dim:
            raise ValueError(
                f"dimension mismatch: index {max(v)} in ambient {self.ambient_dim}")
        return remainder(v, self.scale, self.by_pivot)

    def intersect(self, other: "Subspace") -> "Subspace":
        """The common null space of the two sets of `_perp` functionals.  The
        whole space has none, so S cap G = S, and S cap 0 = 0."""
        n = self.ambient_dim
        if other.ambient_dim != n:
            raise ValueError(f"dimension mismatch: ambient {n} vs {other.ambient_dim}")
        if self.dim == n or other.dim == 0:
            return other
        if other.dim == n or self.dim == 0:
            return self
        return kernel(Matrix.from_ints(n, 1, _perp(self.scale, self.ints, self.pivots, n)
                                       + _perp(other.scale, other.ints, other.pivots, n)))

    def supplements(self, other: "Subspace") -> bool:
        """Whether self + other is the whole space, direct.  The remainders of
        other's basis against self span self + other together with self, and
        vanish at self's pivots, so dim (self + other) = dim self + their rank."""
        n = self.ambient_dim
        return (other.ambient_dim == n and self.dim + other.dim == n
                and len(_echelon(map(self.reduce, other.ints), n)[1]) == other.dim)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.scale == other.scale and self.ints == other.ints)

    def __hash__(self):
        return hash((self.ambient_dim, self.scale, self.pivots))

    def __repr__(self):
        rows = "; ".join(" ".join(format_rat(e) for e in v) for v in self.basis)
        return f"Subspace(dim {self.dim} of {self.ambient_dim}: {rows})"
