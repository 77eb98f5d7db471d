"""Lie algebras given by exact rational structure constants.

Brackets are computed by `linalg.contraction`, the sparse kernel through
which every table in crlie is read.  `LieAlgebra.__eq__` and `__hash__`
compare the canonical table; no check calls them, and they are kept as
library API.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .linalg import (
    Frozen, Matrix, Subspace, Vector, common_scale, contraction, kernel, read_row, rref,
)


class StructureError(ValueError):
    """Structure-constant tensor violates antisymmetry or Jacobi.

    `violations` holds (kind, indices) pairs, 0-based, usable as witnesses.
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        msgs = []
        for kind, idx in self.violations:
            one_based = tuple(i + 1 for i in idx)
            msgs.append(f"{kind} violated at {one_based}")
        super().__init__("; ".join(msgs))


class IntTable:
    """A bilinear table c (c[i][j] a vector, such as [e_i, e_j]) in integer
    form: c[i][j][k] = rows[i][j][k] / scale, where scale is the least common
    denominator of c and rows[i] = {j: {k: x}} keeps only the nonzero
    entries, grouped per row.  Both are canonical, so two tables hold the same
    c exactly when their dim, scale and rows agree.  The constructor takes the
    three as they are; `from_rows` and `antisymmetric` compute them from c.
    The same row form, lists of {j: {k: x}}, holds the tables on H
    in `crkahler`; `linalg.contraction` reads any table in it."""

    __slots__ = ("dim", "scale", "rows")

    def __init__(self, dim: int, scale: int, rows: list):
        self.dim, self.scale, self.rows = dim, scale, rows

    @classmethod
    def from_rows(cls, dim: int, entries: Mapping[tuple[int, int], tuple[int, dict]]) -> "IntTable":
        """The table with c[i][j] = ints / s for entries[(i, j)] = (s, ints),
        a vector in the form `read_row` gives, and zero at every pair not
        listed."""
        nonzero = [(ij, v) for ij, v in sorted(entries.items()) if v[1]]
        scale, ints = common_scale(v for _, v in nonzero)
        rows = [{} for _ in range(dim)]
        for ((i, j), _), r in zip(nonzero, ints):
            rows[i][j] = r
        return cls(dim, scale, rows)

    @classmethod
    def antisymmetric(cls, dim: int,
                      entries: Mapping[tuple[int, int], tuple[int, dict]]) -> "IntTable":
        """The table with c[i][j] = entries[(i, j)] and c[j][i] = -c[i][j],
        mirrored by negating the integers; a pair listed both ways must be
        listed antisymmetric."""
        mirrored = dict(entries)
        for (i, j), (s, v) in entries.items():
            mirrored[(j, i)] = (s, {k: -x for k, x in v.items()})
        return cls.from_rows(dim, mirrored)

    def triples(self) -> list:
        """The triples i < j < k, in lexicographic order, on which some entry
        c[a][b] with a, b two of the indices is nonzero.  A sum of terms that
        each carry such an entry as a factor vanishes on every other triple."""
        return sorted({tuple(sorted((i, j, k)))
                       for i, row in enumerate(self.rows) for j in row if i < j
                       for k in range(self.dim) if k != i and k != j})

    def violations(self) -> list:
        """Antisymmetry violations (i, j), i <= j; when there are none, Jacobi
        violations (i, j, k), i < j < k; each kind in lexicographic order."""
        rows = self.rows
        pairs = sorted({(min(i, j), max(i, j)) for i, row in enumerate(rows) for j in row})
        bad = [("antisymmetry", (i, j)) for i, j in pairs
               if rows[i].get(j, {}) != {k: -x for k, x in rows[j].get(i, {}).items()}]
        if bad:
            return bad
        return [("jacobi", t) for t in self.triples() if cyclic_nonzero(rows, rows, *t)]


def cyclic_nonzero(inner, outer, i: int, j: int, k: int) -> bool:
    """Whether sum_l inner[b][c][l] outer[a][l], summed over the cyclic
    orderings (a, b, c) of (i, j, k), is nonzero, for tables in the form of
    `IntTable.rows`.  With inner = outer = c it is the Jacobiator
    [e_i,[e_j,e_k]] + [e_k,[e_i,e_j]] + [e_j,[e_k,e_i]], as
    [e_a, sum_l x_l e_l] = sum_l x_l c[a][l]."""
    return bool(contraction(
        (1, inner[b].get(c, {}), outer[a]) for a, b, c in ((i, j, k), (k, i, j), (j, k, i))))


class LieAlgebra(Frozen):
    """Finite-dimensional real Lie algebra over exact rational coordinates.

    The bracket is held only as `table`, the `IntTable` of its structure
    constants c[i][j] = [e_i, e_j], so storage and parsing follow the nonzero
    brackets.  Construction rejects a table violating antisymmetry or the
    Jacobi identity unless `validate` is false.
    """

    __slots__ = ("dim", "names", "table", "_killing", "_semisimple")

    def __init__(self, c: IntTable, names: Optional[Sequence[str]] = None,
                 validate: bool = True):
        if names is None:
            names = [f"e{i + 1}" for i in range(c.dim)]
        if len(names) != c.dim:
            raise ValueError("need one name per basis vector")
        if validate:
            bad = c.violations()
            if bad:
                raise StructureError(bad)
        object.__setattr__(self, "dim", c.dim)
        object.__setattr__(self, "names", tuple(names))
        object.__setattr__(self, "table", c)
        object.__setattr__(self, "_killing", None)
        object.__setattr__(self, "_semisimple", None)

    @classmethod
    def from_brackets(cls, dim: int, brackets: Mapping[tuple[int, int], Iterable],
                      names: Optional[Sequence[str]] = None) -> "LieAlgebra":
        """Build from a sparse table {(i, j): [e_i, e_j]} with i < j, 0-based."""
        entries = {}
        for (i, j), v in brackets.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket indices out of range or not i<j: {(i, j)}")
            entries[(i, j)] = read_row(v)
            if len(v) != dim:
                raise ValueError(f"bracket value at {(i, j)} has wrong dimension")
        return cls(IntTable.antisymmetric(dim, entries), names=names)

    # -- basic operations --------------------------------------------------

    def bracket(self, x: Vector, y: Vector) -> Vector:
        """sum_{i,j} x_i y_j c[i][j], over the nonzero entries of the table."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("dimension mismatch in bracket")
        acc = self.bracket_ints(*({i: e for i, e in enumerate(v) if e} for v in (x, y)))
        return tuple(Fraction(acc.get(k, 0), self.table.scale) for k in range(self.dim))

    def bracket_ints(self, x: Mapping, y: Mapping) -> dict:
        """table.scale [x, y] as its nonzero entries {k: z}, for sparse vectors
        {i: x_i}: integer for integer x and y."""
        rows = self.table.rows
        return contraction((xi, y, rows[i]) for i, xi in x.items())

    def ad(self, x: Vector) -> Matrix:
        """Matrix of y -> [x, y]: the transpose of the rows [x, e_j]."""
        if len(x) != self.dim:
            raise ValueError("dimension mismatch in ad")
        sx, xs = read_row(x)
        columns = [self.bracket_ints(xs, {j: 1}) for j in range(self.dim)]
        return Matrix.from_ints(self.dim, sx * self.table.scale, columns).transpose()

    def killing_form(self) -> Matrix:
        """K(e_i, e_j) = trace(ad e_i ad e_j) = sum_{k,l} c[i][l][k] c[j][k][l],
        summed over the nonzero entries of c[i] and built once per algebra."""
        if self._killing is None:
            rows, s = self.table.rows, self.table.scale
            object.__setattr__(self, "_killing", Matrix.from_ints(self.dim, s * s, [
                {j: sum(x * rows[j].get(k, {}).get(l, 0)
                        for l, v in rows[i].items() for k, x in v.items())
                 for j in range(self.dim)}
                for i in range(self.dim)]))
        return self._killing

    def is_semisimple(self) -> bool:
        """Cartan's criterion: the Killing form is nondegenerate, that is of
        rank dim, decided by one elimination once per algebra."""
        if self._semisimple is None:
            rank = len(rref(self.killing_form().ints, self.dim)[2])
            object.__setattr__(self, "_semisimple", rank == self.dim)
        return self._semisimple

    def center(self) -> Subspace:
        # z is central iff sum_j c[i][j][k] z_j = 0 for all i, k: one integer
        # equation per (i, k) with a nonzero entry
        eqs = {}
        for i, row in enumerate(self.table.rows):
            for j, v in row.items():
                for k, x in v.items():
                    eqs.setdefault((i, k), {})[j] = x
        return kernel(Matrix.from_ints(self.dim, 1, eqs.values()))

    def centralizer(self, x: Vector) -> Subspace:
        return kernel(self.ad(x))

    def is_subalgebra(self, s: Subspace) -> bool:
        self._check_space(s)
        return all(s.contains(self.bracket_ints(u, v))
                   for a, u in enumerate(s.ints) for v in s.ints[a + 1:])

    def is_ideal(self, s: Subspace) -> bool:
        self._check_space(s)
        return all(s.contains(self.bracket_ints({i: 1}, v))
                   for i in range(self.dim) for v in s.ints)

    def _check_space(self, s: Subspace) -> None:
        if s.ambient_dim != self.dim:
            raise ValueError(
                f"dimension mismatch: subspace ambient {s.ambient_dim} vs algebra {self.dim}")

    def __eq__(self, other) -> bool:
        # the table is canonical, so this is equality of the structure constants
        return (isinstance(other, LieAlgebra) and self.dim == other.dim
                and self.table.scale == other.table.scale
                and self.table.rows == other.table.rows)

    def __hash__(self):
        return hash((self.dim, self.table.scale, tuple(map(len, self.table.rows))))

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, names={list(self.names)})"


# -- standard algebras used throughout the test-bed -------------------------

def so3() -> LieAlgebra:
    return LieAlgebra.from_brackets(3, {
        (0, 1): [0, 0, 1],    # [e1,e2] = e3
        (0, 2): [0, -1, 0],   # [e1,e3] = -e2
        (1, 2): [1, 0, 0],    # [e2,e3] = e1
    })


def sl2() -> LieAlgebra:
    # basis (e, f, h): [e,f] = h, [h,e] = 2e, [h,f] = -2f
    return LieAlgebra.from_brackets(3, {
        (0, 1): [0, 0, 1],
        (0, 2): [-2, 0, 0],   # [e,h] = -2e
        (1, 2): [0, 2, 0],    # [f,h] = 2f
    }, names=["e", "f", "h"])

