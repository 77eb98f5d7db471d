"""Lie algebras given by exact rational structure constants."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Optional, Sequence

from .linalg import (
    Matrix, Subspace, Vector,
    basis_vector, bilinear, is_zero, kernel, vector, zero_vector,
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
    entries, grouped per row."""

    __slots__ = ("dim", "scale", "rows")

    def __init__(self, c: Sequence[Sequence[Vector]]):
        nonzero = [[(j, v) for j, v in enumerate(row) if any(v)] for row in c]
        scale = lcm(*(e.denominator for row in nonzero for _, v in row for e in v))
        self.dim, self.scale = len(c), scale
        self.rows = [{j: {k: e.numerator * (scale // e.denominator)
                          for k, e in enumerate(v) if e} for j, v in row}
                     for row in nonzero]

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
        return [("jacobi", t) for t in self.triples() if not self._jacobi_holds(*t)]

    def _jacobi_holds(self, i: int, j: int, k: int) -> bool:
        # [e_i,[e_j,e_k]] + [e_k,[e_i,e_j]] + [e_j,[e_k,e_i]], where
        # [e_a, sum_l x_l e_l] = sum_l x_l c[a][l]
        rows = self.rows
        return not nonzero_contraction(
            (1, rows[b].get(c, {}), rows[a]) for a, b, c in ((i, j, k), (k, i, j), (j, k, i)))


def nonzero_contraction(terms) -> bool:
    """Whether sum_{(sign, x, rows) in terms} sign * sum_l x[l] rows[l] is
    nonzero, for sparse integer vectors x = {l: int} and rows = {l: {m: int}}."""
    acc = {}
    for sign, x, rows in terms:
        for l, xl in x.items():
            for m, y in rows.get(l, {}).items():
                acc[m] = acc.get(m, 0) + sign * xl * y
    return any(acc.values())


def validate_structure(c: Sequence[Sequence[Vector]]) -> list:
    """Collect antisymmetry and Jacobi violations of a bracket tensor."""
    return IntTable(c).violations()


class LieAlgebra:
    """Finite-dimensional real Lie algebra over exact rational coordinates.

    `c[i][j]` is the coordinate vector of [e_i, e_j]; construction rejects
    tensors violating antisymmetry or the Jacobi identity.  `table` is c in
    integer form, built once per algebra.
    """

    __slots__ = ("dim", "names", "c", "_table", "_killing")

    def __init__(self, c: Sequence[Sequence[Iterable]], names: Optional[Sequence[str]] = None,
                 validate: bool = True):
        n = len(c)
        tensor = tuple(tuple(vector(v) for v in row) for row in c)
        if any(len(row) != n or any(len(v) != n for v in row) for row in tensor):
            raise ValueError("structure tensor must be n x n x n")
        if names is None:
            names = [f"e{i + 1}" for i in range(n)]
        if len(names) != n:
            raise ValueError("need one name per basis vector")
        table = None
        if validate:
            table = IntTable(tensor)
            bad = table.violations()
            if bad:
                raise StructureError(bad)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "names", tuple(names))
        object.__setattr__(self, "c", tensor)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_killing", None)

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    @classmethod
    def from_brackets(cls, dim: int, brackets: Mapping[tuple[int, int], Iterable],
                      names: Optional[Sequence[str]] = None,
                      validate: bool = True) -> "LieAlgebra":
        """Build from a sparse table {(i, j): [e_i, e_j]} with i < j, 0-based."""
        c = [[list(zero_vector(dim)) for _ in range(dim)] for _ in range(dim)]
        for (i, j), v in brackets.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket indices out of range or not i<j: {(i, j)}")
            w = vector(v)
            if len(w) != dim:
                raise ValueError(f"bracket value at {(i, j)} has wrong dimension")
            c[i][j] = list(w)
            c[j][i] = [-e for e in w]
        return cls(c, names=names, validate=validate)

    @classmethod
    def abelian(cls, dim: int, names: Optional[Sequence[str]] = None) -> "LieAlgebra":
        return cls.from_brackets(dim, {}, names=names)

    @property
    def table(self) -> IntTable:
        if self._table is None:
            object.__setattr__(self, "_table", IntTable(self.c))
        return self._table

    # -- basic operations --------------------------------------------------

    def bracket(self, x: Vector, y: Vector) -> Vector:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("dimension mismatch in bracket")
        return bilinear(self.c, x, y, self.dim)

    def ad(self, x: Vector) -> Matrix:
        """Matrix of y -> [x, y] in the standard basis."""
        if len(x) != self.dim:
            raise ValueError("dimension mismatch in ad")
        cols = [self.bracket(x, basis_vector(self.dim, j)) for j in range(self.dim)]
        return Matrix.from_columns(cols)

    def killing_form(self) -> Matrix:
        """K(e_i, e_j) = trace(ad e_i ad e_j) = sum_{k,l} c[i][l][k] c[j][k][l],
        summed over the nonzero entries of c[i] and built once per algebra."""
        if self._killing is None:
            rows, s = self.table.rows, self.table.scale
            object.__setattr__(self, "_killing", Matrix(
                [[Fraction(sum(x * rows[j].get(k, {}).get(l, 0)
                               for l, v in rows[i].items() for k, x in v.items()), s * s)
                  for j in range(self.dim)]
                 for i in range(self.dim)]))
        return self._killing

    def is_semisimple(self) -> bool:
        """Cartan's criterion: Killing form nondegenerate."""
        return self.killing_form().det() != 0

    def center(self) -> Subspace:
        # center = common kernel of the ad e_i; row k of ad e_i is (c[i][j][k])_j
        return kernel(Matrix([col for row in self.c for col in zip(*row)]))

    def centralizer(self, x: Vector) -> Subspace:
        return kernel(self.ad(x))

    def is_subalgebra(self, s: Subspace) -> bool:
        self._check_space(s)
        return all(s.contains(self.bracket(u, v))
                   for a, u in enumerate(s.basis) for v in s.basis[a + 1:])

    def is_ideal(self, s: Subspace) -> bool:
        self._check_space(s)
        return all(s.contains(self.bracket(basis_vector(self.dim, i), v))
                   for i in range(self.dim) for v in s.basis)

    def quotient(self, ideal: Subspace) -> "LieAlgebra":
        """Quotient by an ideal, realized on the coordinate complement."""
        self._check_space(ideal)
        if not self.is_ideal(ideal):
            raise ValueError("quotient requires an ideal")
        comp = [c for c in range(self.dim) if c not in ideal.pivots]
        c = [[tuple(ideal.reduce(self.c[a][b])[k] for k in comp) for b in comp]
             for a in comp]
        return LieAlgebra(c, names=[self.names[a] for a in comp])

    def direct_sum(self, other: "LieAlgebra",
                   names: Optional[Sequence[str]] = None) -> "LieAlgebra":
        n, m = self.dim, other.dim
        brackets = {}
        for i in range(n):
            for j in range(i + 1, n):
                v = self.c[i][j]
                if not is_zero(v):
                    brackets[(i, j)] = tuple(v) + zero_vector(m)
        for i in range(m):
            for j in range(i + 1, m):
                v = other.c[i][j]
                if not is_zero(v):
                    brackets[(i + n, j + n)] = zero_vector(n) + tuple(v)
        if names is None:
            right = [nm if nm not in self.names else nm + "'" for nm in other.names]
            names = list(self.names) + right
        return LieAlgebra.from_brackets(n + m, brackets, names=names, validate=False)

    def _check_space(self, s: Subspace) -> None:
        if s.ambient_dim != self.dim:
            raise ValueError(
                f"dimension mismatch: subspace ambient {s.ambient_dim} vs algebra {self.dim}")

    def __eq__(self, other) -> bool:
        return (isinstance(other, LieAlgebra) and self.dim == other.dim
                and self.c == other.c)

    def __hash__(self):
        return hash(self.c)

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


def heisenberg3() -> LieAlgebra:
    return LieAlgebra.from_brackets(3, {(0, 1): [0, 0, 1]})

