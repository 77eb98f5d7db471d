"""Lie algebras given by exact rational structure constants.

Brackets are computed by `linalg.contraction`, the sparse kernel through
which every table in crlie is read; `IntTable.antisymmetric` builds every
table given by its pairs, `IntTable.evaluate` every bilinear value on two
vector lists and `IntTable.cyclic_defects` every cyclic identity, each
summing only the pairs or triples that can carry a nonzero term.
`LieAlgebra.__eq__` and `__hash__` compare the canonical table; no check
calls them, and they are kept as library API.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from .linalg import Frozen, Matrix, Subspace, common_scale, contraction, kernel, rref


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
    three as they are; `antisymmetric` computes them for every table given by
    its pairs: the parsed brackets and alpha, `so3`, `sl2`, the ideal's
    projected bracket and xy - yx.  The same row form, lists of {j: {k: x}},
    holds the tables on H in `crkahler`; `linalg.contraction` reads any table
    in it; `evaluate` extends any table bilinearly.  The brackets on a proper
    H mirror their pairs by hand (they share one scale, and `antisymmetric`
    would nearly double their cost on a dense document); on H = G they are
    the rows of the algebra's own table."""

    __slots__ = ("dim", "scale", "rows")

    def __init__(self, dim: int, scale: int, rows: list):
        self.dim, self.scale, self.rows = dim, scale, rows

    @classmethod
    def antisymmetric(cls, dim: int,
                      entries: Mapping[tuple[int, int], tuple[int, dict]]) -> "IntTable":
        """The table with c[i][j] = ints / s for entries[(i, j)] = (s, ints), a
        vector in the form `read_row` gives, c[j][i] = -c[i][j], mirrored by
        negating the integers, and zero at every pair not listed; a pair listed
        both ways must be listed antisymmetric."""
        mirrored = {**entries, **{(j, i): (s, {k: -x for k, x in v.items()})
                                  for (i, j), (s, v) in entries.items()}}
        nonzero = [(ij, v) for ij, v in sorted(mirrored.items()) if v[1]]
        scale, ints = common_scale(v for _, v in nonzero)
        rows = [{} for _ in range(dim)]
        for ((i, j), _), r in zip(nonzero, ints):
            rows[i][j] = r
        return cls(dim, scale, rows)

    def evaluate(self, S, T=None) -> dict:
        """{(a, b): v} over the nonzero v = sum_{i,j} S[a]_i T[b]_j rows[i][j], as
        integer vectors {k: x}, for lists S and T of sparse integer vectors; with T
        omitted, over the pairs a < b of S.  A term is nonzero only for j a key of
        rows[i], so a pair is contracted only when supp T[b] meets some rows[i],
        i in supp S[a]: any other v is a sum of zero terms, antisymmetric or not."""
        rows, out, pairs, T = self.rows, {}, T is None, S if T is None else T
        for a, x in enumerate(S):
            met = set().union(*map(rows.__getitem__, x))
            for b in range(a + 1 if pairs else 0, len(T)) if met else ():
                if not met.isdisjoint(T[b]):
                    v = contraction((xi, T[b], rows[i]) for i, xi in x.items())
                    if v:
                        out[a, b] = v
        return out

    def cyclic_defects(self, outer) -> list:
        """The triples i < j < k, in lexicographic order, on which
        sum_l c[b][d][l] outer[a][l], summed over the cyclic orderings (a, b, d)
        of (i, j, k), is nonzero, for a table outer in the form of `rows`.  With
        outer = rows it is the Jacobiator [e_i,[e_j,e_k]] + [e_k,[e_i,e_j]] +
        [e_j,[e_k,e_i]], as [e_a, sum_l x_l e_l] = sum_l x_l c[a][l].

        c must be antisymmetric (`violations` tests that first).  Then only the
        triples that can carry a nonzero term are summed: c[b][d] . outer[a] is
        nonzero only where supp c[b][d] meets the rows l of outer[a], and
        c[b][d] = -c[d][b], so such a triple is met from its pair b < d or
        d < b with k = a."""
        rows = self.rows
        met = {(k, i, j) if k < i else (i, k, j) if k < j else (i, j, k)
               for i, row in enumerate(rows) for j, v in row.items() if i < j
               for k, o in enumerate(outer) if k != i and k != j and not v.keys().isdisjoint(o)}
        return sorted((i, j, k) for i, j, k in met if contraction([
            (1, rows[j].get(k, {}), outer[i]), (1, rows[i].get(j, {}), outer[k]),
            (1, rows[k].get(i, {}), outer[j])]))

    def violations(self) -> list:
        """Antisymmetry violations (i, j), i <= j; when there are none, Jacobi
        violations (i, j, k), i < j < k; each kind in lexicographic order."""
        rows = self.rows
        pairs = sorted({(min(i, j), max(i, j)) for i, row in enumerate(rows) for j in row})
        bad = [("antisymmetry", (i, j)) for i, j in pairs
               if rows[i].get(j, {}) != {k: -x for k, x in rows[j].get(i, {}).items()}]
        return bad or [("jacobi", t) for t in self.cyclic_defects(rows)]


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

    # -- basic operations --------------------------------------------------

    def ad(self, x: Mapping) -> Matrix:
        """Matrix of y -> [x, y] for the sparse integer vector x = {k: x_k}:
        the transpose of the rows [x, e_j]."""
        if x and max(x) >= self.dim:
            raise ValueError("dimension mismatch in ad")
        columns = self.table.evaluate([x], [{j: 1} for j in range(self.dim)])
        return Matrix.from_ints(self.dim, self.table.scale, [
            columns.get((0, j), {}) for j in range(self.dim)]).transpose()

    def killing_form(self) -> Matrix:
        """K(e_i, e_j) = trace(ad e_i ad e_j) = sum_{k,l} c[i][l][k] c[j][k][l],
        built once per algebra: row i contracts {(l, k): c[i][l][k]} with the
        index T[(l, k)] = {j: c[j][k][l]} of the nonzero entries."""
        if self._killing is None:
            rows, s, T = self.table.rows, self.table.scale, {}
            for j, row in enumerate(rows):
                for k, v in row.items():
                    for l, y in v.items():
                        T.setdefault((l, k), {})[j] = y
            object.__setattr__(self, "_killing", Matrix.from_ints(self.dim, s * s, [
                contraction([(1, {(l, k): x for l, v in row.items() for k, x in v.items()}, T)])
                for row in rows]))
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

    def centralizer(self, x: Mapping) -> Subspace:
        return kernel(self.ad(x))

    def is_subalgebra(self, s: Subspace) -> bool:
        self._check_space(s)
        return all(map(s.contains, self.table.evaluate(s.ints).values()))

    def is_ideal(self, s: Subspace) -> bool:
        self._check_space(s)
        units = [{i: 1} for i in range(self.dim)]
        return all(map(s.contains, self.table.evaluate(units, s.ints).values()))

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


# -- standard algebras, each built from its antisymmetric table -------------

def so3() -> LieAlgebra:
    # [e1,e2] = e3, [e1,e3] = -e2, [e2,e3] = e1
    return LieAlgebra(IntTable.antisymmetric(3, {
        (0, 1): (1, {2: 1}), (0, 2): (1, {1: -1}), (1, 2): (1, {0: 1})}))


def sl2() -> LieAlgebra:
    # basis (e, f, h): [e,f] = h, [e,h] = -2e, [f,h] = 2f
    return LieAlgebra(IntTable.antisymmetric(3, {
        (0, 1): (1, {2: 1}), (0, 2): (1, {0: -2}), (1, 2): (1, {1: 2})}), names=["e", "f", "h"])
