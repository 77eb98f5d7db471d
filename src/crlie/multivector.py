"""Exterior powers of a Lie algebra and the algebraic Schouten bracket.

Degrees 2 and 3 only: the pseudo-Poisson condition lives in Lambda^3.  A
multivector is ints / scale, with ints = {key: x} its nonzero integer
coefficients on strictly increasing index pairs / triples and scale > 0,
in lowest terms -- the form of `Matrix` and `Subspace`, canonical, so `==`
compares it; `__eq__` is kept as library API.  It has no arithmetic: the
contractions `schouten_ints`, `push_ints` and `derive_ints` act on the
integer coefficients, emitting raw index tuples that `_collect` signs and
merges onto sorted keys, and each caller builds its result with
`from_ints` over the product of the scales.

Membership in U ^ Lambda^2 G goes through the quotient map G -> G/U, taken
as R_U, whose column i is the remainder of e_i against the RREF basis of U.
Lambda^3 R_U kills U ^ Lambda^2 G and moves each t only by an element of it,
and its image has no component on a triple holding a pivot of U; those
triples are exactly the pivots of the RREF span of all u ^ e_a ^ e_b.  So
Lambda^3 R_U (t) is the canonical remainder of t against that span, and is
zero iff t is a member.
"""

from __future__ import annotations

from itertools import product
from math import gcd, prod
from typing import Mapping

from .lie import LieAlgebra
from .linalg import Frozen, Subspace, format_terms, read_row

def _sort_key(idx):
    """Sort a key of distinct indices; returns (sorted, sign) or None on repeat."""
    idx = list(idx)
    if len(set(idx)) != len(idx):
        return None
    sign = 1
    for a in range(len(idx)):
        for b in range(len(idx) - 1 - a):
            if idx[b] > idx[b + 1]:
                idx[b], idx[b + 1] = idx[b + 1], idx[b]
                sign = -sign
    return tuple(idx), sign


def _collect(raw: Mapping) -> dict:
    """Coefficients on raw index tuples moved to their sorted keys with the
    sign of the sort, keys with a repeated index and zero sums dropped; the
    keys come out unordered, and `from_ints` puts them in order."""
    acc: dict = {}
    for key, val in raw.items():
        norm = _sort_key(key)
        if norm is not None:
            skey, sign = norm
            acc[skey] = acc.get(skey, 0) + sign * val
    return {k: v for k, v in acc.items() if v}


class _Alternating(Frozen):
    """Shared plumbing for Bivector / Trivector."""

    __slots__ = ("dim", "scale", "ints")
    arity = 0

    def __init__(self, dim: int, coeffs: Mapping = ()):
        """Rational coefficients on index tuples in any order, signed and
        merged onto their sorted keys by `_collect`."""
        items = list(dict(coeffs).items())
        s, read = read_row(val for _, val in items)
        raw = {items[k][0]: x for k, x in read.items()}
        for key in raw:
            if len(key) != self.arity or any(not (0 <= i < dim) for i in key):
                raise ValueError(f"bad index {key} for dimension {dim}")
        self._store(dim, s, _collect(raw))

    @classmethod
    def from_ints(cls, dim: int, s: int, ints: Mapping):
        """The multivector ints / s, for integer coefficients on sorted keys
        and a nonzero integer s, put in lowest terms with its keys in order."""
        t = object.__new__(cls)
        t._store(dim, s, ints)
        return t

    def _store(self, dim: int, s: int, ints: Mapping) -> None:
        ints = {k: x for k, x in sorted(ints.items()) if x}
        g = gcd(s, *ints.values())
        g = -g if s < 0 else g
        for name, value in (("dim", dim), ("scale", s // g),
                            ("ints", {k: x // g for k, x in ints.items()})):
            object.__setattr__(self, name, value)

    def is_zero(self) -> bool:
        return not self.ints

    def __eq__(self, other):
        return (type(other) is type(self) and other.dim == self.dim
                and other.scale == self.scale and other.ints == self.ints)

    def format(self, names=None) -> str:
        if names is None:
            names = [f"e{i + 1}" for i in range(self.dim)]
        return format_terms(((x, "^".join(names[i] for i in key))
                             for key, x in self.ints.items()), self.scale)

    def __repr__(self):
        return f"{type(self).__name__}({self.format()})"


class Bivector(_Alternating):
    arity = 2


class Trivector(_Alternating):
    arity = 3


# ---------------------------------------------------------------------------
# linear maps and the Schouten bracket on integer coefficients; a map is
# given by its nonzero columns {a: {i: x}}, A e_a = sum_i x e_i

def push_ints(cols: Mapping, coeffs: Mapping) -> dict:
    """Multiplicative extension: e_a^e_b(^e_c) -> Ae_a ^ Ae_b (^ Ae_c)
    (used for j and the quotient map G -> G/U)."""
    raw: dict = {}
    for key, v in coeffs.items():
        for entries in product(*(cols.get(a, {}).items() for a in key)):
            idx, xs = zip(*entries)
            raw[idx] = raw.get(idx, 0) + v * prod(xs)
    return _collect(raw)


def derive_ints(cols: Mapping, coeffs: Mapping) -> dict:
    """Leibniz extension: e_a^e_b(^e_c) -> De_a^e_b(^e_c) + e_a^De_b(^e_c)
    (+ e_a^e_b^De_c); ad e_i when cols is the row `IntTable.rows[i]`."""
    raw: dict = {}
    for key, v in coeffs.items():
        for s, a in enumerate(key):
            for i, x in cols.get(a, {}).items():
                idx = key[:s] + (i,) + key[s + 1:]
                raw[idx] = raw.get(idx, 0) + v * x
    return _collect(raw)


def schouten_ints(rows, p: Mapping, q: Mapping) -> dict:
    """[P,Q] = sum_{a,b,c,d} P^{ab} Q^{cd} [e_a, e_c] ^ e_b ^ e_d over the full
    antisymmetric coefficient matrices, reading the nonzero brackets from
    rows in the form of `IntTable.rows`."""
    qrows: dict = {}
    for (c, d), v in q.items():
        qrows.setdefault(c, []).append((d, v))
        qrows.setdefault(d, []).append((c, -v))
    raw: dict = {}
    for (a0, b0), v0 in p.items():
        for a, b, v in ((a0, b0, v0), (b0, a0, -v0)):
            for c, bracket in rows[a].items():
                for d, u in qrows.get(c, ()):
                    for k, x in bracket.items():
                        idx = (k, b, d)
                        raw[idx] = raw.get(idx, 0) + v * u * x
    return _collect(raw)


def quotient_columns(u: Subspace) -> tuple[int, dict]:
    """(s, cols) with cols[i] = s R_U e_i, s times the remainder of e_i
    against the RREF basis of U: s e_i, less s h_a when i is the pivot of
    h_a."""
    rows = u.by_pivot
    return u.scale, {i: {k: -x for k, x in rows[i].items() if k != i} if i in rows
                     else {i: u.scale} for i in range(u.ambient_dim)}


def schouten(algebra: LieAlgebra, p: Bivector, q: Bivector) -> Trivector:
    """Algebraic Schouten bracket of two constant bivectors.  Normalization
    matches the bilinear extension of the decomposable formula
    [a^b, c^d] = [a,c]^b^d - [a,d]^b^c - [b,c]^a^d + [b,d]^a^c."""
    if p.dim != algebra.dim or q.dim != algebra.dim:
        raise ValueError("dimension mismatch in schouten")
    table = algebra.table
    return Trivector.from_ints(algebra.dim, table.scale * p.scale * q.scale,
                               schouten_ints(table.rows, p.ints, q.ints))


# ---------------------------------------------------------------------------
# membership in U ^ Lambda^2 G

def wedge_subspace_residual(t: Trivector, u: Subspace) -> Trivector:
    """Canonical remainder of t modulo U ^ Lambda^2 G, its image under the
    quotient map (see the module docstring); zero iff t is a member."""
    if u.ambient_dim != t.dim:
        raise ValueError("dimension mismatch in wedge-subspace membership")
    sr, cols = quotient_columns(u)
    return Trivector.from_ints(t.dim, t.scale * sr ** 3, push_ints(cols, t.ints))
