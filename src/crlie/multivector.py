"""Exterior powers of a Lie algebra and the algebraic Schouten bracket.

Degrees 2 and 3 only: the pseudo-Poisson condition lives in Lambda^3.  A
multivector is its sparse coefficient dict, keyed by strictly increasing
index pairs / triples.  The contractions `schouten_ints`, `push_ints` and
`derive_ints` act on integer coefficients (see `_Alternating.ints`), emitting
raw index tuples that `_collect` sorts, signs and merges.

Membership in U ^ Lambda^2 G goes through the quotient map G -> G/U, taken
as R_U, whose column i is the remainder of e_i against the RREF basis of U.
Lambda^3 R_U kills U ^ Lambda^2 G and moves each t only by an element of it,
and its image has no component on a triple holding a pivot of U; those
triples are exactly the pivots of the RREF span of all u ^ e_a ^ e_b.  So
Lambda^3 R_U (t) is the canonical remainder of t against that span, and is
zero iff t is a member.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm, prod
from typing import Mapping

from .lie import LieAlgebra
from .linalg import Subspace, Vector, format_terms, rat

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
    sign of the sort, keys with a repeated index and zero sums dropped."""
    acc: dict = {}
    for key, val in raw.items():
        norm = _sort_key(key)
        if norm is not None:
            skey, sign = norm
            acc[skey] = acc.get(skey, 0) + sign * val
    return {k: v for k, v in sorted(acc.items()) if v != 0}


def _nonzero(v) -> list:
    return [(i, c) for i, c in enumerate(v) if c != 0]


class _Alternating:
    """Shared plumbing for Bivector / Trivector."""

    __slots__ = ("dim", "coeffs")
    arity = 0

    def __init__(self, dim: int, coeffs: Mapping = ()):
        table = {key: rat(val) for key, val in dict(coeffs).items()}
        for key, val in table.items():
            if val != 0 and (any(not (0 <= i < dim) for i in key) or len(key) != self.arity):
                raise ValueError(f"bad index {key} for dimension {dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coeffs", _collect(table))

    @classmethod
    def from_ints(cls, dim: int, s: int, coeffs: Mapping):
        """The multivector coeffs / s, for integer coefficients on sorted keys."""
        return cls(dim, {k: Fraction(x, s) for k, x in coeffs.items()})

    def ints(self) -> tuple[int, dict]:
        """(s, ints) with coeffs = ints / s, s the least common denominator."""
        s = lcm(*(v.denominator for v in self.coeffs.values()))
        return s, {k: v.numerator * (s // v.denominator) for k, v in self.coeffs.items()}

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __getitem__(self, key) -> Fraction:
        norm = _sort_key(key)
        if norm is None:
            return Fraction(0)
        skey, sign = norm
        return sign * self.coeffs.get(skey, Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        self._check(other)
        acc = dict(self.coeffs)
        for k, v in other.coeffs.items():
            acc[k] = acc.get(k, Fraction(0)) + v
        return type(self)(self.dim, acc)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = rat(c)
        return type(self)(self.dim, {k: c * v for k, v in self.coeffs.items()})

    def _check(self, other):
        if type(other) is not type(self) or other.dim != self.dim:
            raise ValueError("dimension or type mismatch")

    def __eq__(self, other):
        return (type(other) is type(self) and other.dim == self.dim
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.dim, tuple(sorted(self.coeffs.items()))))

    def format(self, names=None) -> str:
        if names is None:
            names = [f"e{i + 1}" for i in range(self.dim)]
        return format_terms((val, "^".join(names[i] for i in key))
                            for key, val in self.coeffs.items())

    def __repr__(self):
        return f"{type(self).__name__}({self.format()})"


class Bivector(_Alternating):
    arity = 2


class Trivector(_Alternating):
    arity = 3


# ---------------------------------------------------------------------------
# wedge products

def wedge(x: Vector, y: Vector) -> Bivector:
    if len(x) != len(y):
        raise ValueError("dimension mismatch in wedge")
    return Bivector(len(x), {(i, j): a * b
                             for (i, a), (j, b) in product(_nonzero(x), _nonzero(y))})


def wedge3(x: Vector, y: Vector, z: Vector) -> Trivector:
    if not (len(x) == len(y) == len(z)):
        raise ValueError("dimension mismatch in wedge3")
    return Trivector(len(x), {(i, j, k): a * b * c for (i, a), (j, b), (k, c)
                              in product(_nonzero(x), _nonzero(y), _nonzero(z))})


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
    rows = dict(zip(u.pivots, u.ints))
    return u.scale, {i: {k: -x for k, x in rows[i].items() if k != i} if i in rows
                     else {i: u.scale} for i in range(u.ambient_dim)}


def schouten(algebra: LieAlgebra, p: Bivector, q: Bivector) -> Trivector:
    """Algebraic Schouten bracket of two constant bivectors.  Normalization
    matches the bilinear extension of the decomposable formula
    [a^b, c^d] = [a,c]^b^d - [a,d]^b^c - [b,c]^a^d + [b,d]^a^c."""
    if p.dim != algebra.dim or q.dim != algebra.dim:
        raise ValueError("dimension mismatch in schouten")
    table, (sp, P), (sq, Q) = algebra.table, p.ints(), q.ints()
    return Trivector.from_ints(algebra.dim, table.scale * sp * sq,
                               schouten_ints(table.rows, P, Q))


# ---------------------------------------------------------------------------
# membership in U ^ Lambda^2 G

def wedge_subspace_residual(t: Trivector, u: Subspace) -> Trivector:
    """Canonical remainder of t modulo U ^ Lambda^2 G, its image under the
    quotient map (see the module docstring); zero iff t is a member."""
    if u.ambient_dim != t.dim:
        raise ValueError("dimension mismatch in wedge-subspace membership")
    (sr, cols), (st, coeffs) = quotient_columns(u), t.ints()
    return Trivector.from_ints(t.dim, st * sr ** 3, push_ints(cols, coeffs))
