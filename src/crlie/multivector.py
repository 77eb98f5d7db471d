"""Exterior powers of a Lie algebra and the algebraic Schouten bracket.

Degrees 2 and 3 only: the pseudo-Poisson condition lives in Lambda^3.  A
multivector is ints / scale, with ints = {key: x} its nonzero integer
coefficients on strictly increasing index pairs / triples and scale > 0,
in lowest terms -- the form of `Matrix` and `Subspace`, canonical, so `==`
compares it; `__eq__` is kept as library API.  It is built only by
`from_ints`, from integers, and has no arithmetic: the contractions
`schouten_ints`, `push_ints` and `derive_ints` act on the integer
coefficients and return nonzero ints on sorted keys, `_wedge_front` adding
each term straight onto its key with the sign of the sort; each caller
builds its result with `from_ints` over the product of the scales.

Membership in U ^ Lambda^2 G goes through the quotient map G -> G/U, taken
as R_U, whose column i is the remainder of e_i against the RREF basis of U.
Lambda^3 R_U kills U ^ Lambda^2 G and moves each t only by an element of it,
and its image has no component on a triple holding a pivot of U; those
triples are exactly the pivots of the RREF span of all u ^ e_a ^ e_b.  So
Lambda^3 R_U (t) is the canonical remainder of t against that span, and is
zero iff t is a member.
"""

from __future__ import annotations

from math import gcd
from typing import Mapping

from .lie import LieAlgebra
from .linalg import Frozen, Subspace, format_terms


class _Alternating(Frozen):
    """Shared plumbing for Bivector / Trivector."""

    @classmethod
    def from_ints(cls, dim: int, s: int, ints: Mapping):
        """The multivector ints / s, for integer coefficients on sorted keys
        and a nonzero integer s, put in lowest terms with its keys in order."""
        ints = {k: x for k, x in sorted(ints.items()) if x}
        g = gcd(s, *ints.values())
        g = -g if s < 0 else g
        t = object.__new__(cls)
        t.__dict__.update(dim=dim, scale=s // g, ints={k: x // g for k, x in ints.items()})
        return t

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
    def square(self, algebra: LieAlgebra) -> "Trivector":
        """[self, self], the `schouten` square, kept for the last algebra it
        was taken on, so that the checks reading one bivector build it once."""
        kept = self.__dict__.get("_square")
        if kept is None or kept[0] is not algebra:
            kept = self.__dict__["_square"] = algebra, schouten(algebra, self, self)
        return kept[1]


class Trivector(_Alternating):
    """An element of Lambda^3 G, where [Lambda, Lambda] lives."""


# ---------------------------------------------------------------------------
# linear maps and the Schouten bracket on integer coefficients; a map is
# given by its nonzero columns {a: {i: x}}, A e_a = sum_i x e_i

def _wedge_front(acc: dict, col: Mapping, rest: tuple, w: int) -> None:
    """acc += w (sum_k x e_k) ^ e_rest for col = {k: x} and a strictly
    increasing single or pair rest: each term is added on its sorted key with
    the sign (-1)^(indices of rest below k), and dropped when k is in rest."""
    get = acc.get
    if len(rest) == 1:
        (p,) = rest
        for k, x in col.items():
            if k < p:
                acc[k, p] = get((k, p), 0) + w * x
            elif k > p:
                acc[p, k] = get((p, k), 0) - w * x
        return
    p, q = rest
    for k, x in col.items():
        if k < p:
            key, y = (k, p, q), w * x
        elif p < k < q:
            key, y = (p, k, q), -w * x
        elif k > q:
            key, y = (p, q, k), w * x
        else:
            continue
        acc[key] = get(key, 0) + y


def push_ints(cols: Mapping, coeffs: Mapping) -> dict:
    """Multiplicative extension: e_a^e_b(^e_c) -> Ae_a ^ Ae_b (^ Ae_c)
    (used for j and the quotient map G -> G/U), formed from the last column
    forward, each partial wedge merged on its sorted keys."""
    acc: dict = {}
    for key, v in coeffs.items():
        part = {(i,): v * x for i, x in cols.get(key[-1], {}).items()}
        for m in range(len(key) - 2, -1, -1):
            out, col = acc if m == 0 else {}, cols.get(key[m], {})
            for rest, w in part.items():
                if w:
                    _wedge_front(out, col, rest, w)
            part = out
    return {k: x for k, x in acc.items() if x}


def derive_ints(cols: Mapping, coeffs: Mapping) -> dict:
    """Leibniz extension: e_a^e_b(^e_c) -> De_a^e_b(^e_c) + e_a^De_b(^e_c)
    (+ e_a^e_b^De_c); ad e_i when cols is the row `IntTable.rows[i]`; De_a
    moves from slot s to the front, (-1)^s, before the others (still sorted)."""
    acc: dict = {}
    for key, v in coeffs.items():
        for s, a in enumerate(key):
            col = cols.get(a)
            if col:
                _wedge_front(acc, col, key[:s] + key[s + 1:], -v if s % 2 else v)
    return {k: x for k, x in acc.items() if x}


def schouten_ints(rows, p: Mapping, q: Mapping) -> dict:
    """[P,Q] = sum_{a,b,d} P^{ab} W_ad ^ e_b ^ e_d with W_ad = sum_c Q^{cd} [e_a, e_c],
    over the full antisymmetric coefficient matrices, reading the nonzero
    brackets from rows in the form of `IntTable.rows`; the W_ad are built once
    per a, and each entry k of W_ad goes into the sorted (b, d)."""
    prows, qrows = {}, {}
    for lists, t in ((prows, p), (qrows, q)):
        for (c, d), v in t.items():
            lists.setdefault(c, []).append((d, v))
            lists.setdefault(d, []).append((c, -v))
    acc: dict = {}
    for a, bs in prows.items():
        wa: dict = {}
        for c, bracket in rows[a].items():
            for d, u in qrows.get(c, ()):
                w = wa.setdefault(d, {})
                for k, x in bracket.items():
                    w[k] = w.get(k, 0) + u * x
        for d, w in wa.items():
            for b, v in bs:
                if b < d:
                    _wedge_front(acc, w, (b, d), v)
                elif d < b:
                    _wedge_front(acc, w, (d, b), -v)
    return {k: x for k, x in acc.items() if x}


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
