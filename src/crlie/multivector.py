"""Exterior powers of a Lie algebra and the algebraic Schouten bracket.

Degrees 2 and 3 only: the pseudo-Poisson condition lives in Lambda^3.  A
multivector is its sparse coefficient dict, keyed by strictly increasing
index pairs / triples.  Linear maps act on that dict directly (`push`,
`derive`), emitting raw index tuples that the constructor sorts, signs and
merges.

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
from typing import Mapping

from .lie import LieAlgebra
from .linalg import Matrix, Subspace, Vector, basis_vector, format_terms, rat

Pair = tuple[int, int]


def pair_basis(dim: int) -> list[Pair]:
    return [(i, j) for i in range(dim) for j in range(i + 1, dim)]


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


def _nonzero(v) -> list:
    return [(i, c) for i, c in enumerate(v) if c != 0]


class _Alternating:
    """Shared plumbing for Bivector / Trivector."""

    __slots__ = ("dim", "coeffs")
    arity = 0

    def __init__(self, dim: int, coeffs: Mapping = ()):
        table: dict = {}
        for key, val in dict(coeffs).items():
            val = rat(val)
            if val == 0:
                continue
            if any(not (0 <= i < dim) for i in key) or len(key) != self.arity:
                raise ValueError(f"bad index {key} for dimension {dim}")
            norm = _sort_key(key)
            if norm is None:
                continue
            skey, sign = norm
            table[skey] = table.get(skey, Fraction(0)) + sign * val
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coeffs",
                           {k: v for k, v in sorted(table.items()) if v != 0})

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

    def full_matrix(self) -> Matrix:
        """Antisymmetric n x n coefficient matrix."""
        m = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for (i, j), v in self.coeffs.items():
            m[i][j] = v
            m[j][i] = -v
        return Matrix(m)


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
# linear maps acting on Lambda^2 and Lambda^3

def _sparse_columns(A: Matrix, t: _Alternating) -> list:
    if A.rows != A.cols or A.rows != t.dim:
        raise ValueError("square matrix of the multivector's dimension required")
    return [_nonzero(col) for col in zip(*A.data)]


def push(A: Matrix, t: _Alternating) -> _Alternating:
    """Multiplicative extension: e_a^e_b(^e_c) -> Ae_a ^ Ae_b (^ Ae_c)
    (used for j and the quotient map G -> G/U)."""
    cols = _sparse_columns(A, t)
    acc: dict = {}
    for key, v in t.coeffs.items():
        for entries in product(*(cols[a] for a in key)):
            w = v
            for _, x in entries:
                w *= x
            raw = tuple(i for i, _ in entries)
            acc[raw] = acc.get(raw, 0) + w
    return type(t)(t.dim, acc)


def derive(D: Matrix, t: _Alternating) -> _Alternating:
    """Leibniz extension: e_a^e_b(^e_c) -> De_a^e_b(^e_c) + e_a^De_b(^e_c)
    (+ e_a^e_b^De_c) (used for ad)."""
    cols = _sparse_columns(D, t)
    acc: dict = {}
    for key, v in t.coeffs.items():
        for s, a in enumerate(key):
            for i, x in cols[a]:
                raw = key[:s] + (i,) + key[s + 1:]
                acc[raw] = acc.get(raw, 0) + v * x
    return type(t)(t.dim, acc)


# ---------------------------------------------------------------------------
# Schouten bracket of bivectors

def schouten(algebra: LieAlgebra, p: Bivector, q: Bivector) -> Trivector:
    """Algebraic Schouten bracket of two constant bivectors.

    Coordinate contraction over the full antisymmetric coefficient matrices:
    [P,Q] = sum_{a,b,c,d} P^{ab} Q^{cd} [e_a, e_c] ^ e_b ^ e_d.
    Normalization matches the bilinear extension of the decomposable formula
    [a^b, c^d] = [a,c]^b^d - [a,d]^b^c - [b,c]^a^d + [b,d]^a^c.
    """
    if p.dim != algebra.dim or q.dim != algebra.dim:
        raise ValueError("dimension mismatch in schouten")
    n = algebra.dim
    pm = p.full_matrix()
    qm = q.full_matrix()
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
                    for k, ck in _nonzero(algebra.c[a][c]):
                        acc[(k, b, d)] = acc.get((k, b, d), 0) + w * ck
    return Trivector(n, acc)


# ---------------------------------------------------------------------------
# membership in U ^ Lambda^2 G

def wedge_subspace_residual(t: Trivector, u: Subspace) -> Trivector:
    """Canonical remainder of t modulo U ^ Lambda^2 G, its image under the
    quotient map (see the module docstring); zero iff t is a member."""
    if u.ambient_dim != t.dim:
        raise ValueError("dimension mismatch in wedge-subspace membership")
    n = t.dim
    return push(Matrix.from_columns([u.reduce(basis_vector(n, i)) for i in range(n)]), t)


def in_wedge_subspace(t: Trivector, u: Subspace) -> bool:
    """Membership of t in U ^ Lambda^2 G, decided exactly."""
    return wedge_subspace_residual(t, u).is_zero()
