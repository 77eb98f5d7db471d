"""Exterior powers of a Lie algebra and the algebraic Schouten bracket.

Degrees 2 and 3 only: the pseudo-Poisson condition lives in Lambda^3.
Coordinate bases of Lambda^2 / Lambda^3 are the strictly increasing index
pairs / triples in lexicographic order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .lie import LieAlgebra
from .linalg import Matrix, Subspace, Vector, basis_vector, format_terms, rat

Pair = tuple[int, int]
Triple = tuple[int, int, int]


def pair_basis(dim: int) -> list[Pair]:
    return [(i, j) for i in range(dim) for j in range(i + 1, dim)]


def triple_basis(dim: int) -> list[Triple]:
    return [(i, j, k) for i in range(dim)
            for j in range(i + 1, dim) for k in range(j + 1, dim)]


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

    def to_coords(self, basis_keys=None) -> Vector:
        if basis_keys is None:
            basis_keys = self._basis_keys()
        return tuple(self.coeffs.get(k, Fraction(0)) for k in basis_keys)

    @classmethod
    def from_coords(cls, dim: int, coords: Iterable):
        keys = cls._basis_keys_for(dim)
        return cls(dim, dict(zip(keys, coords)))

    def _basis_keys(self):
        return self._basis_keys_for(self.dim)

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

    @staticmethod
    def _basis_keys_for(dim: int):
        return pair_basis(dim)

    def full_matrix(self) -> Matrix:
        """Antisymmetric n x n coefficient matrix."""
        m = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for (i, j), v in self.coeffs.items():
            m[i][j] = v
            m[j][i] = -v
        return Matrix(m)


class Trivector(_Alternating):
    arity = 3

    @staticmethod
    def _basis_keys_for(dim: int):
        return triple_basis(dim)


# ---------------------------------------------------------------------------
# wedge products

def wedge(x: Vector, y: Vector) -> Bivector:
    if len(x) != len(y):
        raise ValueError("dimension mismatch in wedge")
    n = len(x)
    coeffs = {}
    for i in range(n):
        for j in range(i + 1, n):
            c = x[i] * y[j] - x[j] * y[i]
            if c != 0:
                coeffs[(i, j)] = c
    return Bivector(n, coeffs)


def wedge3(x: Vector, y: Vector, z: Vector) -> Trivector:
    if not (len(x) == len(y) == len(z)):
        raise ValueError("dimension mismatch in wedge3")
    n = len(x)
    coeffs: dict = {}
    for i in range(n):
        if x[i] == 0:
            continue
        for j in range(n):
            if y[j] == 0:
                continue
            for k in range(n):
                if z[k] == 0:
                    continue
                norm = _sort_key((i, j, k))
                if norm is None:
                    continue
                key, sign = norm
                coeffs[key] = coeffs.get(key, Fraction(0)) + sign * x[i] * y[j] * z[k]
    return Trivector(n, coeffs)


# ---------------------------------------------------------------------------
# extensions of linear maps to Lambda^2 and Lambda^3

def extend_map_2(A: Matrix) -> Matrix:
    """Multiplicative extension: x^y -> Ax ^ Ay (used for j and Ad)."""
    if A.rows != A.cols:
        raise ValueError("square matrix required")
    keys = pair_basis(A.rows)
    cols = [wedge(A.column(i), A.column(j)).to_coords(keys) for i, j in keys]
    return Matrix.from_columns(cols)


def extend_derivation_2(D: Matrix) -> Matrix:
    """Leibniz extension: x^y -> Dx ^ y + x ^ Dy (used for ad)."""
    if D.rows != D.cols:
        raise ValueError("square matrix required")
    n = D.rows
    keys = pair_basis(n)
    cols = []
    for i, j in keys:
        b = wedge(D.column(i), basis_vector(n, j)) + wedge(basis_vector(n, i), D.column(j))
        cols.append(b.to_coords(keys))
    return Matrix.from_columns(cols)


def extend_derivation_3(D: Matrix) -> Matrix:
    if D.rows != D.cols:
        raise ValueError("square matrix required")
    n = D.rows
    keys = triple_basis(n)
    cols = []
    for i, j, k in keys:
        ei, ej, ek = (basis_vector(n, t) for t in (i, j, k))
        t = (wedge3(D.column(i), ej, ek)
             + wedge3(ei, D.column(j), ek)
             + wedge3(ei, ej, D.column(k)))
        cols.append(t.to_coords(keys))
    return Matrix.from_columns(cols)


def apply_2(M: Matrix, b: Bivector) -> Bivector:
    return Bivector.from_coords(b.dim, M.matvec(b.to_coords()))


def apply_3(M: Matrix, t: Trivector) -> Trivector:
    return Trivector.from_coords(t.dim, M.matvec(t.to_coords()))


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
                    for k, ck in enumerate(algebra.c[a][c]):
                        if ck == 0:
                            continue
                        norm = _sort_key((k, b, d))
                        if norm is None:
                            continue
                        key, sign = norm
                        acc[key] = acc.get(key, Fraction(0)) + sign * w * ck
    return Trivector(n, acc)


def wedge_subspace_span(u: Subspace) -> Subspace:
    """span{u ^ e_a ^ e_b : u in basis(U), a < b} inside Lambda^3 coordinates."""
    n = u.ambient_dim
    keys = triple_basis(n)
    gens = []
    for uv in u.basis:
        for a, b in pair_basis(n):
            t = wedge3(uv, basis_vector(n, a), basis_vector(n, b))
            if not t.is_zero():
                gens.append(t.to_coords(keys))
    return Subspace.span(gens, len(keys))


def in_wedge_subspace(t: Trivector, u: Subspace) -> bool:
    """Membership of t in U ^ Lambda^2 G, decided exactly in coordinates."""
    if u.ambient_dim != t.dim:
        raise ValueError("dimension mismatch in wedge-subspace membership")
    return t.is_zero() or wedge_subspace_span(u).contains(t.to_coords())


def wedge_subspace_residual(t: Trivector, span: Subspace) -> Trivector:
    """Canonical remainder of t after reduction against `span`, the
    U ^ Lambda^2 G built by `wedge_subspace_span`; zero iff t is a member."""
    coords = t.to_coords()
    if len(coords) != span.ambient_dim:
        raise ValueError("dimension mismatch in wedge-subspace membership")
    return Trivector.from_coords(t.dim, span.reduce(coords))
