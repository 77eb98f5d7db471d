"""Pseudo-Poisson CR structures at the Lie algebra level.

The pseudo-Poisson condition asks the Schouten square of a bivector to lie
in U ^ Lambda^2 G for a distinguished complement U of H.  Group-level
statements (Ad-invariance, multiplicativity of coboundary tensors) are
verified in their infinitesimal form through derivation actions on
multivectors.
"""

from __future__ import annotations

from functools import cached_property

from .lie import LieAlgebra
from .linalg import Frozen, Matrix, Subspace, rref
from .multivector import (Bivector, Trivector, derive_ints, push_ints, quotient_columns,
                          schouten, wedge_subspace_residual)
from .report import Report


class PseudoPoissonData(Frozen):
    """(H, U, j, Lambda) and the optional r of a poisson block.  H + U = G is
    direct when the dimensions add up to n and the stacked RREF rows of H and
    U have n pivots (monomial rows on unit bases, so no elimination).
    [Lambda, Lambda] (`square`), [r, r] (`r_square`, `square` itself when
    r = Lambda) and the quotient map G -> G/U (`quotient`) are built on first
    use and kept, so the checks of one document build each once."""

    def __init__(self, algebra: LieAlgebra, H: Subspace, U: Subspace, j: Matrix,
                 Lambda: Bivector, r: Bivector | None = None):
        self.__dict__.update(algebra=algebra, H=H, U=U, j=j, Lambda=Lambda, r=r)
        n = algebra.dim
        for s in (H, U):
            if s.ambient_dim != n:
                raise ValueError("subspace ambient dimension mismatch")
        if H.dim + U.dim != n or len(rref([*H.ints, *U.ints], n)[2]) != n:
            raise ValueError("H and U must be supplementary")
        if j.rows != n or j.cols != n:
            raise ValueError("j must be an endomorphism of the full algebra")
        if Lambda.dim != n or (r is not None and r.dim != n):
            raise ValueError("bivector dimension mismatch")

    @cached_property
    def square(self) -> Trivector:
        return schouten(self.algebra, self.Lambda, self.Lambda)

    @cached_property
    def r_square(self) -> Trivector:
        if self.r is None:
            raise ValueError("the poisson block gives no r, so [r, r] is undefined")
        return self.square if self.r == self.Lambda else schouten(self.algebra, self.r, self.r)

    @cached_property
    def quotient(self) -> tuple[int, dict]:
        return quotient_columns(self.U)


def check_pseudo_poisson(d: PseudoPoissonData) -> Report:
    """[Lambda, Lambda] in U ^ Lambda^2 G, tested on integers; on failure the
    canonical residual trivector is reported."""
    rep = Report()
    names = d.algebra.names
    res = wedge_subspace_residual(d.square, d.quotient)
    ok = res.is_zero()
    w = [] if ok else [dict(residual=res.format(names))]
    rep.add("poisson.schouten_membership", ok, w, detail=f"[L,L] = {d.square.format(names)}")
    return rep


def check_j_invariance(d: PseudoPoissonData) -> Report:
    """Literal tensor condition (Lambda^2 j)(Lambda) = Lambda, compared as
    s_j^2 s_L times both sides."""
    rep = Report()
    columns, lam = d.j.transpose(), d.Lambda
    sj = columns.scale
    image = push_ints(dict(enumerate(columns.ints)), lam.ints)
    ok = image == {k: sj * sj * x for k, x in lam.ints.items()}
    w = [] if ok else [dict(image=Bivector.from_ints(
        lam.dim, sj * sj * lam.scale, image).format(d.algebra.names))]
    rep.add("poisson.j_invariance", ok, w)
    return rep


def coboundary_pi(d: PseudoPoissonData) -> Report:
    """The algebra-level condition on the coboundary tensor
    pi = right_invariant(r) - left_invariant(r) of a bundle given an r: the
    infinitesimal invariance of [r, r].  For every basis generator e_i, the
    derivation extension of ad e_i must send the bundle's [r, r] into
    U ^ Lambda^2 G, tested on integers through the bundle's quotient map.
    A bundle built without an r raises `ValueError`."""
    rep = Report()
    n, names, table = d.algebra.dim, d.algebra.names, d.algebra.table
    rr, (su, Q) = d.r_square, d.quotient
    bad = []
    for i, row in enumerate(table.rows):
        res = push_ints(Q, derive_ints(row, rr.ints))
        if res:
            residual = Trivector.from_ints(n, table.scale * rr.scale * su ** 3, res)
            bad.append(dict(generator=names[i], residual=residual.format(names)))
    rep.add("poisson.coboundary_invariance", not bad, bad, detail=f"[r,r] = {rr.format(names)}")
    return rep
