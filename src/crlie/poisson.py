"""Pseudo-Poisson CR structures at the Lie algebra level.

The pseudo-Poisson condition asks the Schouten square of a bivector to lie
in U ^ Lambda^2 G for a distinguished complement U of H.  Group-level
statements (Ad-invariance, multiplicativity of coboundary tensors) are
verified in their infinitesimal form through derivation actions on
multivectors.
"""

from __future__ import annotations

from .lie import LieAlgebra
from .linalg import Frozen, Matrix, Subspace
from .multivector import (
    Bivector, Trivector, derive_ints, push_ints, quotient_columns, wedge_subspace_residual,
)
from .report import Report


class PseudoPoissonData(Frozen):
    def __init__(self, algebra: LieAlgebra, H: Subspace, U: Subspace, j: Matrix,
                 Lambda: Bivector):
        self.__dict__.update(algebra=algebra, H=H, U=U, j=j, Lambda=Lambda)
        n = algebra.dim
        for s in (H, U):
            if s.ambient_dim != n:
                raise ValueError("subspace ambient dimension mismatch")
        if not H.supplements(U):
            raise ValueError("H and U must be supplementary")
        if j.rows != n or j.cols != n:
            raise ValueError("j must be an endomorphism of the full algebra")
        if Lambda.dim != n:
            raise ValueError("bivector dimension mismatch")


def check_pseudo_poisson(d: PseudoPoissonData) -> Report:
    """[Lambda, Lambda] in U ^ Lambda^2 G, tested on integers; on failure the
    canonical residual trivector is reported."""
    rep = Report()
    names = d.algebra.names
    t = d.Lambda.square(d.algebra)
    res = wedge_subspace_residual(t, d.U)
    ok = res.is_zero()
    w = [] if ok else [dict(residual=res.format(names))]
    rep.add("poisson.schouten_membership", ok, w, detail=f"[L,L] = {t.format(names)}")
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


def coboundary_pi(algebra: LieAlgebra, r: Bivector, U: Subspace) -> Report:
    """The algebra-level condition on the coboundary tensor
    pi = right_invariant(r) - left_invariant(r): the infinitesimal invariance
    of [r, r].  For every basis generator e_i, the derivation extension of
    ad e_i must send [r, r] into U ^ Lambda^2 G.  [r, r] and the quotient map
    are built once, and each generator is tested on integer coefficients;
    when r is the document's Lambda, [r, r] is the one the membership check
    built.
    """
    if r.dim != algebra.dim or U.ambient_dim != algebra.dim:
        raise ValueError("dimension mismatch in coboundary_pi")
    rep = Report()
    n, names, table = algebra.dim, algebra.names, algebra.table
    rr, (su, Q) = r.square(algebra), quotient_columns(U)
    bad = []
    for i, row in enumerate(table.rows):
        res = push_ints(Q, derive_ints(row, rr.ints))
        if res:
            residual = Trivector.from_ints(n, table.scale * rr.scale * su ** 3, res)
            bad.append(dict(generator=names[i], residual=residual.format(names)))
    rep.add("poisson.coboundary_invariance", not bad, bad, detail=f"[r,r] = {rr.format(names)}")
    return rep

