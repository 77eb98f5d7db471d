"""Pseudo-Poisson CR structures at the Lie algebra level.

The pseudo-Poisson condition asks the Schouten square of a bivector to lie
in U ^ Lambda^2 G for a distinguished complement U of H.  Group-level
statements (Ad-invariance, multiplicativity of coboundary tensors) are
verified in their infinitesimal form through derivation actions on
multivectors.
"""

from __future__ import annotations

from typing import Sequence

from .lie import LieAlgebra
from .linalg import Frozen, Matrix, Subspace, common_scale, contraction
from .multivector import (
    Bivector, Trivector, derive_ints, push_ints, quotient_columns, schouten,
    wedge_subspace_residual,
)
from .report import Report, witness


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
    t = schouten(d.algebra, d.Lambda, d.Lambda)
    res = wedge_subspace_residual(t, d.U)
    ok = res.is_zero()
    w = [] if ok else [witness(residual=res.format(names))]
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
    w = [] if ok else [witness(image=Bivector.from_ints(
        lam.dim, sj * sj * lam.scale, image).format(d.algebra.names))]
    rep.add("poisson.j_invariance", ok, w)
    return rep


def coboundary_pi(algebra: LieAlgebra, r: Bivector, U: Subspace) -> Report:
    """The algebra-level condition on the coboundary tensor
    pi = right_invariant(r) - left_invariant(r): the infinitesimal invariance
    of [r, r].  For every basis generator e_i, the derivation extension of
    ad e_i must send [r, r] into U ^ Lambda^2 G.  [r, r] and the quotient map
    are built once, and each generator is tested on integer coefficients.
    """
    if r.dim != algebra.dim or U.ambient_dim != algebra.dim:
        raise ValueError("dimension mismatch in coboundary_pi")
    rep = Report()
    n, names, table = algebra.dim, algebra.names, algebra.table
    rr, (su, Q) = schouten(algebra, r, r), quotient_columns(U)
    bad = []
    for i, row in enumerate(table.rows):
        res = push_ints(Q, derive_ints(row, rr.ints))
        if res:
            residual = Trivector.from_ints(n, table.scale * rr.scale * su ** 3, res)
            bad.append(witness(generator=names[i], residual=residual.format(names)))
    rep.add("poisson.coboundary_invariance", not bad, bad, detail=f"[r,r] = {rr.format(names)}")
    return rep


def coboundary_delta(algebra: LieAlgebra, r: Bivector) -> list[Bivector]:
    """The coboundary cocycle x -> (derivation extension of ad x)(r), on the
    basis generators; ad e_i acts through row i of the integer table."""
    table = algebra.table
    return [Bivector.from_ints(algebra.dim, table.scale * r.scale, derive_ints(row, r.ints))
            for row in table.rows]


def check_cocycle(algebra: LieAlgebra, delta: Sequence[Bivector]) -> Report:
    """Infinitesimal 1-cocycle identity for the adjoint action on Lambda^2:
    delta([x, y]) = ad2(x) delta(y) - ad2(y) delta(x) on all basis pairs,
    tested on T s times both sides, for the table scale T and the least
    common denominator s of the delta(e_k)."""
    rep = Report()
    n, names = algebra.dim, algebra.names
    if len(delta) != n:
        raise ValueError("delta must assign a bivector to every basis generator")
    if any(d.dim != n for d in delta):
        raise ValueError("dimension mismatch in check_cocycle")
    rows, T = algebra.table.rows, algebra.table.scale
    s, D = common_scale((d.scale, d.ints) for d in delta)
    D = dict(enumerate(D))
    bad = []
    for a in range(n):
        for b in range(a + 1, n):
            # T s delta([e_a, e_b]) = sum_k rows[a][b][k] D[k]; {b: 1} selects a single row
            diff = contraction([(1, rows[a].get(b, {}), D),
                                (1, {b: 1}, {b: derive_ints(rows[b], D[a])}),
                                (-1, {a: 1}, {a: derive_ints(rows[a], D[b])})])
            if diff:
                difference = Bivector.from_ints(n, T * s, diff).format(names)
                bad.append(witness(x=names[a], y=names[b], difference=difference))
    rep.add("poisson.cocycle", not bad, bad)
    return rep
