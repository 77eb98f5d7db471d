"""Pseudo-Poisson CR structures at the Lie algebra level.

The pseudo-Poisson condition asks the Schouten square of a bivector to lie
in U ^ Lambda^2 G for a distinguished complement U of H.  Group-level
statements (Ad-invariance, multiplicativity of coboundary tensors) are
verified in their infinitesimal form through derivation actions on
multivectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .lie import LieAlgebra
from .linalg import Matrix, Subspace, basis_vector
from .multivector import Bivector, derive, push, schouten, wedge_subspace_residual
from .report import Report, witness


@dataclass(frozen=True)
class PseudoPoissonData:
    algebra: LieAlgebra
    H: Subspace
    U: Subspace
    j: Matrix
    Lambda: Bivector

    def __post_init__(self):
        n = self.algebra.dim
        for s in (self.H, self.U):
            if s.ambient_dim != n:
                raise ValueError("subspace ambient dimension mismatch")
        if self.H.dim + self.U.dim != n or self.H.intersect(self.U).dim != 0:
            raise ValueError("H and U must be supplementary")
        if self.j.rows != n or self.j.cols != n:
            raise ValueError("j must be an endomorphism of the full algebra")
        if self.Lambda.dim != n:
            raise ValueError("bivector dimension mismatch")


def check_pseudo_poisson(d: PseudoPoissonData) -> Report:
    """[Lambda, Lambda] in U ^ Lambda^2 G; on failure the canonical residual
    trivector is reported."""
    rep = Report()
    t = schouten(d.algebra, d.Lambda, d.Lambda)
    res = wedge_subspace_residual(t, d.U)
    ok = res.is_zero()
    w = [] if ok else [witness(residual=res.format(d.algebra.names))]
    rep.add("poisson.schouten_membership", ok, w,
            detail=f"[L,L] = {t.format(d.algebra.names)}")
    return rep


def check_j_invariance(d: PseudoPoissonData) -> Report:
    """Literal tensor condition (Lambda^2 j)(Lambda) = Lambda."""
    rep = Report()
    image = push(d.j, d.Lambda)
    ok = image == d.Lambda
    w = [] if ok else [witness(image=image.format(d.algebra.names))]
    rep.add("poisson.j_invariance", ok, w)
    return rep


def coboundary_pi(algebra: LieAlgebra, r: Bivector, U: Subspace) -> tuple[dict, Report]:
    """Coboundary tensor built from r; checks the infinitesimal invariance of
    [r, r]: for every basis generator x, the derivation extension of ad x
    sends [r, r] into U ^ Lambda^2 G.

    Returns a symbolic description of pi (only its algebra-level conditions
    are computable here) together with the per-generator report.
    """
    rep = Report()
    rr = schouten(algebra, r, r)
    bad = []
    for i in range(algebra.dim):
        res = wedge_subspace_residual(derive(algebra.ad(basis_vector(algebra.dim, i)), rr), U)
        if not res.is_zero():
            bad.append(witness(generator=algebra.names[i],
                               residual=res.format(algebra.names)))
    rep.add("poisson.coboundary_invariance", not bad, bad,
            detail=f"[r,r] = {rr.format(algebra.names)}")
    description = {
        "r": {f"{i + 1},{j + 1}": v for (i, j), v in r.coeffs.items()},
        "relation": "pi = right_invariant(r) - left_invariant(r)",
    }
    return description, rep


def coboundary_delta(algebra: LieAlgebra, r: Bivector) -> list[Bivector]:
    """The coboundary cocycle x -> (derivation extension of ad x)(r), on the
    basis generators."""
    return [derive(algebra.ad(basis_vector(algebra.dim, i)), r) for i in range(algebra.dim)]


def check_cocycle(algebra: LieAlgebra, delta: Sequence[Bivector]) -> Report:
    """Infinitesimal 1-cocycle identity for the adjoint action on Lambda^2:
    delta([x, y]) = ad2(x) delta(y) - ad2(y) delta(x) on all basis pairs."""
    rep = Report()
    n = algebra.dim
    if len(delta) != n:
        raise ValueError("delta must assign a bivector to every basis generator")
    ad = [algebra.ad(basis_vector(n, i)) for i in range(n)]
    bad = []
    for a in range(n):
        for b in range(a + 1, n):
            lhs = Bivector(n)
            for k, ck in enumerate(algebra.c[a][b]):
                if ck != 0:
                    lhs = lhs + delta[k].scale(ck)
            rhs = derive(ad[a], delta[b]) - derive(ad[b], delta[a])
            if lhs != rhs:
                bad.append(witness(x=algebra.names[a], y=algebra.names[b],
                                   difference=(lhs - rhs).format(algebra.names)))
    rep.add("poisson.cocycle", not bad, bad)
    return rep


def product_structure(d1: PseudoPoissonData, d2: PseudoPoissonData) -> PseudoPoissonData:
    """Direct-sum product: block algebra, H = H1 + H2, U = U1 + U2,
    j = j1 + j2, Lambda = Lambda1 + Lambda2 as block bivectors."""
    alg = d1.algebra.direct_sum(d2.algebra)
    n1 = d1.algebra.dim
    n = alg.dim

    def embed(s: Subspace, offset: int) -> list:
        pad_left = (0,) * offset
        pad_right = (0,) * (n - offset - s.ambient_dim)
        return [pad_left + tuple(v) + pad_right for v in s.basis]

    H = Subspace.span(embed(d1.H, 0) + embed(d2.H, n1), n)
    U = Subspace.span(embed(d1.U, 0) + embed(d2.U, n1), n)
    j = Matrix.block_diag(d1.j, d2.j)
    coeffs = dict(d1.Lambda.coeffs)
    for (a, b), v in d2.Lambda.coeffs.items():
        coeffs[(a + n1, b + n1)] = v
    return PseudoPoissonData(alg, H, U, j, Bivector(n, coeffs))
