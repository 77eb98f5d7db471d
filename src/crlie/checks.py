"""Check driver: runs every verification applicable to a parsed document.

Checks report in the order `run_checks` calls them, so structured reports
are stable and diffable.  Checks that depend on the Kahler layer being valid
(product, radical, center, exactness) are skipped when any of the three
Kahler validity checks fail.  Each layer is called through its name in this
module's namespace, where `bench/spans.py` wraps it for per-layer timing.
"""

from __future__ import annotations

from .crkahler import (
    center_U, check_cr, check_kahler, check_left_symmetric, build_extension,
    ideal_complement_complex, left_symmetric_product, omega_radical,
    semisimple_exactness,
)
from .inputdoc import Payloads
from .poisson import check_j_invariance, check_pseudo_poisson, coboundary_pi
from .report import Report, witness

def run_checks(p: Payloads) -> Report:
    rep = Report()

    if p.cr is not None:
        rep.extend(check_cr(p.cr))

    if p.kahler is not None:
        kahler_rep = check_kahler(p.kahler)
        rep.extend(kahler_rep)
        if kahler_rep.passed:
            product = left_symmetric_product(p.kahler)
            rep.extend(check_left_symmetric(p.kahler, product))
            _, radical_rep = omega_radical(p.kahler)
            rep.extend(radical_rep)
            _, center_rep = center_U(p.kahler)
            rep.extend(center_rep)
            if p.algebra.is_semisimple():
                _, _, _, exact_rep = semisimple_exactness(p.kahler)
                rep.extend(exact_rep)

    if p.poisson is not None:
        rep.extend(check_pseudo_poisson(p.poisson))
        rep.extend(check_j_invariance(p.poisson))
        if p.poisson_r is not None:
            rep.extend(coboundary_pi(p.algebra, p.poisson_r, p.poisson.U))

    if p.ideal is not None and p.cr is not None:
        try:
            _, _, ideal_rep = ideal_complement_complex(p.cr, p.ideal)
        except ValueError as e:
            rep.add("ideal.valid_input", False, [witness(reason=str(e))])
        else:
            rep.add("ideal.valid_input", True)
            rep.extend(ideal_rep)

    if p.extension is not None and p.kahler is not None:
        try:
            ext_rep = build_extension(p.kahler, p.extension["v_dim"], p.extension["alpha"])
        except ValueError as e:
            rep.add("extension.valid_input", False, [witness(reason=str(e))])
        else:
            rep.extend(ext_rep)

    return rep
