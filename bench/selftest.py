"""Self-tests of the generators, independent of any timing.

* Anchors: the smallest rung of each family, in the standard basis, must be
  the document `crlie.catalog` freezes for that entry, carry the same
  expectations, and reproduce the frozen verdicts when checked.
* Basis change: P has det 1 and entries in {-1, 0, 1}, Q is its inverse, and
  small rungs of every family keep their verdicts after `rebase` for several
  seeds.

Run with `PYTHONPATH=src python3 bench/selftest.py`; exits 1 on any failure.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import families


def _verdicts(document):
    from crlie import parse_document, run_checks
    return {r.check_id: r.status for r in run_checks(parse_document(document)).results}


def anchor_errors(entry_ids):
    from crlie import catalog
    errors = []
    for entry_id in entry_ids:
        case = families.ANCHORS[entry_id]()
        entry = catalog.get(entry_id)
        if case.document != entry.document:
            errors.append(f"anchor {entry_id}: {case.name} is not the catalog document")
        if case.expected != entry.expected:
            errors.append(f"anchor {entry_id}: {case.name} expects {case.expected}, "
                          f"the catalog freezes {entry.expected}")
        try:
            got = _verdicts(entry.document)
        except Exception as e:  # a crash is a wrong answer for the anchor
            errors.append(f"anchor {entry_id}: {type(e).__name__}: {e}")
            continue
        if got != entry.expected:
            errors.append(f"anchor {entry_id}: verdicts {got} != frozen {entry.expected}")
    return errors


def _det(rows):
    m = [[Fraction(e) for e in row] for row in rows]
    n, det = len(m), Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def unimodular_errors(P, Q):
    n = len(P)
    errors = []
    if any(e not in (-1, 0, 1) for row in P for e in row):
        errors.append("P has an entry outside {-1, 0, 1}")
    if _det(P) != 1:
        errors.append(f"det P = {_det(P)}")
    PQ = [[sum(P[a][t] * Q[t][b] for t in range(n)) for b in range(n)] for a in range(n)]
    if PQ != [[int(a == b) for b in range(n)] for a in range(n)]:
        errors.append("Q is not the inverse of P")
    return errors


SMALL_RUNGS = (
    (families.aff_power, 2), (families.heisenberg, 2), (families.so3_power, 2),
    (families.so3_plus_abelian, 2), (families.aff_coupled_metric, 2),
    (families.aff_bad_j, 3), (families.abelian_bad_alpha, 2), (families.so3_mixed_r, 2),
)


def basis_errors(seeds=(1, 2, 3)):
    errors = []
    for seed in seeds:
        rng = random.Random(seed)
        for gen, k in SMALL_RUNGS:
            case = gen(k)
            P, Q = families.dense_basis(case.dim, rng)
            errors += [f"{case.name} seed {seed}: {e}" for e in unimodular_errors(P, Q)]
            dense = families.rebase(case, P, Q)
            got = _verdicts(dense.document)
            if got != _verdicts(case.document) or got != case.expected:
                errors.append(f"{case.name} seed {seed}: rebased verdicts {got} "
                              f"!= expected {case.expected}")
    return errors


def main():
    errors = anchor_errors(families.ANCHORS) + basis_errors()
    for e in errors:
        print(e)
    print(f"{len(families.ANCHORS)} anchors, {len(SMALL_RUNGS)} families x 3 seeds: "
          + ("FAIL" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
