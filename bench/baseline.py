"""One-off timing of `run_checks` on aff(R)^k, outside the workloads.

Reproduces the baseline quoted in ROADMAP.md (n = 4, 8 and 12); each size is
parsed once and checked once, so expect a minute in total.

    PYTHONPATH=src python3 bench/baseline.py
"""

from __future__ import annotations

import sys
import time

import families


def main():
    from crlie import parse_document, run_checks
    for k in (2, 4, 6):
        case = families.aff_power(k)
        payloads = parse_document(case.document)
        t0 = time.perf_counter()
        rep = run_checks(payloads)
        elapsed = time.perf_counter() - t0
        ok = {r.check_id: r.status for r in rep.results} == case.expected
        print(f"aff(R)^{k}  n={case.dim:2d}  run_checks {elapsed:8.3f} s  "
              f"verdicts {'as expected' if ok else 'WRONG'}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
