"""A fixed unit of host speed, timed next to every measurement.

On a shared machine the speed of the host drifts by tens of percent over a
minute, the same for every pure-Python computation.  Each timed document and
CLI run is therefore divided by the mean of two calibration timings taken
immediately before and after it, in the same process.  The quotient is the
measurement in `ref` units: how many calibration runs the same host would
have completed in that time.

The calibration is exact rational Gauss-Jordan elimination of a fixed 7x7
matrix, the same kind of work crlie does, written without crlie so that no
change to crlie moves it.
"""

from __future__ import annotations

import time
from fractions import Fraction

N = 7
REPEATS = 12
MATRIX = tuple(tuple(Fraction((3 * a + 5 * b) % 11 - 5, 1 + (a * b) % 4)
                     for b in range(N)) for a in range(N))


def _eliminate():
    m = [list(row) for row in MATRIX]
    for c in range(N):
        p = next(r for r in range(c, N) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        for r in range(N):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return m


def calibration_s() -> float:
    """Wall time of one calibration unit (REPEATS eliminations)."""
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        _eliminate()
    return time.perf_counter() - t0
