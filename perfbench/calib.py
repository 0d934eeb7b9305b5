"""Machine-speed calibration.

The effective speed of the shared 2-vCPU machine that defined the
benchmark swings by up to half between phases of 10 to 20 s, so raw
wall times of the same work spread by 20 to 40 % from run to run.
`calibrate()` times a fixed interpreter-bound loop.  A run takes
`samples()` in every gap between its timed units, on the vCPU the units
run on.  `factor(loops)` of the loops just before and after a unit turns
its raw time into its time at the reference speed, the speed at which
the loop takes `REF_S`.  On 2 s blocks of a fixed canonicalization the
raw time spread by 11 to 33 % and the time over the adjacent loop time
by 4 to 9 %.
"""

from __future__ import annotations

import statistics
import time

REF_S = 0.020
SAMPLES = 3          # loops per gap between timed units


def calibrate() -> float:
    """Wall time of the reference loop: dict updates, tuple keys and
    small sorts, like the symbolic engine's inner loops."""
    t0 = time.perf_counter()
    d: dict = {}
    for i in range(25000):
        k = (i % 97, i % 13)
        d[k] = d.get(k, 0) + 1
        sorted((i % 7, i % 5, i % 3))
    return time.perf_counter() - t0


def samples() -> list:
    return [calibrate() for _ in range(SAMPLES)]


def factor(cal: list) -> float:
    """Raw time times this is the time at the reference speed."""
    return REF_S / statistics.fmean(cal)
