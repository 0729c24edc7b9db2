"""Machine-speed calibration: times in reference seconds.

The speed of a shared host drifts, by a fifth to a third on scales from a
second to minutes, and the drift slows hamalg and any other code alike.  So
the benchmark runs a fixed calibration loop next to what it times: before
the first op of a pass and after every op, and at the end of every set-up
(workload.py).  A wall time divided by the mean of the loops just before
and after it (after it, for a set-up) is a cost in calibration units; times
CAL_REF_S it reads in reference seconds, seconds on a host where one loop
takes CAL_REF_S.
"""

from __future__ import annotations

import gc
import time
from collections import Counter
from itertools import permutations

import numpy as np

CAL_REF_S = 0.005
_CAL_WORD = tuple((k % 3, ("phi", "pi")[k % 2], (k % 2,)) for k in range(7))


def _calibration_loop() -> None:
    Counter(permutations(_CAL_WORD))
    table = {}
    for i in range(1500):
        table[(i % 97, i)] = [i, str(i)]
    sorted(table.items(), key=lambda kv: kv[0][1] % 31)
    a = np.empty(1 << 19)
    a[:] = 1.5
    float((a * a).sum())


def calibrate() -> float:
    """Time one calibration loop, in wall seconds.

    The loop does the kinds of work hamalg's ops do, with none of hamalg's
    code: hashing and counting the permutations of a word of small tuples
    (as Weyl quantization does), building and sorting a dict (as
    canonicalization does), and a pass over a fresh 4 MB array (as the
    lattice kernels do).  The first loop after a large op runs 15-20%
    slower while the allocator recovers, so one untimed loop goes first.
    The collector is off throughout, so that a collection of the ops' heap
    never lands in the loop.
    """
    gc.disable()
    _calibration_loop()
    t0 = time.perf_counter()
    _calibration_loop()
    dt = time.perf_counter() - t0
    gc.enable()
    return dt


def to_reference(wall_s: float, *loops: float) -> float:
    """A wall time in reference seconds, given the loops timed next to it."""
    return wall_s * CAL_REF_S * len(loops) / sum(loops)
