"""Machine-speed probe for steadier timings on a shared machine.

On a shared box, the CPU a run gets varies by tens of percent for tens of
seconds at a time, because other tenants load the same host; the guest
charges that time to the process as if it ran, so CPU time slows down with
wall time.  The probe times a fixed unit of interpreter work (dict, set,
sort and small-array arithmetic, the operation mix of the decomposer) and
the Table 1 workloads scale their timings by ``probe time / REFERENCE_S``:
a reading taken while the machine runs at half speed is scaled back to what
the reference machine would have shown.  The code under test never runs
the probe, so a change to the program moves only the measured side.  The
probe runs between the serial decompose calls; the service workloads are
not scaled, since a probe next to their busy server processes would also
measure the program's own CPU use.
"""

from __future__ import annotations

import random
import time
from statistics import fmean
from typing import List

import numpy as np

#: Probe time (seconds) on an idle 2-CPU reference machine; it only fixes
#: the scale of the reported numbers.
REFERENCE_S = 0.003

_rng = random.Random(1)
_KEYS = [_rng.randrange(1 << 20) for _ in range(5000)]
_VECTOR = np.arange(64, dtype=np.float64)


def probe() -> float:
    """Seconds one fixed unit of work takes right now."""
    start = time.perf_counter()
    table = {}
    for key in _KEYS:
        table[key & 1023] = table.get(key & 1023, 0) + key
    set(_KEYS)
    sorted(_KEYS)
    for _ in range(120):
        float((_VECTOR * 0.5 + 1.0).sum())
    return time.perf_counter() - start


class SpeedMeter:
    """Probe samples of one measured phase."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, count: int = 1) -> None:
        self.samples.extend(probe() for _ in range(count))

    def slowdown(self) -> float:
        """How much slower than the reference the machine ran (1.0 = same).

        The mean, not the median: a measured call absorbs every stall that
        happens during it, and the mean of interleaved probes does too.
        """
        return fmean(self.samples) / REFERENCE_S
