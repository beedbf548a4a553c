"""Host speed reference for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed swings,
from one second to the next and from one minute to the next, by up to 1.7x
for the same instructions: a fixed loop of small numpy calls took 1.45 ms
in fast stretches and 2.5 ms in slow ones.  A 30 s run cannot average that
away, so a raw wall time mostly measures the neighbours.

To measure the program instead, the benchmark times a fixed reference unit
(small numpy calls in a Python loop, the same mix as glmmkit's per-cluster
code, and nothing from glmmkit) right after every timed step, for about
``SHARE`` of that step's duration.  A step's host factor is
``UNIT_S_NOMINAL`` divided by the mean unit time around it (the batch of
units before the step and the batch after it, weighted equally); its time
multiplied by that factor is in seconds at the nominal host speed.  The
reference does not call the program, so a change to the program moves only
the measured time, never the factor.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Unit time on an unloaded core: the fast-stretch time of UNIT_LOOPS
# iterations on the host the bounds were set on (x86-64, AVX2 OpenBLAS,
# one thread).  It only sets the scale of the adjusted times.
UNIT_S_NOMINAL = 1.4e-3
UNIT_LOOPS = 300
# reference time per second of measured work, in rounds and in set-up
SHARE = 0.03
SETUP_SHARE = 0.15


class HostSpeed:
    """Reference-unit samples taken between the benchmark's steps."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((50, 5))
        self._b = rng.standard_normal(5)
        self._sink = 0.0
        self.samples: list[float] = []
        self._last_batch: float | None = None  # mean unit time

    def _unit(self) -> float:
        a, b = self._a, self._b
        total = 0.0
        start = time.perf_counter()
        for i in range(UNIT_LOOPS):
            total += float(np.sum(np.exp(a @ b * 1e-3))) + i * 0.5
        elapsed = time.perf_counter() - start
        self._sink += total
        return elapsed

    def after(self, busy_s: float, share: float = SHARE) -> float:
        """Time reference units for about ``share`` of ``busy_s`` seconds
        (at least one) right after a step of that length, and return the
        step's host factor."""
        units = max(1, round(share * busy_s / UNIT_S_NOMINAL))
        batch = [self._unit() for _ in range(units)]
        self.samples.extend(batch)
        mean = statistics.fmean(batch)
        around = mean if self._last_batch is None else (
            (self._last_batch + mean) / 2.0)
        self._last_batch = mean
        return UNIT_S_NOMINAL / around

    def summary(self) -> dict:
        return {"unit_s_nominal": UNIT_S_NOMINAL, "units": len(self.samples),
                "unit_s_min": min(self.samples, default=None),
                "unit_s_median": (statistics.median(self.samples)
                                  if self.samples else None)}
