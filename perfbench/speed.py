"""Machine-speed reference for CPU-bound timings.

On a shared host the CPU speed one process gets swings by tens of percent
over a few seconds, which swamps the run-to-run differences a benchmark is
meant to show. So a CPU-bound time is reported in reference seconds:

    measured seconds * REFERENCE_S / r

where r is the time of a fixed reference computation measured right next
to the timed work. A change to the program moves the measured time but
not r, so it shows in full; a change in machine speed moves both and
cancels. The reference mixes interpreter work with small numpy calls, as
the program does.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The reference computation's time on the machine the baseline numbers
# come from; reference seconds are seconds at that speed.
REFERENCE_S = 250e-6
# The time of `setup_probe`'s gauge (three compiles of argparse.py, then
# numpy's import with one BLAS thread) on that machine when it runs fast.
SETUP_GAUGE_S = 0.15

_MATRIX = np.random.default_rng(0).normal(size=(16, 16))


def _reference() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        acc += i * 0.5
    for _ in range(100):
        _MATRIX @ _MATRIX
    return time.perf_counter() - t0


class Speedometer:
    """Times the reference on demand and keeps the readings taken since the
    last `take`. `spent_s` is the wall time all readings cost, so callers
    can leave it out of the work they time."""

    def __init__(self):
        self.spent_s = 0.0
        self.readings: list = []  # every reading of the run
        self._pending: list = []

    def probe(self) -> float:
        """One reading: the fastest of three runs of the reference."""
        t0 = time.perf_counter()
        r = min(_reference() for _ in range(3))
        self.spent_s += time.perf_counter() - t0
        self.readings.append(r)
        self._pending.append(r)
        return r

    def take(self) -> list:
        """The readings since the last call."""
        out, self._pending = self._pending, []
        return out


def scale(seconds: float, readings) -> float:
    """Measured seconds in reference seconds, given the readings taken
    while they were measured."""
    return seconds * REFERENCE_S / statistics.fmean(readings)
