"""Host-speed normalisation for op timings.

Wall time on a shared host drifts with load: one deterministic operation
repeated back to back varied by a factor of 1.7 between runs, and a plain
``Fraction`` loop timed beside it drifted the same way.  Every timed
operation is therefore bracketed by a fixed standard-library reference
kernel, run just before and just after it, and its wall time is rescaled by
``NOMINAL_REF_MS / mean(kernel before, kernel after)``.  Normalised times
read as "ms at reference speed": the time the op would take on a host that
runs the kernel in exactly ``NOMINAL_REF_MS``.

The host switches between a fast and a slow state, so an op's own readings
say which state it ran in.  One scale for the whole run cannot: the run's
ops then fall into two groups whose mix decides p50 and p90.  Over ten
witness, six schedule and six cli runs taken while the host switched, per-op
scaling left run-to-run spreads (IQR/median) on p50 of 2.6%, 1.9% and 4.6%
and on p90 of 3.0%, 6.6% and 4.4%.  One scale per run, from the mean of its
readings, left 4.5%, 11% and 12% on p50 and 4.3%, 20% and 12% on p90; from
their median, worse again.
"""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

#: Median kernel time on the host the benchmark was calibrated on
#: (2 vCPU x86-64 container, CPython 3.11.7).  Changing it rescales every
#: normalised figure, so it is part of the benchmark definition.
NOMINAL_REF_MS = 2.5


def reference_kernel() -> int:
    """Small-rational arithmetic, dict updates and hashing, like the engine's."""
    acc = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    for i in range(1, 600):
        q = Fraction(i % 29 + 1, 1 << (i % 7))
        acc = acc + q if i % 3 else acc - q
        key = (i % 17, acc.denominator)
        table[key] = table.get(key, 0) + 1
    return len(table)


def time_kernel() -> float:
    """Seconds one reference kernel takes right now.

    The garbage collector is off while it runs.  Otherwise a collection that
    fires inside the kernel would scan whatever the op left alive, and the
    reading would measure the program's heap, not the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class OpTimer:
    """Accumulates the wall time of one op; ``paused`` excludes a stretch."""

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._t0: float | None = None

    def start(self) -> None:
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        if self._t0 is not None:
            self.elapsed += time.perf_counter() - self._t0
            self._t0 = None

    @contextmanager
    def paused(self):
        self.stop()
        try:
            yield
        finally:
            self.start()


def bracketed(fn, *args):
    """Run ``fn(timer, *args)`` between two kernel readings.

    Returns ``(result, raw_s, readings)``.  Exceptions from ``fn`` propagate
    after the timer has stopped.
    """
    r0 = time_kernel()
    timer = OpTimer()
    timer.start()
    try:
        result = fn(timer, *args)
    finally:
        timer.stop()
    r1 = time_kernel()
    return result, timer.elapsed, [r0, r1]


def normalise(raw_s: float, readings: list[float]) -> float:
    """An op's wall time at reference speed, from the readings around it."""
    return raw_s * (NOMINAL_REF_MS / 1e3) / statistics.fmean(readings)
