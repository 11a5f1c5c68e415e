"""Host speed probe: a fixed unit of pure-Python work, timed between the program's calls.

On a shared virtual machine the same work can take up to 1.6x longer from
one minute to the next, and the program slows down in step with this probe.
The timing metrics are therefore reported in reference seconds: each timed
interval is scaled by ``REFERENCE_PROBE_S`` over the median of the probes
taken nearest to it.  A change of the program moves them; a change of the
host's speed mostly does not.  The probe is the benchmark's own code and
never calls the program.
"""

from __future__ import annotations

import bisect
import statistics
import time

# median probe time on the 2-core virtual machine the bounds were set on
REFERENCE_PROBE_S = 0.0145
PROBE_ITERATIONS = 50000
NEAREST = 2  # probes taken on each side of an interval that set its factor
PROBE_EVERY_S = 0.25  # often enough to follow the host, rare enough to cost ~5%


def probe() -> float:
    """Wall seconds of one fixed unit of dict and float work."""
    t0 = time.perf_counter()
    table: dict = {}
    for i in range(PROBE_ITERATIONS):
        key = i % 1261
        table[key] = table.get(key, 0.0) + i * 0.5
    return time.perf_counter() - t0


class HostSpeed:
    """Probe samples of one run, with the time each was taken."""

    def __init__(self):
        self.times: list = []  # perf_counter at the end of each probe, ascending
        self.samples: list = []

    def sample(self) -> None:
        self.samples.append(probe())
        self.times.append(time.perf_counter())

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= PROBE_EVERY_S:
            self.sample()

    def factor(self, at: float | None = None) -> float:
        """Reference seconds per wall second at perf_counter time ``at``, or over the whole run."""
        near = self.samples
        if at is not None:
            j = bisect.bisect_left(self.times, at)
            near = self.samples[max(0, j - NEAREST) : j + NEAREST]
        return REFERENCE_PROBE_S / statistics.median(near)

    def scale(self, start: float, seconds: float) -> float:
        """Reference seconds of the interval of ``seconds`` that began at ``start``."""
        return seconds * self.factor(start + seconds / 2)
