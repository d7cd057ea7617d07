"""Host speed, sampled while the workload runs, to scale reported times.

Shared hosts drift between fast and slow phases lasting seconds to
minutes; on the 2-core host of ``baseline.json`` the same unit of work
took anywhere from 1.0 to 2.0 s.  No window a run can afford averages that
away, so :class:`SpeedSampler` times a short fixed pure-Python loop every
``interval_s`` from a timer signal, in the worker's own thread and on its
own CPU, while the workload runs.  A time divided by the median loop time
sampled during it, times :data:`REFERENCE_S`, reads as it would at a fixed
nominal speed.  The loop touches no program code, so a change to the
program moves the scaled time fully.  Sampling costs about 2% of the
worker's time, the same on every commit.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Nominal wall time of one reference loop (about the loop's median time
#: on the host of ``baseline.json``).
REFERENCE_S = 0.001
_LOOP = 10_000


def reference_loop_s() -> float:
    """Wall time of one fixed pure-Python loop."""
    start = time.perf_counter()
    total = 0
    for i in range(_LOOP):
        total += i * i
    return time.perf_counter() - start


class SpeedSampler:
    """Reference-loop times, one per ``interval_s``, taken from SIGALRM."""

    def __init__(self, interval_s: float = 0.05) -> None:
        self.interval_s = interval_s
        self.samples: list[float] = []
        self._previous = None

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum: int, frame: object) -> None:
        self.samples.append(reference_loop_s())

    def scaled(self, seconds: float, since: int) -> float:
        """``seconds`` at the nominal speed, from the samples after index
        ``since`` (one is taken now if none was)."""
        samples = self.samples[since:] or [reference_loop_s()]
        return seconds * REFERENCE_S / statistics.median(samples)
