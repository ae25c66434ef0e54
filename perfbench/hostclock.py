"""Host speed, sampled while a workload runs.

On a shared machine the CPU speed a process gets drifts by 10 to 20% over
tens of seconds, more than any bound a regression check could use on raw
seconds. `HostClock` runs a fixed reference loop for a few milliseconds
every PERIOD seconds of wall time, from a SIGALRM handler, so its samples
fall uniformly in time across the timed calls; the loop's rate over a run
measures how fast the host was while the workload ran. Call time divided
by that rate and multiplied by REFERENCE_RATE is in reference seconds:
seconds on a host where the loop runs REFERENCE_RATE times a second.
"""

from __future__ import annotations

import random
import signal
import time

PERIOD = 0.1
# Runs per second of `reference_loop` on the machine described in README.md.
REFERENCE_RATE = 250.0


def reference_loop() -> int:
    """Fixed pure-Python work of the kind the library's hot loops do: set
    building, sorting, tuple allocation and mask tests. Never change it:
    every reference-second figure is in its units."""
    rng = random.Random(7)
    pairs = {(rng.getrandbits(10), rng.getrandbits(10)) for _ in range(600)}
    pairs = sorted((p & ~m, m) for p, m in pairs)
    kept: list[tuple[int, int]] = []
    for p, m in pairs:
        if not any(kp & p == kp and km & m == km for kp, km in kept[:60]):
            kept.append((p, m))
    return len(kept)


class HostClock:
    """Context manager sampling `reference_loop` every PERIOD seconds.

    `spent` is the time the samples took; callers timing a call subtract
    its growth over the call. One sample is taken on entry and one on exit,
    so even a run shorter than PERIOD has a rate.
    """

    def __init__(self):
        self.spent = 0.0
        self.runs = 0
        self._previous = None

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        reference_loop()
        self.spent += time.perf_counter() - start
        self.runs += 1

    def __enter__(self) -> "HostClock":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    @property
    def rate(self) -> float:
        """Reference-loop runs per second over the samples taken."""
        return self.runs / self.spent

    def reference_seconds(self, seconds: float) -> float:
        return seconds * self.rate / REFERENCE_RATE
