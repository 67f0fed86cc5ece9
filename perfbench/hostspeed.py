"""Host speed, sampled all through a run, so that times taken on a shared
host are put on one scale.

On a shared host other tenants slow the benchmark process by up to a
factor of two, for a fraction of a second or for minutes; CPU time slows
with wall time, so the process is slowed, not descheduled.  A fixed
reference kernel (interpreter arithmetic and 4-vector numpy calls, the mix
`biharm4` itself runs) is timed every `interval` seconds from a SIGALRM
handler, and once at the end of every timed section.  A section's time,
less the time the handler took inside it, is scaled by

    REF_KERNEL_S / (mean kernel time, from the sample before the section
                    to the sample that closes it)

which gives its time on a host where the kernel takes REF_KERNEL_S: the
reference speed.  `biharm4` never runs inside the kernel, so a change to
the package moves scaled times exactly as it moves raw ones.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

REF_KERNEL_S = 1e-3     # about the kernel's time on a quiet shared 2-core x86-64 host
INTERVAL_S = 0.025      # sampling period; one sample costs about 4% of it

_M = np.arange(16.0).reshape(4, 4) / 10.0
_V = np.ones(4)


def kernel() -> float:
    """Seconds for a fixed interpreter + small-array numpy workload."""
    t = time.perf_counter()
    acc = 0.0
    for i in range(175):
        w = _M @ _V
        acc += float(w @ w) + 0.5 * math.sqrt(i + 1.0) + float(np.outer(_V, w).sum())
    return time.perf_counter() - t


class HostClock:
    """Samples the kernel; `interval=None` samples only at section ends."""

    def __init__(self, interval: float | None = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.stolen = 0.0               # seconds spent in the handler so far
        self._previous = None

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self._sample()
        self.stolen += time.perf_counter() - t

    def _sample(self) -> None:
        """One kernel sample, with the alarm held back while it runs."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self.samples.append(kernel())
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def start(self) -> "HostClock":
        for _ in range(3):
            kernel()                    # warm the caches the kernel touches
        self._sample()
        if self.interval:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self) -> None:
        if self.interval and self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def mark(self) -> tuple[int, float]:
        """Taken before a timed section: its first sample and the handler time so far."""
        return len(self.samples) - 1, self.stolen

    def measure(self, mark: tuple[int, float], elapsed: float) -> tuple[float, float]:
        """After a section that took `elapsed` wall seconds: (its own seconds,
        without the handler's, and those seconds at the reference speed)."""
        first, stolen = mark
        own = elapsed - (self.stolen - stolen)
        self._sample()
        window = self.samples[first:]
        return own, own * REF_KERNEL_S * len(window) / sum(window)
