"""Host-speed probe: express measured times at a fixed reference speed.

The benchmark runs on a few vCPUs of a shared host whose speed changes by up
to half from second to second and from minute to minute, because other
tenants use the same cores and caches; CPU time drifts with wall time, so the
program's own clock cannot tell a slow program from a slow host.  The probe
measures the host instead: while it runs, a ``SIGALRM`` interval timer
interrupts the program every ``INTERVAL_S`` seconds and times a small fixed
kernel of ``fractions.Fraction`` and ``dict`` work, the same kind of work the
program does.  The kernel belongs to the benchmark and uses only the standard
library, so no change to the program can change it.

For an interval between two marks, ``Window`` gives the time the program had
(the interval minus the probe's own time) and the mean probe time of the
samples taken in it; ``Window.scaled_s`` multiplies the program's time by
``NOMINAL_PROBE_S / mean probe time``: the time the interval would have taken
on a host on which the probe takes ``NOMINAL_PROBE_S``.  Because the samples
are evenly spaced in wall time, a host slowdown over part of the interval
raises the mean in proportion to the time it cost the program.  The shorter
the window, the more closely its own samples follow the host's bursts, so
callers scale each timed call by its own window.

Only one probe may run at a time in a process, and only in its main thread.
"""

from __future__ import annotations

import random
import signal
import statistics
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.02
PRIMING_SAMPLES = 10

# Mean probe time on the reference host (2 vCPUs of a shared VM, CPython
# 3.11.7, partly loaded), so that scaled times read close to measured ones
# there.  It is a fixed unit: change it and every scaled time changes.
NOMINAL_PROBE_S = 0.0006

_rng = random.Random(1)
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(6)]
           for _ in range(6)]


def probe_kernel() -> int:
    """Rank of a fixed 6x6 rational matrix, then a small dict accumulation."""
    m = [row[:] for row in _MATRIX]
    n, rank = len(m), 0
    for c in range(n):
        pivot = next((i for i in range(rank, n) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, n):
            f = m[i][c] / m[rank][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    acc: dict[int, Fraction] = {}
    for i in range(8):
        for j in range(8):
            acc[(i + j) % 5] = acc.get((i + j) % 5, 0) + Fraction(i + 1, j + 2)
    return rank


def scaled(seconds: float, probe_mean_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_mean_s`` on average,
    at the nominal host speed."""
    return seconds * NOMINAL_PROBE_S / probe_mean_s


@dataclass(frozen=True)
class Mark:
    at: float
    probe_s: float
    samples: int


@dataclass(frozen=True)
class Window:
    """What happened between two marks of one probe."""

    net_s: float          # wall time minus the probe's own time
    probe_mean_s: float   # mean probe time of the samples in the window
    samples: int          # samples taken in the window

    @property
    def scaled_s(self) -> float:
        return scaled(self.net_s, self.probe_mean_s)


class HostProbe:
    """Samples host speed while started; a context manager."""

    def __init__(self):
        self.samples: list[float] = []
        self.probe_s = 0.0
        self._previous = None
        self._running = False
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that fell due during the previous one
            return
        self._busy = True
        start = perf_counter()
        probe_kernel()
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        self.probe_s += elapsed
        self._busy = False

    def start(self) -> None:
        """Take the first samples at once, so that every window has one, then
        start the timer."""
        if self._running:
            raise RuntimeError("probe already started")
        for _ in range(PRIMING_SAMPLES):
            self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._running = False

    def __enter__(self) -> "HostProbe":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def clock(self) -> float:
        """Seconds, not counting the probe's own time."""
        return perf_counter() - self.probe_s

    def mark(self) -> Mark:
        while True:  # retry if a tick ran between the reads
            samples, probe_s = len(self.samples), self.probe_s
            at = perf_counter()
            if len(self.samples) == samples:
                return Mark(at, probe_s, samples)

    def window(self, a: Mark, b: Mark) -> Window:
        """The window from ``a`` to ``b``; one too short to hold a sample
        takes the last sample before it."""
        taken = self.samples[a.samples:b.samples] or self.samples[b.samples - 1:b.samples]
        return Window(b.at - a.at - (b.probe_s - a.probe_s), statistics.fmean(taken),
                      b.samples - a.samples)

