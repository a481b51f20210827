"""A speed probe for timing on a host whose speed changes under load."""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager


class SpeedProbe:
    """Measures how fast the machine runs during a timed region.

    On a shared host the same pass takes anywhere from 1x to 1.9x its
    fastest time, as the host moves this machine's cores between a fast and
    a slow state every few seconds.  While a region runs, a timer signal
    every INTERVAL_S times a fixed loop of pure-Python integer work in the
    main thread (during package code, waits on the solver child included);
    the loop also runs EDGE_LOOPS times before and after the region.
    `normalise` converts the region's wall time, minus the probes inside
    it, to seconds at the speed where that loop takes REFERENCE_S.  The
    loop shares nothing with the package, so a change to the package cannot
    change the probe.
    """

    INTERVAL_S = 0.1
    EDGE_LOOPS = 5  # loops before and after, for regions shorter than INTERVAL_S
    LOOP = 15_000
    REFERENCE_S = 0.0014  # the loop's time in the fast state, 2-core Xeon

    def __init__(self) -> None:
        self.inside: list[float] = []
        self.edges: list[float] = []

    @classmethod
    def _loop(cls) -> float:
        t0 = time.perf_counter()
        x = 0
        for i in range(cls.LOOP):
            x = (x * 31 + i) & 0xFFFF
        return time.perf_counter() - t0

    def _on_signal(self, signum, frame) -> None:
        self.inside.append(self._loop())

    @contextmanager
    def sampling(self):
        """Probe before the region, during it by timer signal, and after it."""
        self.inside = []
        self.edges = [self._loop() for _ in range(self.EDGE_LOOPS)]
        previous = signal.signal(signal.SIGALRM, self._on_signal)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.edges += [self._loop() for _ in range(self.EDGE_LOOPS)]

    def normalise(self, wall_s: float) -> float:
        speed = statistics.mean(self.inside + self.edges) / self.REFERENCE_S
        return (wall_s - sum(self.inside)) / speed
