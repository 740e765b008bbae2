"""Machine-speed reference taken while operations run.

The host this benchmark was written on changes speed by tens of percent
within seconds (other tenants share its cores), more than any regression
bound worth setting.  :class:`SpeedProbe` therefore times a short fixed
loop of its own (small numpy products and cross products, no ``stiffcal``
code) every ``TICK_S`` seconds from a ``SIGALRM`` handler, so samples land
inside long operations too.  An operation's time is its wall time minus
the probes that ran inside it, scaled by ``NOMINAL_MS / median probe time``
around it.  ``NOMINAL_MS`` only sets the scale: the loop's time on one
2.1 GHz Xeon vCPU.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

NOMINAL_MS = 12.0
TICK_S = 0.2
_R = np.array(((0.6, -0.8, 0.0), (0.8, 0.6, 0.0), (0.0, 0.0, 1.0)))
_U = np.array([0.3, -1.2, 0.5])
_V = np.array([1.0, 0.2, -0.7])


def reference_loop() -> float:
    R, acc = np.eye(3), 0.0
    for _ in range(300):
        R = R @ _R
        acc += float(np.cross(_V, _U - R[0]) @ _U)
    return acc


class SpeedProbe:
    """Use as a context manager around the timed operations (main thread)."""

    def __init__(self) -> None:
        self.starts: list = []       # probe start times, increasing
        self.ends: list = []
        self._old = None

    def probe(self, *_signal_args) -> None:
        t = time.perf_counter()
        reference_loop()
        self.starts.append(t)
        self.ends.append(time.perf_counter())

    def __enter__(self) -> "SpeedProbe":
        self.probe()
        self._old = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self.probe()

    def measure(self, t0: float, t1: float):
        """(net, scaled) seconds of the operation that ran from ``t0`` to ``t1``."""
        lo = bisect.bisect_left(self.starts, t0 - TICK_S)
        hi = bisect.bisect_right(self.starts, t1 + TICK_S)
        inside = sum(max(0.0, min(e, t1) - max(s, t0))
                     for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        if hi <= lo:                 # no probe near: use the closest one
            lo, hi = max(0, lo - 1), max(1, lo)
        ref_ms = 1e3 * statistics.median(
            e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        net = t1 - t0 - inside
        return net, net * NOMINAL_MS / ref_ms
