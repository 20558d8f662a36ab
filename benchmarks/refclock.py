"""Seconds on a reference clock, steady across the host's speed swings.

The benchmark runs on a few vCPUs of a shared machine whose speed
flips between states: on a 2-vCPU Intel Xeon VM a fixed Python loop took
about 5.5 ms in one and 10 ms in the other, each lasting from a tenth of
a second to minutes, and CPU time slowed exactly as wall time did (no
steal: other tenants share the cores).  Raw times of two runs of the
same code then differed by a third.

So every timed part samples the machine's speed while it runs: a
fixed probe loop (object creation, attribute reads, small lists, dict
updates with tuple keys: the kind of work the package does, and none of
its code) runs right before the part, from a SIGALRM handler every
`PERIOD_S` during it, and right after it.  Probes are timed in CPU time,
so that one the scheduler preempts does not read as a slow machine.  A
probe that takes `REF_PROBE_S` reads speed 1; the part's work, done at
the mean sampled speed, is reported as the seconds it would take at
speed 1:

    scaled = (raw - time spent in probes) * mean(REF_PROBE_S / probe)

A change to the program moves the scaled seconds exactly as it moves
the raw ones; a change of host speed moves the probes too and cancels.
Probe time falls inside whatever the part was doing, so traced spans
carry it too (a few percent).  The scaled seconds depend on the
interpreter through the probe, so compare them only between runs on the
same one.
"""

from __future__ import annotations

import signal
from time import perf_counter, thread_time

# About the probe's time in the fast state of a 2-vCPU Intel Xeon VM
# under Python 3.11.
REF_PROBE_S = 0.00017
PERIOD_S = 0.01


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def probe_s() -> float:
    """CPU seconds the probe loop takes now."""
    t0 = thread_time()
    s = 0
    for i in range(300):
        p = _Point(i, i + 1)
        s += p.a ^ p.b
        s += len([p.a, p.b, i])
    d = {}
    for i in range(400):
        key = (i & 31, i >> 5)
        d[key] = d.get(key, 0) + i
    return thread_time() - t0


class RefClock:
    """Stopwatch whose seconds are scaled by the speed sampled during each
    part.  Uses SIGALRM and the real interval timer while a part runs, so
    parts must not nest and must run in the main thread."""

    def __init__(self):
        probe_s()  # the first probe of a fresh process runs cold
        self.speeds: list[float] = []
        self.probe_total = 0.0
        self.t0 = 0.0
        self.mark = (0, 0.0)
        self.old_handler = None

    def _probe(self, *_signal) -> None:
        p = probe_s()
        self.speeds.append(REF_PROBE_S / p)
        self.probe_total += p

    def start(self) -> None:
        self._probe()
        self.mark = (len(self.speeds) - 1, self.probe_total)
        self.old_handler = signal.signal(signal.SIGALRM, self._probe)
        self.t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def running(self) -> float:
        """Raw seconds since `start`, probes included."""
        return perf_counter() - self.t0

    def stop(self) -> float:
        """Scaled seconds since `start`."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        raw = perf_counter() - self.t0
        signal.signal(signal.SIGALRM, self.old_handler)
        first, probes_before = self.mark
        raw -= self.probe_total - probes_before
        self._probe()
        speeds = self.speeds[first:]
        return raw * sum(speeds) / len(speeds)

    def time(self, fn, *args):
        """(fn(*args), scaled seconds it took)."""
        self.start()
        try:
            result = fn(*args)
        finally:
            seconds = self.stop()
        return result, seconds
