"""Reference work that sets the time scale of the benchmark's timings.

The benchmark runs on shared machines whose speed drifts: on a 2-vCPU VM
the same pure-Python loop ran 40% slower in some seconds than in others,
with CPU time slowing as much as wall time, and the speed switched back and
forth within a single 3-second operation. Ten runs of the same code then
spread by a third, more than any bound on a timing can allow.

`Probe` measures the machine's speed while the operations run. A profiling
timer interrupts the process every ``PERIOD_S`` of CPU time, and the signal
handler times a fixed piece of reference work of about 0.2 ms. An
operation's time is its wall time minus the probes that ran inside it,
scaled by ``NOMINAL_S`` over the mean time of the probes around it (at least
``MIN_PROBES`` of them): it reads as it would on a machine that does the
reference work in ``NOMINAL_S`` seconds. The reference work uses nothing of
typedtopo, so a change to the package moves the scaled timings by the same
factor as the raw ones. It allocates no container objects, so it never
starts a garbage collection that the operation would otherwise have paid.
"""
from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from array import array

# about the probe time on the 2-vCPU VM the README's figures come from, so
# that scaled timings read close to raw ones there
NOMINAL_S = 0.00022
PERIOD_S = 0.02
MIN_PROBES = 8

# Small enough to stay in the core's own caches: a probe with a table of some
# megabytes ran slower after operations that had evicted it, whatever the
# machine's speed, and tracked the machine worse.
_TABLE = {f"k{i}": i for i in range(256)}
_KEYS = list(_TABLE)
random.Random(0).shuffle(_KEYS)


def reference_work() -> int:
    s = 0
    for k in _KEYS:
        s += _TABLE[k]
    for i in range(2000):
        s += i * i % 7
    return s


class Probe:
    """Times the reference work every PERIOD_S of CPU time while it is active.

    Use as a context manager around the timed operations; `scaled` then
    turns the interval ``[t0, t1)`` of one operation into its scaled time.
    """

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self._old = None
        self._busy = False

    def _probe(self, *_) -> None:
        if self._busy:  # a signal that arrived while a probe ran
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self._busy = False

    def __enter__(self) -> Probe:
        for _ in range(MIN_PROBES):
            self._probe()
        self._old = signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._old)
        for _ in range(MIN_PROBES):
            self._probe()

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds of ``[t0, t1)`` less the probes inside it, at the nominal speed."""
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_left(self.at, t1)
        net = t1 - t0 - sum(self.took[lo:hi])
        left = True
        while hi - lo < MIN_PROBES:
            if left and lo > 0 or hi >= len(self.at):
                lo -= 1
            else:
                hi += 1
            left = not left
        return net * NOMINAL_S / statistics.fmean(self.took[lo:hi])
