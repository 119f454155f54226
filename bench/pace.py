"""The box's own speed, sampled while the workload runs.

The benchmark runs on shared machines whose speed drifts by half within
minutes: the same pass can take 0.7 s or 1.1 s, and a fixed loop of
Python bytecode slows down by the same factor at the same moment.  A
:class:`Pacer` runs such a loop, the probe, from a timer signal every
``PERIOD_S`` seconds while the workload runs, and records how long each
probe took.  :meth:`Pacer.scaled` turns a measured interval into the time
it would have taken at the nominal speed, at which the probe takes
``NOMINAL_PROBE_S``.  The probe's own time is taken out of the interval.

The probe allocates no objects the garbage collector tracks, so it never
starts a collection of the workload's heap.
"""

import signal
from time import perf_counter

PERIOD_S = 0.25
PROBE_STEPS = 20000
# The probe's time on the 2-vCPU box the benchmark was tuned on, in a quiet
# period.  Fixed, so scaled times of two commits compare.
NOMINAL_PROBE_S = 0.0017

_TABLE = {i: (7 * i + 3) % 101 for i in range(101)}


def probe():
    table, x = _TABLE, 0
    for i in range(PROBE_STEPS):
        x = table[(x + i) % 101]
    return x


class Pacer:
    """Probe samples ``(start, end)`` taken while started, in time order."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _sample(self, *_):
        start = perf_counter()
        probe()
        self.samples.append((start, perf_counter()))

    def start(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scaled(self, a, b):
        """Seconds the interval [a, b] would take at the nominal speed.

        The speed is the mean of NOMINAL_PROBE_S / probe time over the
        probes inside the interval, or over the last probe before it and
        the first after it when none falls inside.
        """
        inside = [(s, e) for s, e in self.samples if a <= s and e <= b]
        busy = sum(e - s for s, e in inside)
        if not inside:
            before = [p for p in self.samples if p[1] <= a][-1:]
            after = [p for p in self.samples if p[0] >= b][:1]
            inside = before + after
        speed = sum(NOMINAL_PROBE_S / (e - s) for s, e in inside) / len(inside)
        return (b - a - busy) * speed
