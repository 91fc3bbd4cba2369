"""Interpreter-speed sampling, to take the host's speed out of the timings.

The benchmark runs on a few cores of a shared host whose speed changes by
20-60 % within seconds, as other tenants load it: the same Python loop
takes 3 ms one second and 4.8 ms the next.  A time measured on such a
host says as much about the neighbours as about the program.

So while the benchmark measures, a ``SIGALRM`` timer runs a probe every
``INTERVAL`` seconds: a fixed pure-Python loop that shares no code with
tandemnet.  A call's time, less the time spent in probes, is scaled to
the reference speed: multiplied by ``REF_PROBE_S`` over the median probe
time within ``WINDOW`` seconds of the call.  A change of the program
moves the call's time and not the probe's, so it shows in full; a slower
host moves both, and cancels out.

The alarm handler runs between Python bytecodes of the main thread, so
it interrupts the program only where a Python function could anyway.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

INTERVAL = 0.02
WINDOW = 0.25
PROBE_LOOPS = 1200
# one probe's time at the reference speed: about the fastest probes seen
# on a 2-vCPU x86-64 VM with Python 3.11
REF_PROBE_S = 0.000200


def probe():
    """Run the fixed loop once and return its time in seconds.  It builds
    and drops small lists and tuples, as tandemnet's Python code does;
    its time follows the host's speed more closely than a loop of bare
    arithmetic."""
    t = perf_counter()
    rows = []
    for i in range(PROBE_LOOPS):
        rows.append([i, i + 1, (i, i * 2)])
        if len(rows) > 50:
            rows = []
    return perf_counter() - t


class Sampler:
    """Probes the host's speed while armed; times calls and scales them."""

    def __init__(self):
        self.stamps = []  # when each probe ran
        self.probes = []  # how long it took
        self.in_probes = 0.0  # total time spent in the alarm handler

    def _on_alarm(self, signum, frame):
        t = perf_counter()
        d = probe()
        self.stamps.append(t)
        self.probes.append(d)
        self.in_probes += perf_counter() - t

    def arm(self):
        if not self.stamps:
            for _ in range(20):  # warm the probe up
                probe()
            signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def stop(self):
        self.disarm()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def time(self, fn):
        """Call fn(); return (result, error, (start, end, seconds)), where
        seconds is the call's time less the probes run during it."""
        before = self.in_probes
        start = perf_counter()
        try:
            result, error = fn(), None
        except Exception as exc:  # an operation that raises has failed
            result, error = None, exc
        end = perf_counter()
        return result, error, (start, end, end - start - (self.in_probes - before))

    def scaled(self, timing):
        """A (start, end, seconds) timing at the reference speed."""
        start, end, seconds = timing
        lo = bisect.bisect_left(self.stamps, start - WINDOW)
        hi = bisect.bisect_right(self.stamps, end + WINDOW)
        near = self.probes[lo:hi]
        if not near:
            raise RuntimeError("no speed probe near a timed call; arm the sampler")
        return seconds * REF_PROBE_S / statistics.median(near)
