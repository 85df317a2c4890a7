"""Host-speed correction for wall times measured on a shared machine.

On a host whose cores are shared with other tenants, the speed of the
Python interpreter drifts by 20-30% from one second, and one minute, to
the next, while the program's work stays the same.  A pass's wall time then
says as much about the neighbours as about the program.

``PaceClock`` samples the host's speed while a pass runs: every
``INTERVAL_S`` a timer signal runs ``kernel()``, a fixed piece of
interpreter work (integer and ``Fraction`` arithmetic, dict updates) that
takes about ``NOMINAL_S`` at the reference speed.  ``seconds(t0, t1)`` is
the wall time of ``[t0, t1]`` with the kernel's own time taken out and each
stretch scaled by ``NOMINAL_S / pace``, where ``pace`` is the median kernel
time of the nearby samples: the seconds the interval would have taken at
the reference speed.  The kernel is not program code, so a change to the
program moves these seconds as it would move wall time on a steady host.

The handler runs between bytecodes of the main thread, so inside a long C
call (a BLAS matmul) the sample waits until the call returns.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_right
from fractions import Fraction
from statistics import median

NOMINAL_S = 1.1e-3  # kernel seconds at the reference speed (2-core Xeon host)
INTERVAL_S = 0.05  # timer period while a pass runs
NEIGHBOURS = 3  # samples each side in the local median
BURST = 15  # samples taken back to back at the edges of a measurement


def kernel() -> float:
    """Run the fixed reference work once; return its wall seconds."""
    start = time.perf_counter()
    table, acc = {}, Fraction(0)
    for i in range(1500):
        key = (i % 37, i % 11)
        table[key] = table.get(key, 0) + i * i
        if i % 10 == 0:
            acc += Fraction(i, 7)
    return time.perf_counter() - start


class PaceClock:
    """Samples the kernel on a timer while active; converts wall intervals."""

    def __init__(self):
        self.samples = []  # (start, end) of each kernel run, in order
        self._paces = None

    def _sample(self, *_):
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter()))

    def _burst(self):
        for _ in range(BURST):
            self._sample()

    def __enter__(self):
        self._burst()
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self._burst()
        self._paces = None
        return False

    def _local_paces(self) -> list:
        if self._paces is None:
            times = [end - start for start, end in self.samples]
            self._paces = [median(times[max(0, i - NEIGHBOURS):i + NEIGHBOURS + 1])
                           for i in range(len(times))]
        return self._paces

    def seconds(self, t0: float, t1: float) -> float:
        """Seconds ``[t0, t1]`` would take at the reference speed.

        Each stretch between kernel runs is scaled by the local pace of the
        sample that ends it; time spent in the kernel itself is left out.
        """
        paces = self._local_paces()
        first = max(bisect_right(self.samples, (t0,)) - 1, 0)
        total, cursor = 0.0, t0
        for (start, end), pace in zip(self.samples[first:], paces[first:]):
            stop = min(start, t1)
            if stop > cursor:
                total += (stop - cursor) * NOMINAL_S / pace
            cursor = max(cursor, end)
            if cursor >= t1:
                return total
        # after the last sample (not reached inside a ``with`` block)
        return total + (t1 - cursor) * NOMINAL_S / paces[-1]
