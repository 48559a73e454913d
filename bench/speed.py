"""Machine-speed sampling during a job, to rescale its wall time.

The 2-core machines this benchmark runs on share their cores: over a
few seconds the same pure-Python loop can run anywhere between 1.0x and
1.6x its best time, and neighbouring 20-second runs differ by a quarter
in wall time for identical work.  A median over more jobs does not remove
a slowdown that lasts the whole run, so the benchmark samples the
machine's speed *while the job runs*: every ``INTERVAL_S`` a timer
signal interrupts the job and times ``spin()``, a fixed loop of the same
kind of work (small list copies, bit operations, a generator, tuples and
a dict).  The job's wall time, less the time spent in the handler, is
rescaled by the mean speed the samples saw, to a machine on which
``spin()`` takes ``REFERENCE_SPIN_S``:

    solve_s = wall_s * mean(REFERENCE_SPIN_S / sample_s)

The mean of speeds weighs every slice of the job equally, so a job that
ran half slow and half fast is scaled by the average of the two; a
median over the samples would pick one of them.

Both the rescaled and the raw wall times are reported.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.001  # 10 ms sampling left twice the spread; this costs ~6% of the job
REFERENCE_SPIN_S = 60e-6  # a round number near the spin's time on the 2-core machine


def _count(n):
    yield from range(n)


def spin() -> int:
    """Fixed work, about 60 us: the calibration unit."""
    rows = [0] * 6
    acc = 0
    for i in range(75):
        r = rows[:]
        r[i % 6] |= 1 << (i % 5)
        acc ^= r[i % 6] | (acc >> 1)
        rows = r
    for v in _count(60):
        pair = (v, v + 1)
        acc += len({pair: v}) + (v & 3)
    return acc


class Speedometer:
    """Samples ``spin()`` on a timer signal while the ``with`` body runs.

    Main thread only (signal handlers run there); nothing else in the
    process may use SIGALRM while it is active.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        spin()
        self.samples.append(perf_counter() - t0)

    def __enter__(self) -> "Speedometer":
        self.samples.clear()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.spent_s = sum(self.samples)  # time the samples took from the body
        if not self.samples:  # a body shorter than one interval
            self._tick(None, None)

    def scale(self) -> float:
        """Factor that turns wall time here into reference seconds."""
        return statistics.fmean(REFERENCE_SPIN_S / s for s in self.samples)
