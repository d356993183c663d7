"""A clock for the benchmark, and the pace that steadies it.

Calls are timed in CPU time of the main thread.  matcanon is single-threaded
and does no I/O inside a call (the CLI reads two small files), so on an idle
core CPU time equals wall time.  The thread clock is used, not the process
clock: while a process-wide CPU timer such as ITIMER_PROF is armed, Linux
advances the process clock only at scheduler ticks (4 ms steps at HZ=250).

CPU time still moves with the host: on a shared 2-core VM the same loop took
0.8 to 1.5 times its usual CPU time, in phases lasting seconds.  So a fixed
reference kernel of the benchmark's own is timed right before and after each
measured piece of work, and the work's CPU time is scaled by the kernel's
nominal time over the mean of those two readings.  Paced times are seconds
at the nominal host speed.  This module imports nothing from matcanon.
"""

from __future__ import annotations

import gc
import random
import time
from fractions import Fraction

CLOCK = time.thread_time


def _reference_rank(rows, inverse, reduce):
    """Rank by Gauss-Jordan elimination.  workloads.Plain.rank does the same
    on matcanon's field contexts; this copy needs no matcanon, so that the
    import of matcanon can be paced too."""
    work = [list(row) for row in rows]
    rank = 0
    for c in range(len(work[0])):
        piv = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        f = inverse(work[rank][c])
        work[rank] = [reduce(f * v) for v in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][c]:
                g = work[i][c]
                work[i] = [reduce(v - g * w)
                           for v, w in zip(work[i], work[rank])]
        rank += 1
    return rank


class Pace:
    """The host's current speed, read from a fixed reference kernel.

    The kernel is the benchmark's own, so a change to matcanon cannot move
    it: the rank of a fixed 9 x 9 matrix over GF(65521) and of a 6 x 6
    rational matrix, the kind of Python integer and Fraction work matcanon
    does.  A reading is the per-run time of the faster of two batches of
    RUNS runs, with the collector off; NOMINAL_S is the time of one run on
    an idle core of a 2-core x86-64 VM, Python 3.11.
    """

    NOMINAL_S = 5.8e-4
    RUNS = 4
    P = 65521

    def __init__(self):
        rng = random.Random(0)
        self._gfp = [[rng.randrange(self.P) for _ in range(9)]
                     for _ in range(9)]
        self._q = [[Fraction(rng.randint(-3, 3)) for _ in range(6)]
                   for _ in range(6)]

    def kernel(self):
        p = self.P
        _reference_rank(self._gfp, lambda x: pow(x, p - 2, p),
                        lambda x: x % p)
        _reference_rank(self._q, lambda x: 1 / x, lambda x: x)

    def reading(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(2):
                t0 = CLOCK()
                for _ in range(self.RUNS):
                    self.kernel()
                times.append((CLOCK() - t0) / self.RUNS)
            return min(times)
        finally:
            if enabled:
                gc.enable()

    def scale(self, cpu, before, after):
        """Paced seconds of `cpu` CPU seconds spent between two readings."""
        return cpu * 2.0 * self.NOMINAL_S / (before + after)

    def unscale(self, paced, reading):
        """CPU seconds that take `paced` paced seconds at the speed of one
        reading."""
        return paced * reading / self.NOMINAL_S
