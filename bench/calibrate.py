"""Machine-speed calibration, so that timings from a shared host compare.

The tuning host is a VM whose speed drifts by 15-30% in phases lasting from
under a second to minutes: identical work just runs slower, with no time
stolen from the process, so neither CPU time nor pinning helps.  While a run
measures, a ``Sampler`` therefore runs a fixed pure-Python kernel every
``PERIOD_S`` of wall time, from a SIGALRM timer in the main thread, inside
ops as well as between them.  Afterwards each piece of op time between two
kernels is scaled by ``REF_KERNEL_S / median(kernel times within NEAR_S)``,
and the kernels' own time is taken out of the op: a timing reads as it
would at the host's quiet-phase speed, and a long op follows the phases it
runs through.

The kernel uses no cakelab code, so a change to cakelab moves the ops but not
the kernel.  It does the kind of work cakelab's hot paths do: small
NamedTuple letters and a stack-based free reduction, tuple slicing, hashing
and sorting, frozen dataclass instances and Fractions.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from time import perf_counter
from typing import NamedTuple

# Median kernel time on the tuning host (Intel Xeon, 2.0 GHz, 2 vCPUs) in a
# quiet phase, Python 3.11.
REF_KERNEL_S = 0.0050
# Wall time between kernel runs.
PERIOD_S = 0.1
# A piece of op time is scaled by the median of the kernels within this many
# seconds of the kernel nearest to it.
NEAR_S = 0.5


class _Letter(NamedTuple):
    gen: int
    sign: int


@dataclass(frozen=True)
class _Cell:
    a: int
    b: tuple


def kernel() -> int:
    """Fixed work, about REF_KERNEL_S on the tuning host."""
    x = 12345
    counts: dict = {}
    total = 0
    for _ in range(25):
        seq = []
        for _ in range(50):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            seq.append(_Letter((x >> 8) % 5, 1 if x & 1 else -1))
        out: list = []
        for lt in seq:
            if out and out[-1].gen == lt.gen and out[-1].sign == -lt.sign:
                out.pop()
            else:
                out.append(lt)
        t = tuple(out)
        rots = [t[i:] + t[:i] for i in range(0, len(t), 4)]
        rots.sort()
        for r in rots:
            counts[r] = counts.get(r, 0) + 1
        total += len(counts)
    triples = []
    for i in range(3000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        triples.append((x % 97, x % 1013, i))
    triples.sort()
    total += len(set(triples[::3]))
    acc = Fraction(0)
    for i in range(1000):
        cell = _Cell(i, (i, i + 1))
        total += cell.b[1] - cell.a
        if i % 50 == 0:
            acc += Fraction(i, 7)
    return total + acc.numerator


class Sampler:
    """Kernel runs every PERIOD_S while the ``with`` block runs; afterwards,
    measured intervals [a, b] inside the block convert to reference speed.

    Intervals must be taken with ``time.perf_counter``.  A kernel never
    straddles one of their ends: it runs inside the signal handler, between
    two bytecodes of the code being measured."""

    def __init__(self, warmup: int = 3):
        for _ in range(warmup):
            kernel()
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._running = False

    def _tick(self, signum=None, frame=None) -> None:
        if self._running:
            return
        self._running = True
        try:
            t0 = perf_counter()
            kernel()
            self.starts.append(t0)
            self.ends.append(perf_counter())
        finally:
            self._running = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.starts:
            self._tick()
        self.samples = [e - s for s, e in zip(self.starts, self.ends)]
        self._before = [0.0, *accumulate(self.samples)]
        mids = [(s + e) / 2 for s, e in zip(self.starts, self.ends)]
        self._mids = mids
        self._local = []
        lo = hi = 0
        for m in mids:
            while mids[lo] < m - NEAR_S:
                lo += 1
            while hi < len(mids) and mids[hi] <= m + NEAR_S:
                hi += 1
            self._local.append(REF_KERNEL_S / statistics.median(self.samples[lo:hi]))

    def factor(self) -> float:
        """The whole block's reference / measured speed."""
        return REF_KERNEL_S / statistics.median(self.samples)

    def kernel_time(self, a: float, b: float) -> float:
        """Kernel time inside [a, b]."""
        i, j = bisect_left(self.starts, a), bisect_left(self.starts, b)
        return self._before[j] - self._before[i]

    def _factor_at(self, t: float) -> float:
        k = bisect_left(self._mids, t)
        if k == len(self._mids) or (k > 0 and t - self._mids[k - 1] < self._mids[k] - t):
            k -= 1
        return self._local[k]

    def ref_time(self, a: float, b: float) -> float:
        """[a, b] without its kernels, each piece at reference speed."""
        i, j = bisect_left(self.starts, a), bisect_left(self.starts, b)
        cuts = [a]
        for k in range(i, j):
            cuts += [self.starts[k], self.ends[k]]
        cuts.append(b)
        return sum((q - p) * self._factor_at((p + q) / 2)
                   for p, q in zip(cuts[::2], cuts[1::2]))
