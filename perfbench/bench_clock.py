"""Reference kernel that makes op times comparable across host load.

The benchmark runs on a few cores of a shared host.  Other tenants slow
the program down in phases that last seconds to minutes: the same op
takes from 1.0x to 2x its fastest time, and no number of passes filters
out a phase longer than a run.  So the benchmark runs a fixed reference
kernel between ops, at least every ``INTERVAL_S``, and divides each op
time by the median kernel time around it.  Multiplied by the kernel's
time on an unloaded machine (``REFERENCE_MS``), an op time reads as ms on
that machine.

The kernel is plain Python from the standard library and never calls the
program, so a faster program gives a smaller ratio and a loaded host does
not.  Load slows kinds of code by different amounts, and which kind most
changes from one hour to the next: in log terms the ops slowed 0.4 to
1.1 times as much as a kernel confined to a few KB, and 0.9 to 1.4 times
as much as one reading at random over several MB.  So the kernel does
both: a min-plus row fill over large integers (the shape of the payment
DP), Fraction arithmetic (min contracts, costs and demand scans), a
bitmask-indexed table (value tables) and reads of big integers at random
places in a list of several MB.  Over six runs of ``hardness_demand``
the median op time ranged over 77 % of its middle value unscaled and
6.5 % scaled.

Times are CPU time of the benchmark process (``time.process_time_ns``).
An op runs in this process on this thread and waits on nothing, so its
CPU time is its wall time minus the time the host gave the core to
someone else.
"""

from __future__ import annotations

import bisect
import random
import resource
import statistics
import time
from fractions import Fraction

# median CPU ms of kernel_ns() between ops in the least loaded run seen
# on a 2-core x86-64 VM with CPython 3.11.7: reported times are ms of
# that machine unloaded
REFERENCE_MS = 2.0
INTERVAL_S = 0.05
# kernel samples, nearest in time, whose median scales one op (about
# a third of a second of run)
WINDOW = 7

clock = time.process_time_ns


def _kernel_data() -> tuple[list[int], list[int], float, int]:
    cpu_before = clock()
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = list(range(10**12, 10**12 + 7919 * 250_000, 7919))
    rng = random.Random(20251120)
    reads = [rng.randrange(len(values)) for _ in range(2_500)]
    rss_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return values, reads, (rss_after - rss_before) / 1024, clock() - cpu_before


# built once at import, before the program is imported: the benchmark
# takes KERNEL_RSS_MB off the peak resident memory and KERNEL_BUILD_NS
# off the set-up time
_VALUES, _READS, KERNEL_RSS_MB, KERNEL_BUILD_NS = _kernel_data()


def _min_plus_rows() -> int:
    weights = (0, 3, 7, 12, 18, 25)
    pay = (0, 10**20 + 7, 2 * 10**20 + 3, 3 * 10**20 + 11, 5 * 10**20,
           8 * 10**20 + 1)
    size = 400
    prev = [t * 10**18 + (t * 7919) % 101 for t in range(size)]
    row: list = [None] * size
    choice: list = [None] * size
    for t in range(size):
        best = best_choice = None
        for ell, w in enumerate(weights):
            idx = t - w
            if idx < 0:
                idx = 0
            cand = prev[idx] + pay[ell]
            if best is None or cand < best:
                best, best_choice = cand, (ell, idx)
        row[t] = best
        choice[t] = best_choice
    return row[-1] % 97 + choice[-1][0]


def _fractions() -> int:
    acc = Fraction(0)
    best = Fraction(-1)
    x = Fraction(1, 3)
    for i in range(1, 70):
        c = Fraction(i % 17 + 1, i % 13 + 2)
        v = c * x - Fraction(i, 64)
        acc += v
        if v / (c + 1) > best:
            best = v / (c + 1)
    return acc.numerator % 97 + best.denominator % 89


def _bitmask_table() -> int:
    m = 8
    table = [0] * (1 << m)
    by_set = {}
    for mask in range(1 << m):
        members = frozenset(a for a in range(m) if mask >> a & 1)
        v = 3 * len(members) + (mask & 5)
        by_set[members] = v
        table[mask] = v
    best = 0
    for mask in range(1 << m):
        best = max(best, table[mask] - (mask & 7))
    return best + len(by_set)


def _random_reads() -> int:
    values = _VALUES
    total = 0
    acc = Fraction(0)
    for j, i in enumerate(_READS):
        total += values[i]
        if j % 20 == 0:
            acc += Fraction(values[i] % 1000 + 1, j + 1)
    return total % 97 + acc.denominator % 89


def kernel_ns() -> int:
    """CPU ns of one run of the reference kernel."""
    t0 = clock()
    _min_plus_rows()
    _fractions()
    _bitmask_table()
    _random_reads()
    return clock() - t0


class Scale:
    """Kernel samples of one run, and the op-time scale they give."""

    def __init__(self):
        self.at: list[int] = []      # perf_counter_ns of each sample
        self.ns: list[int] = []
        self.next_at = 0

    def sample(self) -> None:
        now = time.perf_counter_ns()
        self.at.append(now)
        self.ns.append(kernel_ns())
        self.next_at = now + int(INTERVAL_S * 1e9)

    def maybe_sample(self) -> None:
        if time.perf_counter_ns() >= self.next_at:
            self.sample()

    def factor(self, at: int) -> float:
        """Reference kernel time over the median kernel time near ``at``."""
        i = bisect.bisect(self.at, at)
        lo = max(0, min(i - WINDOW // 2, len(self.ns) - WINDOW))
        near = self.ns[lo:lo + WINDOW]
        return REFERENCE_MS * 1e6 / statistics.median(near)

    def median_ms(self) -> float:
        return statistics.median(self.ns) / 1e6
