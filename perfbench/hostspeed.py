"""Host speed, measured by a fixed pure-Python kernel between timed calls.

The benchmark runs on a few cores of a shared host whose speed drifts: a
fixed loop runs 15-50% slower for seconds to minutes while neighbours are
busy, and the workload's wall and CPU time move with it.  A run therefore
interleaves short bursts of a fixed kernel with the workload's calls (about
a fifth of the time the calls took) and reports its times rescaled to the
kernel's reference speed:

    scaled time = measured time * REFERENCE_KERNEL_S / mean kernel time

Wall times are scaled by the kernel's mean wall time, CPU times by its mean
CPU time.  The two differ when the host takes the virtual CPU away (steal
time): the wall clock runs on, CPU time does not.

The kernel uses none of floordiag, so a change to the engine moves the
scaled times exactly as it moves the measured ones; only the host's speed
cancels.  It does what the engine does most (small dicts keyed by ints and
tuples, products of exponent-to-coefficient dicts, sorted tuples,
frozensets), so the host's slow spells hit both alike.  The mean, not the
median, of the kernel times is used: the workload's time is a sum over the
same spells, slow ones included.
"""

from __future__ import annotations

from time import perf_counter, thread_time
from typing import List

# Mean kernel time on the quiet 2-vCPU host where the benchmark was defined;
# it only sets the scale of the scaled times.
REFERENCE_KERNEL_S = 2.0e-3

SHARE = 0.2  # kernel time per second of timed calls


def kernel() -> int:
    """One fixed unit of dict, tuple and small-integer work (about 2 ms)."""
    p = {e: (e * 7919) % 97 + 1 for e in range(-12, 13, 2)}
    q = p
    for _ in range(3):
        c = {}
        for e, v in q.items():
            for f, w in p.items():
                c[e + f] = c.get(e + f, 0) + v * w
        q = c
    table = {}
    for i in range(1000):
        t = (i % 17, i % 5, i // 7)
        table[t] = table.get(t, 0) + 1
    for i in range(400):
        t = tuple(sorted((i % 11, i % 7, i % 5, i // 13)))
        table[t] = table.get(t, 0) + 1
    ordered = sorted(table, key=lambda t: (t[-1], t[0]))
    return len(q) + len({frozenset(t) for t in ordered})


class Meter:
    """Kernel wall and CPU times collected in bursts over one measured interval."""

    def __init__(self) -> None:
        self.walls: List[float] = []
        self.cpus: List[float] = []

    def burst(self, seconds: float) -> None:
        """Run the kernel for `seconds`, and at least once."""
        end = perf_counter() + seconds
        while True:
            c0, t0 = thread_time(), perf_counter()
            kernel()
            t1, c1 = perf_counter(), thread_time()
            self.walls.append(t1 - t0)
            self.cpus.append(c1 - c0)
            if t1 >= end:
                return

    def wall_scale(self) -> float:
        """Factor that turns measured wall times into times at the reference speed."""
        return REFERENCE_KERNEL_S * len(self.walls) / sum(self.walls)

    def cpu_scale(self) -> float:
        """Factor that turns measured CPU times into times at the reference speed."""
        return REFERENCE_KERNEL_S * len(self.cpus) / sum(self.cpus)
