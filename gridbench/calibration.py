"""Scaling of measured times to a fixed reference CPU speed.

On a shared host the CPU speed a process gets drifts, by up to 2x over
seconds to minutes, with other tenants' load; process CPU time drifts
with it, so neither wall nor CPU time repeats between runs.  The
benchmark therefore times a fixed reference workload right before and
right after each measured interval.  It is pure Python over sets,
tuples, dicts and lists, like the program's own kernels, but none of
its code, in two halves of about equal time: a flood fill of a small
box, whose data stays in the core's own cache, and a walk of dependent
lookups through a dict too large for it.  When the host gets busier the
program slows down less than the fill alone but about as much as the
two halves together: over 840 far-clusters requests on a shared 2-core
Xeon host, latency went as the fill's time to the power 0.76 and as the
whole reference's time to the power 0.94.  The reference runs in a
separate process with its garbage collector off, so nothing the program
under test allocates, caches or collects can change its time; the
benchmark waits while it runs.  An interval of t seconds bracketed by
references of r1 and r2 seconds is reported as
t * REFERENCE_S / ((r1 + r2) / 2), the time the same work would take on
a machine where the reference takes REFERENCE_S.  Around a one-off
interval (a set-up, a baseline row) r1 and r2 are medians of PER_SIDE
references each, because a single one varies by 2x or more on such a
host.

    python3 gridbench/calibration.py   # times one reference per input line
"""

from __future__ import annotations

import gc
import random
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Tuple, TypeVar

T = TypeVar("T")

#: The nominal time of `reference`, the speed every time is scaled to.
REFERENCE_S = 0.015
SIDE = 52
TABLE_SIZE = 50_000  # entries: megabytes, beyond the core's own cache
HOPS = 10_000
#: References timed on each side of a one-off interval; their median is used.
PER_SIDE = 3


def reference_fill() -> int:
    """Moore flood fill of a SIDE x SIDE box; returns the cells reached."""
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        following = []
        for x, y in frontier:
            for q in ((x - 1, y - 1), (x - 1, y), (x - 1, y + 1), (x, y - 1),
                      (x, y + 1), (x + 1, y - 1), (x + 1, y), (x + 1, y + 1)):
                if 0 <= q[0] < SIDE and 0 <= q[1] < SIDE and q not in seen:
                    seen.add(q)
                    following.append(q)
        frontier = following
    return len(seen)


def make_table() -> Tuple[List[Tuple[int, int]], Dict[Tuple[int, int], int]]:
    """TABLE_SIZE fixed random points, and each point's index."""
    rng = random.Random(0)
    keys = [(rng.randrange(1 << 20), rng.randrange(1 << 20))
            for _ in range(TABLE_SIZE)]
    return keys, {key: index for index, key in enumerate(keys)}


def reference_walk(keys, table) -> int:
    """HOPS lookups, each at a point chosen by the previous one's index."""
    key, total = keys[0], 0
    for hop in range(HOPS):
        index = table[key]
        total += index
        key = keys[(index * 2654435761 + hop) % len(keys)]
    return total


class Speed:
    """Reference timings, taken in a child process, around intervals.

    Use it as a context manager, so the child is stopped and waited for.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._child = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Speed":
        return self

    def __exit__(self, *exc) -> None:
        self._child.stdin.close()
        self._child.wait()
        self._child.stdout.close()

    def reference(self) -> float:
        """Time the reference once; returns its seconds."""
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        seconds = float(self._child.stdout.readline())
        self.samples.append(seconds)
        return seconds

    @staticmethod
    def scale(seconds: float, before: float, after: float) -> float:
        """Seconds measured between fills of `before` and `after` seconds."""
        return seconds * 2 * REFERENCE_S / (before + after)

    def settled(self) -> float:
        """The median of PER_SIDE reference timings, for a one-off interval."""
        return statistics.median(self.reference() for _ in range(PER_SIDE))

    def timed(self, fn: Callable[[], T]) -> Tuple[T, float, float]:
        """fn's result, its unscaled and its scaled seconds."""
        before = self.settled()
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        return result, seconds, self.scale(seconds, before, self.settled())

    def median_factor(self) -> float:
        """The scale factor at the median reference timing so far."""
        return REFERENCE_S / statistics.median(self.samples)


def serve() -> None:
    """Time one reference for each line read, and print its seconds."""
    keys, table = make_table()
    gc.disable()
    reference_fill()  # the first run warms the interpreter's caches
    reference_walk(keys, table)
    for _ in sys.stdin:
        start = time.perf_counter()
        reference_fill()
        reference_walk(keys, table)
        print(time.perf_counter() - start, flush=True)


if __name__ == "__main__":
    serve()
