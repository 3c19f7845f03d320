"""Speed samples of the host, and operation times rescaled to a reference speed.

A shared machine runs the same code at different speeds from one moment to
the next: on a 2-vCPU VM the same Python code took 1x to about 1.9x its
fastest time, flipping within tens of milliseconds, and slow stretches
lasted up to tens of seconds. Best-of-rounds removes short stretches but
not a run spent mostly in a slow one. So while the rounds run, a timer
signal samples the host every SAMPLE_EVERY_S: a sample times a fixed piece
of pure Python shaped like the library's hot paths (small slotted objects
holding tuple centres and float radii, built into a tree, then a max-norm
distance to each leaf). An operation's time, less the samples taken inside
it, is multiplied by

    REFERENCE_PROBE_S / (mean sample time from WINDOW_S before it to WINDOW_S after it)

which gives its time on a host that runs the sample in REFERENCE_PROBE_S,
about the full speed of that VM. Sampling inside a long operation follows
the flips it spans; a probe only between operations could not. The
rescaling cancels a slowdown only as far as the library slows like the
sample: a tight integer loop slowed less than the library did and left
about half of the run-to-run spread, this shape slowed alike. The mean
leaves out samples over twice the window's median: a sample the scheduler
cut into says nothing about the operation. The samples' own figures go
into the report file.
"""

from __future__ import annotations

import math
import signal
import statistics
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter

PROBE_DEPTH, PROBE_FANOUT = 2, 7  # 57 nodes, about 60 us at full speed
REFERENCE_PROBE_S = 60e-6
SAMPLE_EVERY_S = 0.02
WINDOW_S = 0.05


class _Node:
    __slots__ = ("center", "radius", "children")

    def __init__(self, center, radius):
        self.center = center
        self.radius = radius
        self.children = None


def probe() -> float:
    """The time of one run of the probe."""
    start = perf_counter()
    level = [_Node((0.0, 0.0), 1.0)]
    for _ in range(PROBE_DEPTH):
        below = []
        for node in level:
            (x, y), r = node.center, node.radius
            node.children = [
                _Node((x + 0.5 * r * k, y - 0.5 * r), 0.2 * r)
                for k in range(-(PROBE_FANOUT // 2), PROBE_FANOUT // 2 + 1)
            ]
            below.extend(node.children)
        level = below
    acc = 0.0
    for node in level:
        acc += max(abs(node.center[0] - 0.3), abs(node.center[1] + 0.1)) - node.radius
    return perf_counter() - start


def probe_median(runs: int = 5) -> float:
    return sorted(probe() for _ in range(runs))[runs // 2]


def at_reference(seconds: float, probe_s: float) -> float:
    """A time taken while the probe ran in probe_s, at the reference speed."""
    return seconds * REFERENCE_PROBE_S / probe_s


class Clock:
    """The speed samples of one run, taken from SIGALRM while it is started."""

    def __init__(self) -> None:
        self.at = array("d")  # when each sample started
        self.took = array("d")  # how long it took

    def _sample(self, signum, frame) -> None:
        self.at.append(perf_counter())
        self.took.append(probe())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def rescale(self, start: float, end: float) -> float:
        """The time of an operation that ran from start to end, at the reference speed."""
        lo = bisect_left(self.at, start - WINDOW_S)
        hi = bisect_right(self.at, end + WINDOW_S)
        if lo == hi:  # no sample near: the nearest ones
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        inside = math.fsum(self.took[bisect_left(self.at, start) : bisect_left(self.at, end)])
        near = self.took[lo:hi]
        if not near:  # no sample at all: a run too short to sample
            return end - start
        cut = 2 * statistics.median(near)
        kept = [t for t in near if t <= cut]
        return at_reference(end - start - inside, math.fsum(kept) / len(kept))
