"""Bench-side reference answers for the output checks.

Everything here is written against the set constructions directly and
shares no code with the library, so a check built on it can catch a
library answer that is wrong, not only one that changed. The enclosures
that have no closed form were recorded once from the library and are
loaded from ``ref/recorded.json``; two sound enclosures of one value
must intersect, so a later answer that misses its recorded enclosure is
wrong.
"""

from __future__ import annotations

import bisect
import json
from pathlib import Path
from typing import List, Sequence, Tuple

RECORDED = Path(__file__).resolve().parent / "ref" / "recorded.json"


def load_recorded() -> dict:
    with open(RECORDED) as fh:
        return json.load(fh)


def corner1d_descent(
    x: float, shift: float, n: int, ell: float, precision: float
) -> Tuple[float, float]:
    """Enclosure of the distance from x to the 1-D corner set K(n, ell) + shift.

    Cells are interval hulls whose two endpoints belong to the set, so the
    nearest endpoint seen is an upper bound and any cell farther than it
    is dropped. The walk stops once the enclosure is narrower than
    precision.
    """
    y = x - shift
    cells = [(-1.0, 1.0)]
    upper = min(abs(y + 1.0), abs(y - 1.0))
    lower = 0.0 if -1.0 <= y <= 1.0 else upper
    while upper - lower > precision:
        grown = []
        for lo, hi in cells:
            length = hi - lo
            child = length * ell / 2.0
            pitch = (length - child) / (n - 1)
            for i in range(n):
                clo = lo + i * pitch
                chi = clo + child
                upper = min(upper, abs(y - clo), abs(y - chi))
                gap = 0.0 if clo <= y <= chi else min(abs(y - clo), abs(y - chi))
                if gap <= upper:
                    grown.append((clo, chi))
        if not grown:
            return upper, upper
        cells = grown
        lower = min(
            0.0 if lo <= y <= hi else min(abs(y - lo), abs(y - hi)) for lo, hi in cells
        )
    return lower, upper


def corner_dist_upper(
    point: Sequence[float], shift: Sequence[float], n: int, ell: float, precision: float
) -> float:
    """Upper bound on the max-norm distance from point to a shifted corner product.

    The max-norm distance to a product set is the largest per-axis distance.
    """
    return max(
        corner1d_descent(x, s, n, ell, precision)[1] for x, s in zip(point, shift)
    )


def cantor_gaps(depth: int) -> List[Tuple[float, float]]:
    """Open middle-third gaps of [0, 1] down to the given depth."""
    gaps = []
    pieces = [(0.0, 1.0)]
    for _ in range(depth):
        grown = []
        for a, b in pieces:
            third = (b - a) / 3.0
            gaps.append((a + third, b - third))
            grown.extend(((a, a + third), (b - third, b)))
        pieces = grown
    return sorted(gaps)


class IntervalUnion:
    """Union of the closed intervals left when open gaps are cut from a hull."""

    def __init__(self, hull: Tuple[float, float], gaps: Sequence[Tuple[float, float]]):
        edges = [hull[0]]
        for lo, hi in sorted(gaps):
            edges.extend((lo, hi))
        edges.append(hull[1])
        self.starts = edges[0::2]
        self.ends = edges[1::2]

    def dist(self, x: float) -> float:
        i = bisect.bisect_right(self.starts, x)
        best = float("inf")
        if i > 0:
            if x <= self.ends[i - 1]:
                return 0.0
            best = x - self.ends[i - 1]
        if i < len(self.starts):
            best = min(best, self.starts[i] - x)
        return best


def linf_contains(
    outer_center: Sequence[float],
    outer_radius: float,
    inner_center: Sequence[float],
    inner_radius: float,
) -> bool:
    """Whether the max-norm ball (inner) lies inside the max-norm ball (outer)."""
    reach = max(abs(a - b) for a, b in zip(outer_center, inner_center))
    return reach + inner_radius <= outer_radius


def overlaps(lo: float, hi: float, ref: Sequence[float]) -> bool:
    return lo <= ref[1] and ref[0] <= hi
