"""Closed-form and certified bounds for self-similar ball systems.

Corner families admit exact statistics (gap width, thickness, denseness
radius). General homothetic systems get a certified upper bound on the
root hole radius via branch-and-bound over the region outside the
children, which in turn yields a thickness lower bound, a denseness
radius, and a robustness bound under small perturbations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .ballsystem import (
    CornerFamilyParams,
    HomotheticIFS,
    corner_dense_radius,
    corner_tau,
)
from .geometry import IntervalBound, NormKind, Point, norm_distance, vector_size
from .metrics import _bisect_box, _box_max, _finite1d_hole, _leaves_1d


@dataclass(frozen=True)
class CornerStats:
    """Exact statistics of the corner family with n blocks of width ell.
    r_dense is the exact family's denseness threshold, not a verdict on the
    float tree, which can need a few ulps more: 1 for (4, 0.4), 2 for (10, 0.19)."""

    n: int
    ell: float
    d: int
    g: float
    tau: float
    r_dense: float


@dataclass(frozen=True)
class HomotheticBounds:
    """Bounds derived from a certified root hole estimate.

    tau_lower bounds the thickness from below; every ball of relative
    radius dense_radius inside the root contains a child.
    """

    h0_upper: IntervalBound
    tau_lower: float
    dense_radius: float


def corner_stats(n: int, ell: float, d: int = 1) -> CornerStats:
    """Gap width, thickness, and denseness radius of the corner family: the
    exact family's threshold ell + g/2, rounded up; denseness_check decides the float tree."""
    g = CornerFamilyParams(n, ell, d).g  # the family's checks on n, ell and d
    return CornerStats(n, ell, d, g, corner_tau(n, ell), corner_dense_radius(n, ell))


def biebler_thickness(n: int, ell: float) -> Tuple[float, float]:
    """Planar cross-thickness of the corner family and its ratio to tau.

    Returns (tau_B, ratio); the ratio equals 2^(5/4)/sqrt(g) and always
    exceeds 2^(3/4) * sqrt(n-1).
    """
    stats = corner_stats(n, ell, 2)
    tau_b = (ell / 2) / math.sqrt(math.sqrt(2) * stats.g)
    return tau_b, stats.tau / tau_b


def _phi(x: Point, ifs: HomotheticIFS, norm: NormKind) -> float:
    return min(
        (norm_distance(x, t, norm) - lam) / (1.0 - lam) for lam, t in ifs.maps
    )


def _product_h0(ifs: HomotheticIFS) -> Optional[Tuple[float, float]]:
    """homothetic_h0_upper in closed form, as (lo, hi), for Linf systems
    whose maps share one ratio lam and factor into one 1-D system per axis
    (any norm in 1-D); None for every other system.

    There the objective is d(x, union of child cubes) / (1 - lam) outside
    the children, and the union is the product of each axis's child
    intervals [t - lam, t + lam]. The Linf distance to it is the largest
    per-axis distance, so the max over the root cube [-1, 1]^d is the
    largest over the axes of the max over [-1, 1] of the distance to that
    axis's intervals, a finite 1-D hole; 0 when they cover the root. Each
    value is a few roundings of floats of size at most 2, and dividing by
    1 - lam scales their error with it.
    """
    factors = ifs.axis_factors()
    if factors is None or len({lam for lam, _ in ifs.maps}) != 1:
        return None
    lam = ifs.maps[0][0]
    # one ratio: the factors list their translations in increasing order,
    # and the intervals' ends rise with them
    value = max(
        _finite1d_hole(_leaves_1d([t - lam for t in f.ts], [t + lam for t in f.ts]), -1.0, 1.0)
        for f in factors
    ) / (1 - lam)
    pad = 16 * math.ulp(2.0) / (1 - lam)
    return value - pad, value + pad


def homothetic_h0_upper(
    ifs: HomotheticIFS,
    tol: float,
    *,
    norm: NormKind = NormKind.LINF,
) -> IntervalBound:
    """Certified enclosure of the normalized farthest point outside the children.

    The target is max over the root ball minus the child balls of
    min_i (dist(x, t_i) - lam_i) / (1 - lam_i), a quantity that bounds the
    root hole radius from above. Linf systems that factor into one 1-D
    system per axis with one ratio get it in closed form (_product_h0),
    every other system by branch-and-bound (_h0_bnb).
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if norm is NormKind.LINF or ifs.dimension == 1:
        closed = _product_h0(ifs)
        if closed is not None:
            return IntervalBound(max(0.0, closed[0]), closed[1], tol)
    return _h0_bnb(ifs, tol, norm)


def _h0_bnb(ifs: HomotheticIFS, tol: float, norm: NormKind) -> IntervalBound:
    """homothetic_h0_upper by _box_max: a box fully inside some child or fully
    outside the root is dropped, anything else is bisected across its longest
    axis until the Lipschitz upper bound meets the best value found at
    feasible box centers. An empty region yields [0, tol]."""
    d = ifs.dimension
    lip = max(1.0 / (1.0 - lam) for lam, _ in ifs.maps)
    # a box is (serial, lo, hi): ties in the search go to the box made first
    serial = itertools.count()

    def evaluate(box):
        _, lo, hi = box
        nearest = tuple(min(max(a, 0.0), b) for a, b in zip(lo, hi))
        if vector_size(nearest, norm) > 1.0:
            return None
        center = tuple(0.5 * (a + b) for a, b in zip(lo, hi))
        rho = vector_size([0.5 * (b - a) for a, b in zip(lo, hi)], norm)
        for lam, t in ifs.maps:
            if norm_distance(center, t, norm) + rho <= lam:
                return None
        point = center
        nc = vector_size(center, norm)
        if nc > 1.0:
            if norm is NormKind.LINF:
                point = tuple(min(1.0, max(-1.0, c)) for c in center)
            else:
                point = tuple(c / nc for c in center)
        # inside a child the objective is negative, so taking the max stays sound
        return max(0.0, _phi(point, ifs, norm)), _phi(center, ifs, norm) + lip * rho

    def split(box):
        return [(next(serial), lo, hi) for lo, hi in _bisect_box(box[1], box[2])]

    root = (next(serial), (-1.0,) * d, (1.0,) * d)
    lower, upper = _box_max(root, evaluate, split, tol)
    # absorb float rounding in the objective evaluations; the region max is
    # never negative, so the lower end stays clamped at zero
    pad = 1e-12 * max(1.0, abs(upper))
    return IntervalBound(max(0.0, lower - pad), upper + pad, tol)


def homothetic_bounds(
    ifs: HomotheticIFS,
    tol: float,
    *,
    norm: NormKind = NormKind.LINF,
) -> HomotheticBounds:
    """Thickness lower bound and denseness radius from the root hole estimate."""
    h0 = homothetic_h0_upper(ifs, tol, norm=norm)
    lam_min = min(lam for lam, _ in ifs.maps)
    lam_max = max(lam for lam, _ in ifs.maps)
    tau_lower = lam_min / h0.hi if h0.hi > 0 else math.inf
    return HomotheticBounds(h0, tau_lower, 2 * lam_max + h0.hi)


def perturbation_bound(tau: float, eps: float, lam: float) -> float:
    """Thickness guaranteed after distorting centers by a relative eps.

    lam is the smallest child-to-parent radius ratio of the undistorted
    system; the bound degrades continuously and returns tau at eps = 0.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    if not 0 <= eps < 1:
        raise ValueError("eps must lie in [0, 1)")
    if not 0 < lam < 1:
        raise ValueError("lam must lie in (0, 1)")
    return tau / (1 + tau * 2 * eps / ((1 + eps) * lam))
