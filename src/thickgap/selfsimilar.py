"""Closed-form and certified bounds for self-similar ball systems.

Corner families admit exact statistics (gap width, thickness, denseness
radius). General homothetic systems get a certified upper bound on the
root hole radius via branch-and-bound over the region outside the
children, which in turn yields a thickness lower bound, a denseness
radius, and a robustness bound under small perturbations.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import List, Tuple

from .ballsystem import DEFAULT_NODE_BUDGET, CornerFamilyParams, HomotheticIFS
from .geometry import IntervalBound, NormKind, Point, norm_distance


@dataclass(frozen=True)
class CornerStats:
    """Exact statistics of the corner family with n blocks of width ell."""

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
    """Gap width, thickness, and denseness radius of the corner family."""
    g = CornerFamilyParams(n, ell, d).g  # the family's checks on n, ell and d
    tau = ell * (n - 1) / (2 - n * ell)
    r_dense = ell + g / 2
    return CornerStats(n, ell, d, g, tau, r_dense)


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


def homothetic_h0_upper(
    ifs: HomotheticIFS,
    tol: float,
    *,
    norm: NormKind = NormKind.LINF,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> IntervalBound:
    """Certified enclosure of the normalized farthest point outside the children.

    The target is max over the root ball minus the child balls of
    min_i (dist(x, t_i) - lam_i) / (1 - lam_i), a quantity that bounds the
    root hole radius from above. Branch-and-bound over axis boxes: a box
    fully inside some child or fully outside the root is dropped, anything
    else is split until the Lipschitz upper bound meets the best value
    found at feasible box centers. An empty region yields [0, tol].
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    d = len(ifs.maps[0][1])
    zero = (0.0,) * d
    lip = max(1.0 / (1.0 - lam) for lam, _ in ifs.maps)
    best_lower = 0.0
    heap: List[Tuple[float, int, Tuple[float, ...], Tuple[float, ...]]] = []
    counter = 0

    def push(lo: Tuple[float, ...], hi: Tuple[float, ...]) -> None:
        nonlocal counter, best_lower
        nearest = tuple(min(max(a, 0.0), b) for a, b in zip(lo, hi))
        if norm_distance(nearest, zero, norm) > 1.0:
            return
        center = tuple(0.5 * (a + b) for a, b in zip(lo, hi))
        rho = norm_distance(tuple(0.5 * (b - a) for a, b in zip(lo, hi)), zero, norm)
        for lam, t in ifs.maps:
            if norm_distance(center, t, norm) + rho <= lam:
                return
        point = center
        nc = norm_distance(center, zero, norm)
        if nc > 1.0:
            if norm is NormKind.LINF:
                point = tuple(min(1.0, max(-1.0, c)) for c in center)
            else:
                point = tuple(c / nc for c in center)
        # inside a child the objective is negative, so taking the max stays sound
        best_lower = max(best_lower, _phi(point, ifs, norm))
        upper = _phi(center, ifs, norm) + lip * rho
        if upper > best_lower:
            counter += 1
            heapq.heappush(heap, (-upper, counter, lo, hi))

    push((-1.0,) * d, (1.0,) * d)
    nodes = 0
    converged = True
    while heap:
        top = -heap[0][0]
        if top <= best_lower + tol:
            break
        if nodes >= node_budget:
            converged = False
            break
        nodes += 1
        _, _, lo, hi = heapq.heappop(heap)
        axis = max(range(d), key=lambda i: hi[i] - lo[i])
        mid = 0.5 * (lo[axis] + hi[axis])
        push(lo, tuple(mid if i == axis else h for i, h in enumerate(hi)))
        push(tuple(mid if i == axis else a for i, a in enumerate(lo)), hi)
    upper_end = best_lower
    if heap:
        upper_end = max(upper_end, -heap[0][0])
    # absorb float rounding in the objective evaluations; the region max is
    # never negative, so the lower end stays clamped at zero
    pad = 1e-12 * max(1.0, abs(upper_end))
    return IntervalBound(max(0.0, best_lower - pad), upper_end + pad, tol, converged)


def homothetic_bounds(
    ifs: HomotheticIFS,
    tol: float,
    *,
    norm: NormKind = NormKind.LINF,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> HomotheticBounds:
    """Thickness lower bound and denseness radius from the root hole estimate."""
    h0 = homothetic_h0_upper(ifs, tol, norm=norm, node_budget=node_budget)
    lam_min = min(lam for lam, _ in ifs.maps)
    lam_max = max(lam for lam, _ in ifs.maps)
    tau_lower = lam_min / h0.hi if h0.hi > 0 else math.inf
    return HomotheticBounds(h0, tau_lower, 2 * lam_max + h0.hi)


def perturbation_bound(tau: float, eps: float, lam: float) -> float:
    """Thickness guaranteed after distorting centers by a relative eps.

    lam is the smallest child-to-parent radius ratio of the undistorted
    system; the bound degrades continuously and returns tau at eps = 0.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if not 0 <= eps < 1:
        raise ValueError("eps must lie in [0, 1)")
    if not 0 < lam < 1:
        raise ValueError("lam must lie in (0, 1)")
    return tau / (1 + tau * 2 * eps / ((1 + eps) * lam))
