"""Dimension lower bounds and the natural measure on a ball system.

The closed-form bound depends only on the thickness and the maximum
branching count. The Moran solver and the natural measure implement the
mass-distribution argument behind it: each node splits its mass among
children in proportion to a power of the radius ratios, with the power
chosen so the proportions sum to one.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from .ballsystem import ROOT, BallSystem, Word
from .geometry import Ball, Point, distance_kernel

_BISECT_LO = 1e-9
_BISECT_ITERS = 200


@dataclass(frozen=True)
class MoranSolve:
    """Root of sum(ratios^exponent) = 1 with the achieved residual.

    A single-child ratio list forces exponent 0; degenerate marks that case.
    """

    ratios: Tuple[float, ...]
    d: int
    exponent: float
    residual: float
    degenerate: bool = False


@dataclass(frozen=True)
class NaturalMeasure:
    depth: int
    masses: Dict[Word, float] = field(default_factory=dict)

    def mass(self, word: Word) -> float:
        return self.masses[word]


@dataclass(frozen=True)
class MeasureBoundReport:
    """Sampled check of the mass-of-a-ball inequality."""

    c: float
    beta: float
    samples: int
    violations: int
    worst_ratio: float


def dim_lower_bound(d: int, tau: float, m0: int) -> float:
    """Closed-form Hausdorff dimension lower bound from thickness tau.

    Evaluates d / (1 + log(1 + 1/tau) / log m0) exactly as stated; for
    d >= 2 the value can exceed the Moran exponent of concrete systems,
    so callers comparing the two should surface that caveat.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    if m0 < 2:
        raise ValueError("m0 must be >= 2")
    if d < 1:
        raise ValueError("d must be >= 1")
    return d / (1 + math.log(1 + 1 / tau) / math.log(m0))


def moran_exponent(ratios: Sequence[float], d: int) -> MoranSolve:
    """Solve sum(ratios^s) = 1 for s by bisection; s is the product d*beta.

    Solves are memoized per (ratios, d), since every node of a homothetic
    tree asks for the same one."""
    return _moran_solve(tuple(float(r) for r in ratios), d)


@functools.lru_cache(maxsize=1024)
def _moran_solve(rats: Tuple[float, ...], d: int) -> MoranSolve:
    if not rats:
        raise ValueError("ratios must be nonempty")
    if any(not 0 < r < 1 for r in rats):
        raise ValueError("ratios must lie in (0, 1)")
    if d < 1:
        raise ValueError("d must be >= 1")
    if len(rats) == 1:
        return MoranSolve(rats, d, 0.0, 0.0, degenerate=True)

    def total(s: float) -> float:
        return math.fsum(r**s for r in rats)

    lo, hi = _BISECT_LO, 64.0 * d
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if total(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    exponent = 0.5 * (lo + hi)
    return MoranSolve(rats, d, exponent, abs(total(exponent) - 1.0))


def natural_measure(sys: BallSystem, depth: int) -> NaturalMeasure:
    """Unit mass at the root, split by per-parent Moran proportions."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    masses: Dict[Word, float] = {ROOT: 1.0}
    frontier: List[Tuple[Word, float]] = [(ROOT, sys.root.radius)]
    for _ in range(depth):
        nxt: List[Tuple[Word, float]] = []
        for word, radius in frontier:
            radii = sys.child_block(word)[1]
            if not radii:
                continue
            weights = _child_weights(radius, radii, sys.dimension)
            parent_mass = masses[word]
            for j, r in enumerate(radii):
                child = word + (j,)
                masses[child] = parent_mass * weights[j]
                nxt.append((child, r))
        frontier = nxt
    return NaturalMeasure(depth, masses)


def _child_weights(radius: float, radii: Sequence[float], d: int) -> List[float]:
    """Each child's share of its parent's mass: q ** s for the child/parent
    radius ratios q, with s their Moran exponent."""
    rats = [r / radius for r in radii]
    s = moran_exponent(rats, d).exponent
    return [q**s for q in rats]


def _verify_separation(sys: BallSystem, c: float) -> None:
    R = sys.root.radius
    for dist, ra, rb in sys.root_sibling_pairs():
        gap = dist - ra - rb
        if gap < c * R - 1e-12 * R:
            raise ValueError(
                f"separation hypothesis fails at the root: gap {gap:.6g} "
                f"< c * radius = {c * R:.6g}"
            )


def _mass_in_ball(
    sys: BallSystem,
    query: Ball,
    cutoff: float,
    depth: int,
    dist: Callable[[Point, Point], float],
    weights: Dict[Word, List[float]],
) -> float:
    """Natural measure of query, from above: the tree is walked down to
    depth levels, and a node that meets the query there, or at radius at
    most cutoff, counts its full mass, as does a leaf.

    dist is the norm's distance kernel and weights a memo of _child_weights
    per word, shared by the calls of one check. The floats are those of a
    walk over the children's Balls with norm_distance: blocks hold the
    children's centers and radii bit for bit, a child's mass is its
    parent's times rats[j] ** s, and each node's children are summed by one
    math.fsum. fsum rounds the exact sum once, so leaving out the zeros of
    disjoint children changes no bit.
    """
    qc, qr = query.center, query.radius
    block, d = sys.child_block, sys.dimension

    def split(word: Word, radius: float, mass: float, depth_left: int) -> float:
        # the node at word meets the query, does not lie inside it and is
        # neither at the depth limit nor at most cutoff in radius
        centers, radii = block(word)
        if not radii:
            return mass
        w = weights.get(word)
        if w is None:
            w = weights[word] = _child_weights(radius, radii, d)
        parts = []
        for j, r in enumerate(radii):
            gap = dist(centers[j], qc)
            if gap > r + qr:
                continue
            m = mass * w[j]
            if gap + r <= qr or depth_left == 1 or r <= cutoff:
                parts.append(m)
            else:
                parts.append(split(word + (j,), r, m, depth_left - 1))
        return math.fsum(parts)

    root = sys.root
    gap = dist(root.center, qc)
    if gap > root.radius + qr:
        return 0.0
    if gap + root.radius <= qr or depth == 0 or root.radius <= cutoff:
        return 1.0
    return split(ROOT, root.radius, 1.0, depth)


def measure_ball_bound_check(
    sys: BallSystem, c: float, beta: float, samples: int, *, seed: int = 0
) -> MeasureBoundReport:
    """Sample balls and test mass(ball) <= (2/c)^(d*beta) * radius^(d*beta).

    The mass of a ball is over-approximated by truncating the tree once
    nodes are much smaller than the ball, so a passing sample is sound.
    Raises unless c and beta are positive and finite, and if the sibling
    separation constant c fails at the root.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not (0 < c and math.isfinite(c)):
        raise ValueError("c must be positive and finite")
    if not (0 < beta and math.isfinite(beta)):
        raise ValueError("beta must be positive and finite")
    _verify_separation(sys, c)
    rng = random.Random(seed)
    root = sys.root
    exponent = sys.dimension * beta
    const = (2.0 / c) ** exponent
    dist = distance_kernel(sys.norm)
    weights: Dict[Word, List[float]] = {}
    violations = 0
    worst = 0.0
    for _ in range(samples):
        center = tuple(
            rc + root.radius * rng.uniform(-1.0, 1.0) for rc in root.center
        )
        radius = root.radius * rng.uniform(0.05, 1.0)
        query = Ball(center, radius)
        mass_ub = _mass_in_ball(sys, query, radius / 64.0, 12, dist, weights)
        bound = const * radius**exponent
        ratio = mass_ub / bound if bound > 0 else math.inf
        worst = max(worst, ratio)
        if mass_ub > bound * (1 + 1e-9):
            violations += 1
    return MeasureBoundReport(c, beta, samples, violations, worst)
