"""Norms, points, closed balls and spheres in R^d.

Points are plain tuples of floats so the hot branch-and-bound loops stay
allocation-light. One norm is fixed per workspace; balls and spheres are
always closed and always taken in that norm. Linf balls are axis-aligned
cubes, which the rest of the package exploits heavily.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Sequence, Tuple

Point = Tuple[float, ...]


class NormKind(Enum):
    LINF = "linf"
    L2 = "l2"
    L1 = "l1"


def as_point(coords: Iterable[float]) -> Point:
    p = tuple(float(c) for c in coords)
    if not p:
        raise ValueError("a point needs at least one coordinate")
    for c in p:
        if not math.isfinite(c):
            raise ValueError("point coordinates must be finite")
    return p


def _require_same_dim(p: Sequence[float], q: Sequence[float]) -> None:
    if len(p) != len(q):
        raise ValueError(f"dimension mismatch: {len(p)} vs {len(q)}")


def _linf(p: Sequence[float], q: Sequence[float]) -> float:
    return max(map(abs, map(operator.sub, p, q)))


def _l2(p: Sequence[float], q: Sequence[float]) -> float:
    return math.sqrt(math.fsum([(a - b) ** 2 for a, b in zip(p, q)]))


def _l1(p: Sequence[float], q: Sequence[float]) -> float:
    return math.fsum(map(abs, map(operator.sub, p, q)))


_KERNELS = {NormKind.LINF: _linf, NormKind.L2: _l2, NormKind.L1: _l1}


def distance_kernel(norm: NormKind) -> Callable[[Sequence[float], Sequence[float]], float]:
    """The norm's distance function without the dimension check.

    Hot loops bind it once; it is what norm_distance evaluates, so both
    give the same floats. Points of unequal length are silently truncated.
    """
    try:
        return _KERNELS[norm]
    except (KeyError, TypeError):
        raise ValueError(f"unsupported norm {norm!r}") from None


def vector_size(v: Sequence[float], norm: NormKind) -> float:
    """Size of the vector v in the norm.

    The L2 form squares by x * x; the distance kernel's ** 2 differs from
    it in the last bit on some inputs, so the two are not interchangeable.
    """
    if norm is NormKind.LINF:
        return max(map(abs, v))
    if norm is NormKind.L2:
        return math.sqrt(math.fsum([x * x for x in v]))
    return math.fsum(map(abs, v))


def row_norms(arr: np.ndarray, norm: NormKind) -> np.ndarray:
    """Norm of every vector along the last axis of a numpy array."""
    import numpy as np

    if norm is NormKind.LINF:
        return np.abs(arr).max(axis=-1)
    if norm is NormKind.L2:
        return np.sqrt((arr * arr).sum(axis=-1))
    return np.abs(arr).sum(axis=-1)


def norm_distance(p: Sequence[float], q: Sequence[float], norm: NormKind) -> float:
    """Distance from p to q in the given norm."""
    _require_same_dim(p, q)
    return distance_kernel(norm)(p, q)


@dataclass(frozen=True)
class Ball:
    """Closed ball. Scaling keeps the center fixed."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", as_point(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError("ball radius must be positive and finite")

    @property
    def dimension(self) -> int:
        return len(self.center)


def trusted_ball(center: Point, radius: float) -> Ball:
    """A Ball from a float tuple and a float that already passed Ball's checks.

    Skips the checks: for balls built from a validated child block.
    """
    b = object.__new__(Ball)
    # object.__setattr__ keeps the fields in the instance's own slots;
    # writing to b.__dict__ would give every Ball a dict of its own
    object.__setattr__(b, "center", center)
    object.__setattr__(b, "radius", radius)
    return b


@dataclass(frozen=True)
class Sphere:
    """Boundary of the norm ball with the same center and radius."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", as_point(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError("sphere radius must be positive and finite")


def trusted_sphere(center: Point, radius: float) -> Sphere:
    """A Sphere around a float tuple that already passed as_point's checks.

    Skips the center's checks but keeps Sphere's radius check and error:
    for spheres around validated node centers.
    """
    if not (radius > 0 and math.isfinite(radius)):
        raise ValueError("sphere radius must be positive and finite")
    s = object.__new__(Sphere)
    object.__setattr__(s, "center", center)
    object.__setattr__(s, "radius", radius)
    return s


@dataclass(frozen=True)
class SphereUnion:
    """Union of at most m_bound spheres; the erasable objects of the game."""

    spheres: Tuple[Sphere, ...]
    m_bound: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "spheres", tuple(self.spheres))
        if not self.spheres:
            raise ValueError("sphere union must be nonempty")
        if len(self.spheres) > self.m_bound:
            raise ValueError(
                f"{len(self.spheres)} spheres exceed the recorded bound {self.m_bound}"
            )


@dataclass(frozen=True)
class IntervalBound:
    """Certified enclosure [lo, hi] with the tolerance it was produced at.

    converged is worked out, never passed: not (hi - lo > tol), so [inf, inf]
    counts as exact. An enclosure wider than tol (a search out of budget, or
    a rounding pad wider than tol) has converged=False and still valid
    bounds. A NaN lo, hi or tol is refused.
    """

    lo: float
    hi: float
    tol: float
    converged: bool = field(init=False)

    def __post_init__(self) -> None:
        lo, hi, tol = self.lo, self.hi, self.tol
        # every comparison with NaN is false, so both tests refuse it
        if not lo <= hi:
            raise ValueError(f"invalid enclosure [{lo}, {hi}]")
        if not tol >= 0:
            raise ValueError(f"tolerance must be nonnegative, got {tol}")
        object.__setattr__(self, "converged", not hi - lo > tol)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


def dist_point_ball(p: Sequence[float], ball: Ball, norm: NormKind) -> float:
    """Distance from p to the closed ball; 0 on the boundary and inside."""
    _require_same_dim(p, ball.center)
    return max(0.0, norm_distance(p, ball.center, norm) - ball.radius)


def dist_point_sphere(p: Sequence[float], sphere: Sphere, norm: NormKind) -> float:
    """Distance from p to the boundary sphere."""
    _require_same_dim(p, sphere.center)
    return abs(norm_distance(p, sphere.center, norm) - sphere.radius)


def ball_scale(ball: Ball, a: float) -> Ball:
    """Ball with the same center and radius scaled by a > 0."""
    if not a > 0:
        raise ValueError("scale factor must be positive")
    return Ball(ball.center, a * ball.radius)


def ball_contains(outer: Ball, inner: Ball, norm: NormKind) -> bool:
    """Exact containment test for norm balls: |c_o - c_i| + r_i <= r_o."""
    _require_same_dim(outer.center, inner.center)
    return norm_distance(outer.center, inner.center, norm) + inner.radius <= outer.radius


def balls_disjoint(a: Ball, b: Ball, norm: NormKind) -> bool:
    """Strict separation; touching closed balls are not disjoint."""
    return norm_distance(a.center, b.center, norm) > a.radius + b.radius
