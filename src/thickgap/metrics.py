"""Certified distance, hole radius, thickness, and denseness verdicts.

Every public operation returns enclosures or sound verdicts, never bare float
estimates. Fast exact paths cover the structured generators: axis products of
1-D attractors, corner families among them, whose distances, Linf holes and
thickness come from one per-axis path padded outward by a few ulps; finite
1-D trees; the self-similar transfer. A best-first branch-and-bound covers
everything else, finite trees in d >= 2 among them, whose leaves it takes as
solid balls; each of its searches, _dist_bnb and _box_max, stops after
NODE_BUDGET node pops. An enclosure wider than its tolerance, out of budget
or padded past it, says so in its converged flag; its bounds stay valid.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import heapq
import itertools
import math
import weakref
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .geometry import (
    Ball,
    IntervalBound,
    NormKind,
    Point,
    as_point,
    distance_kernel,
    norm_distance,
    row_norms,
    vector_size,
)
from .ballsystem import (
    ROOT,
    AxisFactor,
    BallSystem,
    Word,
)

_MAX_RECORDS = 64
_MAX_SEARCHED_HOLES = 800  # holes one node-by-node thickness walk searches
# the node pops one _dist_bnb or _box_max search may make; a hole search's
# boxes and each box's distance search count apart
NODE_BUDGET = 200_000


@dataclass(frozen=True)
class NodeThicknessRecord:
    """One node's contribution to the thickness infimum."""

    word: Word
    child_min_radius: float
    h: IntervalBound
    ratio: IntervalBound


@dataclass(frozen=True)
class ThicknessReport:
    overall: IntervalBound
    per_node: Tuple[NodeThicknessRecord, ...]
    depth: int
    valid_all_depths: bool
    method: str

    @property
    def converged(self) -> bool:
        """The overall enclosure's flag: whether it is at most tol wide."""
        return self.overall.converged


@dataclass(frozen=True)
class DensenessReport:
    r: float
    verdict: str  # proven | refuted | unknown
    witness: Optional[Ball]
    grid_step: float
    method: str
    detail: str = ""


# -- exact 1-D descent on an axis factor ----------------------------------------


def _axis1d_dist(f: AxisFactor, y: float, tol: float) -> Tuple[float, float]:
    """Distance enclosure from y to the attractor K of f, in K's own
    coordinates (offset 0, scale 1) and before any rounding pad.

    A point in a gap between neighbouring child hulls, or outside the hull,
    resolves exactly: the hull ends of every copy of K lie in K. A point in
    child hull k is as far from K as its rescaled point (y - t_k) / lam_k
    is, times lam_k, since the disjoint hulls put the nearest point of K in
    that child's copy. A point still inside hulls stops with [0, width] once
    its current hull's width is at most tol.
    """
    starts, ends, ts, lams = f.starts, f.ends, f.ts, f.lams
    width = f.b - f.a
    last = len(starts) - 1
    scale = 1.0
    while True:
        k = bisect.bisect_right(starts, y) - 1
        if k >= 0 and y <= ends[k]:
            scale *= lams[k]
            if scale * width <= tol:
                return 0.0, scale * width
            y = (y - ts[k]) / lams[k]
            continue
        left = y - ends[k] if k >= 0 else math.inf
        right = starts[k + 1] - y if k < last else math.inf
        out = scale * min(left, right)
        return out, out


def _corner1d_dist_batch(ys: np.ndarray, f: AxisFactor, stop: float = 0.0) -> np.ndarray:
    """_axis1d_dist(f, y, stop)[1] at every y of ys, bit for bit, for a
    factor whose maps share one ratio; an array of ys's shape.

    The same float operations on arrays: np.searchsorted(..., side="right")
    in place of bisect, the same hull test, exit value and rescaling. With
    one ratio every point still descending shares one scale, so the stop
    test scale * width <= stop ends the descent for all of them at once.
    The name, from the corner families it first served, stays while the
    bench tracer wraps this function by name and counts its points from
    ys (ROADMAP item 1 gives the tracer its own names).
    """
    import numpy as np

    lam = f.lam_max
    if min(f.lams) != lam:
        raise ValueError("the batch descent needs one ratio for all maps")
    starts, ends, ts = np.array(f.starts), np.array(f.ends), np.array(f.ts)
    width = f.b - f.a
    last = len(starts) - 1
    y = np.array(ys, dtype=float).ravel()
    out = np.empty_like(y)
    idx = np.arange(y.size)  # the points still descending, and their place in out
    scale = 1.0
    while idx.size:
        k = np.searchsorted(starts, y, side="right") - 1
        inside = (k >= 0) & (y <= ends[k])
        if not inside.all():
            done = ~inside
            yd, kd = y[done], k[done]
            left = np.where(kd >= 0, yd - ends[kd], np.inf)
            right = np.where(kd < last, starts[np.minimum(kd + 1, last)] - yd, np.inf)
            out[idx[done]] = scale * np.where(right < left, right, left)  # min(left, right)
            y, k, idx = y[inside], k[inside], idx[inside]
            if not idx.size:
                break
        scale *= lam
        if scale * width <= stop:
            out[idx] = scale * width
            break
        y = (y - ts[k]) / lam
    return out.reshape(np.shape(ys))


def _axis1d_hole(f: AxisFactor, p: float, q: float, tol: float) -> Tuple[float, float]:
    """Enclosure of the max over y in [p, q] of dist(y, K), in K's own
    coordinates and before any rounding pad.

    The distance grows away from the hull, so outside it the max sits at p
    or q; inside it, at p, q or the clamped midpoint of a gap. Every gap of
    a copy of K at scale s is at most s * max_gap wide, so a copy lying
    wholly in [p, q] holds at most its own widest gap, which it attains,
    and only the at most two copies per level that p or q cut are
    descended. A copy whose widest gap cannot beat the best value found by
    more than tol is not descended: it only bounds the upper end.
    """
    lo, hi = _axis1d_dist(f, p, tol)
    end_lo, end_hi = _axis1d_dist(f, q, tol)
    lo, hi = max(lo, end_lo), max(hi, end_hi)
    starts, ends, ts, lams = f.starts, f.ends, f.ts, f.lams
    half = f.max_gap / 2
    m = len(starts)
    stack = [(p, q, 1.0)]
    while stack:
        p, q, scale = stack.pop()
        bound = scale * half
        if bound <= lo + tol:
            hi = max(hi, bound)
            continue
        for k in range(m):
            s, e = starts[k], ends[k]
            if k + 1 < m and e < q and starts[k + 1] > p:
                # the gap (e, starts[k + 1]) meets [p, q]
                mid = min(max(0.5 * (e + starts[k + 1]), p), q)
                v = scale * min(mid - e, starts[k + 1] - mid)
                lo, hi = max(lo, v), max(hi, v)
            if s > q or e < p:
                continue
            if p <= s and e <= q:
                v = scale * lams[k] * half  # the copy's widest gap, all inside
                lo, hi = max(lo, v), max(hi, v)
            else:
                lam, t = lams[k], ts[k]
                stack.append(((max(p, s) - t) / lam, (min(q, e) - t) / lam, scale * lam))
    return lo, hi


def _axis_pad(f: AxisFactor, y: float, x: float) -> float:
    """Outward pad, in system units, for a descent answer taken at the
    canonical coordinate y (the system coordinate x).

    With u = 2**-53 and M = max(1, |y|, |a|, |b|), every translation has
    |t| <= 2M and every float below is at most 2M in size. The hull ends
    a, b come from one subtraction and one division, each child hull end
    from one product and one sum: each ends within 4uM of its exact value.
    At level k of the descent, where the current copy of K has scale s_k
    <= lam_max**k, three errors arise, each measured in K's units through
    the 1-Lipschitz distance: testing y against float hull ends moves the
    answer by at most 2 * 4uM * s_k; the subtraction y - t and the division
    by lam each add at most 2uM * s_k. The float scale is a product of k
    ratios, off by k * u relatively, on an answer at most 2M * s_(k-1):
    k * lam**(k-1) <= 1 / (1 - lam) keeps that below 2uM / (1 - lam), and
    the last subtraction and product add another 4uM. The geometric sum
    over the levels bounds the total by 18uM / (1 - lam_max) <=
    18 ulp(M) / (1 - lam_max), which the factor 32 covers. The similarity
    chain adds the rounding of y = (x - offset) / scale and of the composed
    offset and scale, a few ulps of |x| + |offset| per map.
    """
    m = max(1.0, abs(y), abs(f.a), abs(f.b))
    return f.scale * (32 * math.ulp(m) / (1 - f.lam_max)) + 4 * (1 + f.chain) * math.ulp(
        abs(x) + abs(f.offset)
    )


def _axis_dist(f: AxisFactor, x: float, tol: float) -> Tuple[float, float]:
    """Outward enclosure of the distance from x to the factor's set."""
    y = (x - f.offset) / f.scale
    lo, hi = _axis1d_dist(f, y, tol / f.scale)
    pad = _axis_pad(f, y, x)
    return max(0.0, f.scale * lo - pad), f.scale * hi + pad


def _axis_hole(f: AxisFactor, p: float, q: float, tol: float) -> Tuple[float, float]:
    """Outward enclosure of the max over [p, q] of the distance to the
    factor's set."""
    yp, yq = (p - f.offset) / f.scale, (q - f.offset) / f.scale
    lo, hi = _axis1d_hole(f, yp, yq, tol / f.scale)
    pad = _axis_pad(f, max(abs(yp), abs(yq)), max(abs(p), abs(q)))
    return max(0.0, f.scale * lo - pad), f.scale * hi + pad


# -- finite 1-D leaf geometry --------------------------------------------------


def _finite1d_dist(starts: Sequence[float], ends: Sequence[float], x: float) -> float:
    i = bisect.bisect_right(starts, x)
    best = math.inf
    if i > 0:
        if x <= ends[i - 1]:
            return 0.0
        best = x - ends[i - 1]
    if i < len(starts):
        best = min(best, starts[i] - x)
    return best


class _Leaves1D(NamedTuple):
    """Leaf intervals, starts and ends both rising, with the midpoint of
    the gap between each pair of neighbours and that midpoint's distance to
    the intervals, its peak, computed once."""

    starts: List[float]
    ends: List[float]
    mids: List[float]
    peaks: List[float]


def _leaves_1d(starts: List[float], ends: List[float]) -> _Leaves1D:
    mids = [0.5 * (e + s) for e, s in zip(ends, starts[1:])]
    return _Leaves1D(starts, ends, mids, [_finite1d_dist(starts, ends, m) for m in mids])


def _finite1d_hole(leaves: _Leaves1D, a: float, b: float) -> float:
    """max over [a, b] of the distance to the union of the leaf intervals.

    The candidates are a, b and the gap midpoints in [a, b]. The midpoints
    rise with the gap index, as their float formula is monotone in both
    ends, so those in [a, b] are a slice found by bisection, and their
    distances are the slice's precomputed peaks: the same floats as
    evaluating each midpoint here.
    """
    first = bisect.bisect_left(leaves.mids, a)
    last = bisect.bisect_right(leaves.mids, b)
    starts, ends = leaves.starts, leaves.ends
    return max(
        _finite1d_dist(starts, ends, a), _finite1d_dist(starts, ends, b), *leaves.peaks[first:last]
    )


# -- distance oracle -----------------------------------------------------------


class _DistOracle:
    """Per-system dispatcher for dist(x, C) enclosures; _oracle builds one
    per system."""

    def __init__(self, sys: BallSystem):
        # the system keeps its oracle: a strong reference back would make a
        # cycle, leaving every queried tree to the cyclic collector
        self.sys = weakref.proxy(sys)
        self.factors = sys.axis_factors()
        self.hole_forms = [] if self.factors is None else [_node_hole_form(f) for f in self.factors]
        # dispatch reads which field is set; mode only labels it for the tracer
        self.mode = "bnb"
        self.leaves: Optional[_Leaves1D] = None
        self.rounded_ends = False
        if self.factors is not None:
            self.mode = "product"
        elif sys.is_finite and sys.dimension == 1:
            self.mode = "finite1d"
            ivs = sys.leaf_intervals()
            self.leaves = _leaves_1d([iv[0] for iv in ivs], [iv[1] for iv in ivs])
            self.rounded_ends = not sys.leaf_ends_exact

    def enclosure(self, x: Point, tol: float) -> IntervalBound:
        if self.factors is not None:
            # C is the product of the factors' sets, so dist(x, C) is the
            # norm of the d per-axis distances; tol / d per axis keeps the
            # width within tol in every norm
            axis_tol = tol / len(x)
            parts = [_axis_dist(f, xi, axis_tol) for f, xi in zip(self.factors, x)]
            norm = self.sys.norm
            lo = vector_size([part[0] for part in parts], norm)
            hi = vector_size([part[1] for part in parts], norm)
            if norm is not NormKind.LINF:
                # a sum or a square root is off by at most 2u relatively
                lo, hi = lo * (1 - 2**-50), hi * (1 + 2**-50)
            return IntervalBound(lo, hi, tol)
        if self.leaves is not None:
            # v is the least distance to the leaf intervals rounded to
            # nearest: exact at 0, else within one ulp either way. Rounded
            # ends widen that by 2u, u = ulp(|x| + v): v moves no more than
            # the ends that set it, each within |x| + v of 0 and half its
            # ulp of c +- r, and u more covers v's own rounding
            v = _finite1d_dist(self.leaves.starts, self.leaves.ends, x[0])
            pad = 2 * math.ulp(abs(x[0]) + v) if self.rounded_ends else 0.0
            lo, hi = math.nextafter(v - pad, -math.inf), v + pad
            return IntervalBound(max(lo, 0.0), math.nextafter(hi, math.inf) if hi else hi, tol)
        # finite trees of d >= 2 too: a leaf is a solid ball of the set
        return _dist_bnb(self.sys, x, tol)


def _oracle(sys: BallSystem) -> _DistOracle:
    """The system's distance oracle, built on its first query."""
    oracle = sys._dist_oracle
    if oracle is None:
        oracle = sys._dist_oracle = _DistOracle(sys)
    return oracle


def _dist_bnb(sys: BallSystem, x: Point, tol: float) -> IntervalBound:
    """Best-first frontier refinement: lower = min distance to the frontier
    balls, upper = min over the frontier of (distance to center + radius).

    Reads each node's children as a child block and takes one norm
    evaluation per child for both of its bounds. Stops after NODE_BUDGET
    pops."""
    budget = NODE_BUDGET
    dist = distance_kernel(sys.norm)
    child_block = sys.child_block
    push, pop = heapq.heappush, heapq.heappop
    root = sys.root
    d_root = dist(x, root.center)
    upper = d_root + root.radius
    best_exact = math.inf  # exact distances contributed by leaf balls
    heap: List[Tuple[float, Word]] = [(max(0.0, d_root - root.radius), ROOT)]
    expansions = 0
    while heap:
        cur_hi = min(upper, best_exact)
        if cur_hi - min(heap[0][0], best_exact) <= tol or expansions >= budget:
            break
        dlo, word = pop(heap)
        centers, radii = child_block(word)
        expansions += 1
        if not radii:
            # finite-tree leaf: the ball is wholly part of the set
            best_exact = min(best_exact, dlo)
            continue
        for i, r in enumerate(radii):
            d = dist(x, centers[i])
            cub = d + r
            if cub < upper:
                upper = cub
            # max(0.0, d - r), as dist_point_ball takes it
            clo = d - r if d > r else 0.0
            if clo < upper and clo < best_exact:
                push(heap, (clo, word + (i,)))
    hi = min(upper, best_exact)
    lo = min(heap[0][0], hi) if heap else hi
    return IntervalBound(max(lo, 0.0), hi, tol)


def dist_to_set(x: Point, sys: BallSystem, tol: float) -> IntervalBound:
    """Certified enclosure of dist(x, C) for the set C generated by sys."""
    x = as_point(x)
    if len(x) != sys.dimension:
        raise ValueError(f"point dimension {len(x)} vs system dimension {sys.dimension}")
    if not tol > 0:
        raise ValueError("tol must be positive")
    return _oracle(sys).enclosure(x, tol)


# -- hole radius ---------------------------------------------------------------


def _clamp_into_ball(q: Point, region: Ball, norm: NormKind) -> Point:
    d = norm_distance(q, region.center, norm)
    if d <= region.radius:
        return q
    t = region.radius / d
    return tuple(c + t * (qi - c) for c, qi in zip(region.center, q))


def _box_max(box, evaluate: Callable, split: Callable, tol: float):
    """Best-first enclosure (lower, upper) of a function's max over box.
    evaluate(box) is None where the search may drop the box (never the first
    one), else (a value reached in the box, a bound on its max there);
    split(box) lists the sub-boxes. The box with the largest bound is split
    first, ties going to the box that compares smallest, until that bound is
    within tol of the best value or NODE_BUDGET boxes are split. upper is
    never below lower: a box whose bound fell below a value found later can
    top the heap, and with no box left upper is lower. Whether the search
    converged is not returned: the caller's IntervalBound works it out.

    Two tree searches stay outside it. _dist_bnb, a min-search over nodes,
    gave repr-identical enclosures when driven through a per-child evaluate
    and split here, but ran 1.3-1.8x slower (50 points about the three-map
    Linf IFS of the packaging smoke test, in Linf at tol 1e-6 and 1e-8 and
    in L2 at tol 1e-9). gaplemma._locate pushes one child per family
    lazily and numbers its pushes as a full expansion would, which a
    split that lists every sub-box cannot do."""
    budget = NODE_BUDGET
    lower, ub = evaluate(box)
    heap = [(-ub, box)]
    expansions = 0
    while heap:
        upper = -heap[0][0]
        if upper - lower <= tol or expansions >= budget:
            return lower, max(lower, upper)
        _, box = heapq.heappop(heap)
        expansions += 1
        for sub in split(box):
            res = evaluate(sub)
            if res is None:
                continue
            flo, ub = res
            if flo > lower:
                lower = flo
            if ub > lower:
                heapq.heappush(heap, (-ub, sub))
    return lower, lower


def _bisect_box(lo: Tuple[float, ...], hi: Tuple[float, ...]) -> list:
    """The box's two halves across its longest axis (the first on ties)."""
    d = len(lo)
    axis = max(range(d), key=lambda i: (hi[i] - lo[i], -i))
    mid = 0.5 * (lo[axis] + hi[axis])
    nl = tuple(mid if i == axis else lo[i] for i in range(d))
    nh = tuple(mid if i == axis else hi[i] for i in range(d))
    return [(lo, nh), (nl, hi)]


def _split_box(lo: Tuple[float, ...], hi: Tuple[float, ...], norm: NormKind) -> list:
    if norm is not NormKind.LINF:
        return _bisect_box(lo, hi)
    d = len(lo)
    mids = tuple(0.5 * (l + h) for l, h in zip(lo, hi))
    out = []
    for mask in range(2**d):
        nl = tuple(lo[i] if not mask >> i & 1 else mids[i] for i in range(d))
        nh = tuple(mids[i] if not mask >> i & 1 else hi[i] for i in range(d))
        out.append((nl, nh))
    return out


def _hole_bnb(sys: BallSystem, region: Ball, tol: float) -> IntervalBound:
    """Maximize dist(x, C) over the node ball region by subdividing into sub-boxes.

    On a sub-box with representative q inside the node, the max over the box
    is enclosed by [dist(q, C).lo, dist(q, C).hi + reach(box, q)] since the
    distance function is 1-Lipschitz in the workspace norm. Boxes are
    (lo, hi) pairs, so ties in the search go to the smallest box corner.
    """
    oracle = _oracle(sys)
    norm = sys.norm
    ftol = tol / 4

    def evaluate(box):
        lo, hi = box
        q = tuple(0.5 * (a + b) for a, b in zip(lo, hi))
        if norm is not NormKind.LINF:
            nearest = tuple(min(h, max(l, c)) for c, l, h in zip(region.center, lo, hi))
            if norm_distance(nearest, region.center, norm) > region.radius:
                return None  # box misses the node ball entirely
            q = _clamp_into_ball(q, region, norm)
        f = oracle.enclosure(q, ftol)
        # the farthest box corner from q bounds how far the box reaches
        reach = vector_size([max(abs(h - c), abs(c - l)) for l, h, c in zip(lo, hi, q)], norm)
        return f.lo, f.hi + reach

    box_lo = tuple(c - region.radius for c in region.center)
    box_hi = tuple(c + region.radius for c in region.center)
    lower, upper = _box_max((box_lo, box_hi), evaluate, lambda box: _split_box(*box, norm), tol)
    return IntervalBound(lower, upper, tol)


def hole_radius(
    word: Word,
    sys: BallSystem,
    tol: float,
    *,
    ball: Optional[Ball] = None,
) -> IntervalBound:
    """Certified enclosure of h_I = max over S_I of dist(x, C).

    x ranges over the node's ball while the distance is taken to the whole
    generated set, not only the part below the node. Exact up to a few ulps
    where _exact_hole has a closed form, searched by sub-boxes elsewhere.
    A caller that holds the node's ball, as sys.ball(word) gives it, passes
    it as ball, which saves a walk down from the root.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    word = tuple(word)
    if ball is None:
        try:
            ball = sys.ball(word)
        except KeyError as exc:
            raise ValueError(f"word {word!r} names no node") from exc
    return _hole(sys, word, tol, ball)


def _hole(sys: BallSystem, word: Word, tol: float, ball: Ball) -> IntervalBound:
    h = _exact_hole(sys, word, tol, ball)
    return h if h is not None else _hole_bnb(sys, ball, tol)


def _exact_hole(sys: BallSystem, word: Word, tol: float, ball: Ball) -> Optional[IntervalBound]:
    """The hole radius of the node at word where a closed form gives it, or
    None. On axis products (corner families among them) under the Linf norm
    (any norm in 1-D) the ball is a product of intervals and the Linf
    distance the largest per-axis one, so the hole is the largest per-axis
    hole: _node_hole_form's when that is at most tol wide, else that cut
    down by the _axis_hole descent. On finite 1-D trees it is the farthest
    point of the node from the leaf intervals. ball is the node's, as
    ball(word) gives it."""
    oracle = _oracle(sys)
    if oracle.factors is not None and (sys.norm is NormKind.LINF or sys.dimension == 1):
        R, k = ball.radius, len(word)
        lo = hi = 0.0
        for (half, top, unit, const), f, c in zip(oracle.hole_forms, oracle.factors, ball.center):
            pad = unit * (3 * k + const)
            if f.chain:
                pad += 4 * f.chain * math.ulp(abs(c) + R + abs(f.offset))
            lo, hi = max(lo, R * half - pad), max(hi, R * top + pad)
        if hi - lo > tol:
            # both enclose the hole: keep what each bounds best
            parts = [_axis_hole(f, c - R, c + R, tol) for f, c in zip(oracle.factors, ball.center)]
            lo, hi = max(lo, max(p[0] for p in parts)), min(hi, max(p[1] for p in parts))
    elif oracle.leaves is not None:
        a, b = ball.center[0] - ball.radius, ball.center[0] + ball.radius
        v = _finite1d_hole(oracle.leaves, a, b)
        # absorbs last-ulp disagreement between equivalent formulas, and the
        # rounding of a, b and the gap midpoints, each within ulp(max(|a|, |b|)) / 2
        pad = max(1e-12 * max(1.0, v), 4 * math.ulp(max(abs(a), abs(b))))
        lo, hi = v - pad, v + pad
    else:
        return None
    # the pads set a width floor that no descent removes
    return IntervalBound(lo, hi, tol)


def _node_hole_form(f: AxisFactor) -> Tuple[float, float, float, float]:
    """(G/2, top, unit, const): the hole on one axis of a depth-k node of
    radius R and center coordinate c lies in [R * G/2 - pad, R * top +
    pad], pad = unit * (3k + const) + 4 * chain * ulp(|c| + R + |offset|),
    with G the factor's widest gap between neighbouring child hulls, [a, b]
    its hull and top = max(G/2, a + 1, 1 - b).

    In the factor's units the node is phi_I([-1, 1]), phi_I a composition
    of k maps of ratio lam_I = R / scale. Its copy of K fills phi_I([a,
    b]), whose ends lie in K and which no other copy enters (the hulls are
    disjoint at every level). The copy's gaps are at most lam_I * G wide
    (deeper ones shrink by lam_max or more); its widest lies in the node,
    as the maps send [-1, 1] into itself, with its midpoint lam_I * G/2
    from K; each stick-out piece of the node is within its own length,
    lam_I * (a + 1) or lam_I * (1 - b), of a hull end. A corner node has
    a = -1 and b = 1: there the form is exact.

    With u = 2**-53 and M = max(1, |a|, |b|), so that u * M < ulp(M), the
    pad covers, in ulp(M) times scale: the float node against phi_I(root),
    as each level rounds the radius and the center's product and sum
    (|t|, |c| <= 1), by at most 1.01 * k + 0.51 / (1 - lam_max)**2; R as a
    measure of lam_I, off by (1.01 * k + chain + 1) * u relatively on a
    hole of at most R * M; G, a + 1 and 1 - b, each within 6 * u * M (the
    hull ends are within 4 * u * M, as in _axis_pad), with the products
    by R; and a corner family's float cell centers, within a few ulps of 1
    of the exact ones, which move K by at most 4 / (1 - lam_max). That is
    at most 3k + chain + 8 + 5 / (1 - lam_max)**2. Each similarity map
    adds a few ulps of |c| + R + |offset|, as in _axis_pad.
    """
    half = f.max_gap / 2
    unit = f.scale * math.ulp(max(1.0, abs(f.a), abs(f.b)))
    return half, max(half, f.a + 1, 1 - f.b), unit, f.chain + 8 + 5 / (1 - f.lam_max) ** 2


# -- thickness ------------------------------------------------------------------


def _record(word: Word, min_rad: float, h: IntervalBound, tol: float) -> NodeThicknessRecord:
    lo = min_rad / h.hi if h.hi > 0 else math.inf
    hi = min_rad / h.lo if h.lo > 0 else math.inf
    return NodeThicknessRecord(word, min_rad, h, IntervalBound(lo, hi, tol))


def thickness(sys: BallSystem, depth: int, tol: float) -> ThicknessReport:
    """Enclosure of the infimum over nodes of (min child radius)/h_I.

    Self-similar systems, corner families among them, use the root-hole
    transfer, which bounds every depth at once and is exact up to a few ulps
    where the root hole has a closed form (a similarity image whose chain
    rounding keeps the ratio wider than tol takes its core's); the root's
    ratio bounds every node's, so the report is valid for all depths
    whatever the sibling layout. Finite trees and other systems go node by
    node.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if sys.similarities is None and sys.base.is_homothetic():
        # the outermost map is the one perturbation, of a homothetic base
        return _thickness_perturbed(sys, depth, tol)
    if sys.is_homothetic():
        return _thickness_homothetic(sys, depth, tol)
    return _thickness_nodes(sys, depth, tol)


def _thickness_homothetic(sys: BallSystem, depth: int, tol: float) -> ThicknessReport:
    """The root's ratio, which bounds every node's whatever the sibling
    layout: the node at I holds phi_I(C) and lies in phi_I(root ball), so a
    hole of it is at most lambda_I times a hole of the root, h_I <=
    lambda_I * h_root, while its least child radius is lambda_I times the
    root's. The report is thus valid for all depths."""
    R = sys.root.radius
    mrad = min(sys.child_ratios()) * R

    rough = _hole(sys, ROOT, R / 64, sys.root)
    h = rough
    if rough.lo > 0:
        target = tol * rough.lo * rough.lo / mrad
        target = min(max(target, 1e-14 * R), R / 64)
        if rough.width > target:
            h = _hole(sys, ROOT, target, sys.root)
    rec = _record(ROOT, mrad, h, tol)
    overall = rec.ratio
    if not overall.converged and sys.core is not None:
        # an image's hole carries a pad for the chain's rounding, which can
        # keep its ratio wider than tol; radii and holes scale alike under
        # similarities, so the image's ratio is also its core's
        overall = _thickness_homothetic(sys.core, depth, tol).overall
    return ThicknessReport(
        overall=overall,
        per_node=(rec,),
        depth=depth,
        valid_all_depths=True,
        method="homothetic-promotion",
    )


def _sample_hole_lower(sys: BallSystem) -> float:
    """Sound lower bound on the root hole radius from a few sample points.
    Only perturbed images, all Linf, come here, so each point is in the root."""
    import numpy as np

    oracle = _oracle(sys)
    region = sys.root
    d = sys.dimension
    ftol = region.radius * 1e-3
    best = 0.0
    if d <= 3:
        axes_vals = [
            tuple(region.center[i] + region.radius * s for s in (-0.75, -0.25, 0.0, 0.25, 0.75))
            for i in range(d)
        ]
        pts = list(itertools.product(*axes_vals))
    else:
        rng = np.random.default_rng(0)
        pts = [
            tuple(region.center[i] + region.radius * (2 * rng.random() - 1) for i in range(d))
            for _ in range(64)
        ]
    for p in pts:
        enc = oracle.enclosure(p, ftol)
        if enc.lo > best:
            best = enc.lo
    return best


def _thickness_perturbed(sys: BallSystem, depth: int, tol: float) -> ThicknessReport:
    base, eps = sys.base, sys.generator.eps
    hrel_hi = _hole(base, ROOT, base.root.radius * 1e-3, base.root).hi / base.root.radius
    lam_min = min(base.child_ratios())
    lower = (1 + eps) * lam_min / (2 * eps + (1 + eps) * hrel_hi)
    h_lo = _sample_hole_lower(sys)
    minrad_root = min(sys.child_block(ROOT)[1])
    h_hi_abs = (2 * eps + (1 + eps) * hrel_hi) * base.root.radius
    upper = minrad_root / h_lo if h_lo > 0 else math.inf
    upper = max(upper, lower)
    h_iv = IntervalBound(min(h_lo, h_hi_abs), h_hi_abs, tol)
    overall = IntervalBound(lower, upper, tol)
    rec = NodeThicknessRecord(ROOT, minrad_root, h_iv, overall)
    return ThicknessReport(overall, (rec,), depth, False, "perturbed-transfer")


def _thickness_nodes(sys: BallSystem, depth: int, tol: float) -> ThicknessReport:
    """The infimum node by node over the internal nodes down to depth.

    Each hole is exact where _exact_hole gives one and searched otherwise;
    after _MAX_SEARCHED_HOLES searched holes the walk stops and lo drops to 0.
    The report holds for all depths only when no hole was searched and no
    internal node lies below depth: then it covers every node there is.
    """
    exact = _oracle(sys).leaves is not None
    records: List[NodeThicknessRecord] = []
    best: Optional[NodeThicknessRecord] = None
    truncated = deeper_internal = False
    searched = 0
    for word, ball in sys.walk(depth + 1):
        if len(word) > depth:
            # counted, not built: a generated tree is not expanded past depth
            deeper_internal = deeper_internal or sys.child_count(word) > 0
            continue
        radii = sys.child_block(word)[1]
        if not radii:
            continue
        h = _exact_hole(sys, word, tol, ball)
        if h is None:
            if searched >= _MAX_SEARCHED_HOLES:
                truncated = True
                break
            searched += 1
            h = _hole_bnb(sys, ball, max(tol, 1e-9) * ball.radius)
        rec = _record(word, min(radii), h, tol)
        if best is None or rec.ratio.lo < best.ratio.lo:
            best = rec
        if len(records) < _MAX_RECORDS:
            records.append(rec)
    method = "finite-1d-exact" if exact else "per-node-bnb"
    if best is None:
        # childless root: no internal nodes, the infimum is vacuous
        return ThicknessReport(IntervalBound(math.inf, math.inf, tol), (), depth, True, method)
    if best not in records:
        records[-1] = best
    lo = 0.0 if truncated else best.ratio.lo
    return ThicknessReport(
        overall=IntervalBound(lo, best.ratio.hi, tol),
        per_node=tuple(records),
        depth=depth,
        valid_all_depths=not searched and not deeper_internal,
        method=method,
    )


# -- denseness -------------------------------------------------------------------

_MAX_DENSE_NODES = 5000  # internal nodes a node-by-node verdict visits
_MAX_BOX_CELLS = 2_000_000  # cells a box coverage decision may have


def _verify_refutation(
    sys: BallSystem, word: Word, center: Point, r: float, grid_step: float, method: str, fail: str
) -> DensenessReport:
    """refuted, with the witness ball about center whose radius is the least
    float at or above r * rad(node), if an exact check on the rationals its
    floats are finds it in the node and holding no child; else unknown, with
    the detail fail and the reason. |a - b| <= s (a >= b, s a float pair) is
    the sign of one math.fsum of s, -a and b; L2 and overflows take Fractions."""
    from fractions import Fraction

    def within(p: Point, q: Point, s: Tuple[float, float]) -> bool:  # |p - q| <= s[0] + s[1]
        if sys.norm is not NormKind.L2:
            ends = [(-max(a, b), min(a, b)) for a, b in zip(p, q)]
            sums = [s + e for e in ends] if sys.norm is NormKind.LINF else [s + sum(ends, ())]
            with contextlib.suppress(OverflowError):
                return all(math.fsum(x) >= 0 for x in sums)
        gaps, t = [abs(Fraction(a) - Fraction(b)) for a, b in zip(p, q)], sum(map(Fraction, s))
        if sys.norm is NormKind.L2:
            return t >= 0 and sum(g * g for g in gaps) <= t * t
        return (max(gaps) if sys.norm is NormKind.LINF else sum(gaps)) <= t

    node = sys.ball(word)
    rho = Fraction(r) * Fraction(node.radius)
    radius = float(rho) if float(rho) >= rho else math.nextafter(float(rho), math.inf)
    kids = enumerate(zip(*sys.child_block(word)))
    fits = (k for k, (c, rk) in kids if within(c, center, (radius, -rk)))
    why = next((f"it holds child {k}" for k in fits), None)
    if not within(center, node.center, (node.radius, -radius)):
        why = "it leaves the node"
    if why is None:
        return DensenessReport(r, "refuted", Ball(tuple(center), radius), grid_step, method)
    return DensenessReport(r, "unknown", None, grid_step, method, f"{fail}: {why}")


def denseness_check(sys: BallSystem, r: float, grid_step: float, depth: int) -> DensenessReport:
    """Sound three-way verdict on: every ball B inside a node with
    rad(B) >= r * rad(node) contains a child of that node.

    Two routes, named by the report's method: "box-exact", exact box
    coverage (_dense_box) for every Linf system and every 1-D system;
    "grid", a margin grid (_dense_grid) for L2 and L1 in dimension 2 or
    more, which leaves unknown what it cannot decide. Every witness ball of
    a refutation passes _verify_refutation.

    Both decide a homothetic system at one node, whose layout every node
    repeats, and a finite tree at every internal node, whatever depth is.
    Any other system is walked down to depth only: a failing node refutes,
    but when all pass the verdict is unknown, its detail naming the depth.
    """
    if not 0 < r < 1:
        raise ValueError("r must lie in (0, 1)")
    if not grid_step > 0:
        raise ValueError("grid_step must be positive")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if sys.norm is NormKind.LINF or sys.dimension == 1:
        return _dense_box(sys, r, grid_step, depth)
    return _dense_grid(sys, r, grid_step, depth)


def _dense_nodes(sys: BallSystem, depth: int) -> Optional[List[Tuple[Word, Ball]]]:
    """The internal nodes a node-by-node verdict visits: every one when the
    system's core is finite, whatever depth is, else those down to depth;
    None once the walk meets more than _MAX_DENSE_NODES."""
    full = (sys.core or sys).is_finite
    internal = ((w, b) for w, b in sys.walk(math.inf if full else depth) if sys.child_count(w))
    nodes = list(itertools.islice(internal, _MAX_DENSE_NODES + 1))
    return None if len(nodes) > _MAX_DENSE_NODES else nodes


def _dense_passed(
    sys: BallSystem, r: float, grid_step: float, depth: int, method: str
) -> DensenessReport:
    """The verdict once every node visited passes: proven where they stand
    for the whole tree (see denseness_check), else unknown."""
    if sys.is_homothetic() or (sys.core or sys).is_finite:
        return DensenessReport(r, "proven", None, grid_step, method)
    detail = f"every node down to depth {depth} passes; deeper nodes are unchecked"
    return DensenessReport(r, "unknown", None, grid_step, method, detail)


def _uncovered_box(lo: Sequence, hi: Sequence, windows) -> Optional[Tuple]:
    """A point of the closed box [lo, hi] (lo < hi) in none of the closed
    windows, (low, high) corner pairs, or None when they cover it; exact on
    rationals. Coordinate compression (Klee's measure problem): the ends of
    the box and windows cut each axis into open intervals, and a window
    holds each open cell, a product of those, wholly or not at all. An
    uncovered point has an uncovered neighbourhood in the box, which meets
    an open cell. A difference array, +-1 at each window corner summed
    along every axis, counts the windows on each cell. The point returned
    is the midpoint of the uncovered cell whose narrowest side is widest."""
    import numpy as np

    d = len(lo)
    clipped = ((tuple(map(max, w_lo, lo)), tuple(map(min, w_hi, hi))) for w_lo, w_hi in windows)
    boxes = [(a, b) for a, b in clipped if all(x <= y for x, y in zip(a, b))]
    axes = [sorted({lo[i], hi[i]} | {end[i] for box in boxes for end in box}) for i in range(d)]
    shape = tuple(len(xs) - 1 for xs in axes)
    counts = np.zeros([n + 1 for n in shape], dtype=int)
    for mask in range(2**d):  # the corners with the high end on the axes of mask's bits
        at = [
            np.array([bisect.bisect_left(xs, box[mask >> i & 1][i]) for box in boxes], int)
            for i, xs in enumerate(axes)
        ]
        np.add.at(counts, tuple(at), (-1) ** bin(mask).count("1"))
    for i in range(d):
        np.cumsum(counts, axis=i, out=counts)
    free = counts[tuple(slice(n) for n in shape)] == 0
    if not free.any():
        return None
    widths = np.ix_(*[[float(y - x) for x, y in zip(xs, xs[1:])] for xs in axes])
    narrowest = np.where(free, functools.reduce(np.minimum, widths), -1.0)
    cell = np.unravel_index(np.argmax(narrowest), shape)
    return tuple((xs[j] + xs[j + 1]) / 2 for xs, j in zip(axes, cell))


@functools.lru_cache(maxsize=256)
def _axis_gap(ts: Tuple[float, ...], lams: Tuple[float, ...], r: float) -> Optional[float]:
    """The midpoint of the widest stretch of [-1 + r, 1 - r] left uncovered
    by the windows [t - (r - lam), t + (r - lam)] of the maps y -> lam * y
    + t with lam <= r, or None when they cover all of it.

    Every end is a sum of at most three floats and is kept as those floats.
    diff rounds the exact difference of two such sums once, in one
    math.fsum, so its sign is exact and ends compare exactly. The sweep
    takes the windows by exact left end, which rises with t when the maps
    share one ratio. The widest stretch gives the witness the most room: a
    midpoint of a stretch one ulp wide may round onto a window.
    """
    fsum = math.fsum

    def diff(p: tuple, q: tuple) -> float:
        return fsum(p + tuple(-x for x in q))

    wins = [((t, -r, lam), (t, r, -lam)) for t, lam in zip(ts, lams) if lam <= r]
    if min(lams) != max(lams):
        wins.sort(key=functools.cmp_to_key(lambda u, v: diff(u[0], v[0])))
    end = (1.0, -r)
    reach, widest, mid = (-1.0, r), 0.0, None
    for lo, hi in wins + [(end, end)]:
        lo = end if diff(lo, end) > 0 else lo
        width = diff(lo, reach)  # > 0 when no window meets the stretch from reach to lo
        if width > widest:
            widest, mid = width, fsum(lo + reach) / 2
        reach = hi if diff(hi, reach) > 0 else reach
    return mid


def _dense_box(sys: BallSystem, r: float, grid_step: float, depth: int) -> DensenessReport:
    """Exact verdict for Linf and 1-D systems. A ball of radius rho = r * R
    about x in a node of radius R about c holds the child (c_k, r_k) exactly
    when |x_i - c_k,i| <= rho - r_k on every axis, so the node is dense when
    these windows cover the feasible centers, |x_i - c_i| <= R - rho.
    Homothetic systems and their similarity images are decided at the root
    of their similarity core, whose layout every node repeats up to a
    similarity; other systems node by node (_dense_nodes), in exact rationals.
    An axis product's windows are every combination of per-axis ones, so
    _axis_gap decides it axis by axis from its factors: the generated cores
    root at B(0, 1), so each child's coordinate on an axis and its radius
    are its factor's t and lam bit for bit (0.0 + 1.0 * t and 1.0 * lam),
    and rho = r. A refutation's witness takes _axis_gap's midpoint on the
    first uncovered axis and the core's center on the others."""
    from fractions import Fraction

    unknown = functools.partial(DensenessReport, r, "unknown", None, grid_step, "box-exact")
    if sys.is_homothetic():
        core, maps = sys.core or sys, sys.similarities
        nodes = [(ROOT, core.root)]
    else:
        core, maps, nodes = sys, (), _dense_nodes(sys, depth)
        if nodes is None:
            return unknown("node budget exceeded")
    d, factors = sys.dimension, core.axis_factors()
    for word, ball in nodes:
        if factors is not None:
            mids = (_axis_gap(f.ts, f.lams, r) for f in factors)
            hole = next(((i, m) for i, m in enumerate(mids) if m is not None), None)
            if hole is None:
                continue
            point = [Fraction(hole[1] if i == hole[0] else x) for i, x in enumerate(ball.center)]
        else:
            c, R = [Fraction(x) for x in ball.center], Fraction(ball.radius)
            rho = Fraction(r) * R
            block = zip(*core.child_block(word))
            kids = [([Fraction(x) for x in k], rho - Fraction(kr)) for k, kr in block if kr <= rho]
            windows = {(tuple(x - e for x in k), tuple(x + e for x in k)) for k, e in kids}
            cells = (2 * len(windows) + 1) ** d  # at most, from the window ends
            if cells > _MAX_BOX_CELLS:
                return unknown(f"{cells:,} cells exceed the cap of {_MAX_BOX_CELLS:,}")
            point = _uncovered_box([x - R + rho for x in c], [x + R - rho for x in c], windows)
            if point is None:
                continue
        for t in reversed(maps):  # out of the core's frame, innermost map first
            point = [Fraction(t.scale) * x + Fraction(w) for x, w in zip(point, t.shift)]
        failed = f"witness verification failed at node {word}"
        point = [float(x) for x in point]
        return _verify_refutation(sys, word, point, r, grid_step, "box-exact", failed)
    return _dense_passed(sys, r, grid_step, depth, "box-exact")


def _dense_grid(sys: BallSystem, r: float, grid_step: float, depth: int) -> DensenessReport:
    """Grid verdict in any norm; denseness_check sends it L2 and L1 in
    dimension 2 or more. Each node's relative centers are tested on the
    grid linspace(-a, a, m) per axis, a = 1 - r and m - 1 >= a / grid_step.
    Its spacing is 2a / (m - 1) <= 2 * grid_step, so every feasible center
    y (|y| <= a) lies within grid_step per axis of a grid point p: within
    margin = f * grid_step of it, with f = 1 for Linf, sqrt(d) for L2 and d
    for L1. Then |p| <= a + margin, so p is tested, and a child in the ball
    of radius r - margin about p lies in the ball of radius r about y. The
    margin does not cover float error. Through linspace, the relative
    centers and radii, row_norms and the margin itself, a compared distance
    takes at most 10d + 10 roundings, each of a value at most 2d + 1 in
    size, so the outward slack (10d + 10)(2d + 1) * 2**-53 bounds their
    sum. A grid ball of radius r holding no child is a refutation's witness:
    of those, the one whose center has the least norm, the most interior.
    """
    import numpy as np

    unknown = functools.partial(DensenessReport, r, "unknown", None, grid_step, "grid")
    nodes = [(ROOT, sys.root)] if sys.is_homothetic() else _dense_nodes(sys, depth)
    if nodes is None:
        return unknown("node budget exceeded")
    if not nodes:  # no internal node: nothing to refute, and no grid to build
        return _dense_passed(sys, r, grid_step, depth, "grid")
    norm, d, avail = sys.norm, sys.dimension, 1 - r
    factor = {NormKind.LINF: 1.0, NormKind.L2: math.sqrt(d), NormKind.L1: float(d)}[norm]
    margin, slack = grid_step * factor, (10 * d + 10) * (2 * d + 1) * 2.0**-53
    # past the cap per axis (an infinite quotient too) the grid is past it
    steps = avail / grid_step
    m = max(2, math.ceil(steps) + 1) if steps < 2_000_000 else math.inf
    if m**d > 2_000_000:
        return unknown("grid too large at this step")
    axis = np.linspace(-avail, avail, m)
    pts = np.stack([g.ravel() for g in np.meshgrid(*([axis] * d), indexing="ij")], axis=1)
    if norm is not NormKind.LINF:
        # restrict to points near the feasible center region
        pts = pts[row_norms(pts, norm) <= avail + margin + slack]
    for word, ball in nodes:
        centers, radii = sys.child_block(word)
        full, sure = np.zeros((2, len(pts)), dtype=bool)  # held at radius r, r - margin - slack
        rel_centers = (np.array(centers) - ball.center) / ball.radius
        for c, rk in zip(rel_centers, np.array(radii) / ball.radius):
            dist = row_norms(pts - c, norm) + rk
            full |= dist <= r
            sure |= dist <= r - margin - slack
        if not full.all():
            free = pts[~full]
            c_rel = free[int(np.argmin(row_norms(free, norm)))]
            failed = f"grid ball at node {word} contains no child but verification failed"
            if norm is not NormKind.LINF and row_norms(c_rel, norm) > avail:
                return unknown(failed)
            center = [ball.center[i] + ball.radius * c_rel[i] for i in range(d)]
            return _verify_refutation(sys, word, center, r, grid_step, "grid", failed)
        if r - margin - slack <= 0 or not sure.all():
            return unknown("full-radius balls pass but the margin grid cannot certify")
    return _dense_passed(sys, r, grid_step, depth, "grid")
