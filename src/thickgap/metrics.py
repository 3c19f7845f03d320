"""Certified distance, hole radius, thickness, and denseness verdicts.

Every public operation returns enclosures or sound verdicts, never bare float
estimates. Fast exact paths cover the structured generators (corner products,
finite 1-D trees, self-similar transfer); a best-first branch-and-bound
fallback covers everything else. Non-convergence within budget is reported by
a flag on the enclosure, whose bounds stay valid either way.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import weakref
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .geometry import (
    Ball,
    IntervalBound,
    NormKind,
    Point,
    as_point,
    ball_contains,
    dist_point_ball,
    distance_kernel,
    norm_distance,
    row_norms,
    vector_size,
)
from .ballsystem import (
    DEFAULT_NODE_BUDGET,
    ROOT,
    BallSystem,
    CornerAxis,
    TransformedSystem,
    Word,
    corner_gap,
)

_MAX_RECORDS = 64
_REL_PAD = 1e-12  # absorbs last-ulp disagreement between equivalent formulas


def _pad_iv(value: float, tol: float) -> IntervalBound:
    pad = _REL_PAD * max(1.0, abs(value))
    return IntervalBound(value - pad, value + pad, tol)


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
    converged: bool
    valid_all_depths: bool
    method: str


@dataclass(frozen=True)
class DensenessReport:
    r: float
    verdict: str  # proven | refuted | unknown
    witness: Optional[Ball]
    grid_step: float
    method: str
    detail: str = ""


# -- exact 1-D corner-axis distance -------------------------------------------


def _corner1d_dist(y: float, n: int, ell: float, max_levels: int = 80) -> Tuple[float, float]:
    """Distance enclosure from y to the canonical 1-D corner set in [-1, 1].

    Descends through cells; gap and exterior points resolve exactly because
    cell corners belong to the set. Points that stay inside cells for
    max_levels levels get the enclosure [0, 2*remaining scale].
    """
    half = ell / 2
    step = ell + corner_gap(n, ell)
    scale = 1.0
    for _ in range(max_levels):
        t = math.floor((y - (-1 + half)) / step)
        best_d = math.inf
        best_m = 0.0
        for k in (t, t + 1):
            k = min(n - 1, max(0, k))
            m = -1 + half + k * step
            d = abs(y - m)
            if d < best_d:
                best_d, best_m = d, m
        if best_d <= half:
            y = (y - best_m) / half
            scale *= half
            continue
        out = scale * (best_d - half)
        return out, out
    return 0.0, 2 * scale


def _corner1d_dist_batch(
    ys: np.ndarray, n: int, ell: float, max_levels: int = 60, stop: float = 0.0
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized _corner1d_dist over a float array; returns (lo, hi) arrays.

    All points still descending share one scale, half**k after k levels.
    The descent also ends, after at least one level, once 2 * scale <= stop,
    and the points still inside cells then get [0, 2 * scale], as at
    max_levels. A caller comparing hi against a tolerance t keeps the full
    descent's verdict with stop = t / 2 (in the same units): a point still
    inside a level-k cell (k >= 1) lies in a copy of [-1, 1] scaled by
    half**k, whose points are at most g/2 * half**k < 2 * half**k from the
    set (g = step - ell < 2 is the gap), so both the stopped value and the
    value a deeper exit would give are at most t / 2 and neither exceeds t;
    the factor 1/2 absorbs the rounding of t / 2 and of the product. The
    first level is never skipped: level-0 points can lie outside the root,
    where 2 * scale bounds nothing. The default stop = 0 descends as far as
    before (a scale that underflows to 0 gives 0 either way).
    """
    import numpy as np

    half = ell / 2
    step = ell + corner_gap(n, ell)
    ya = np.array(ys, dtype=float).ravel()
    lo = np.zeros_like(ya)
    hi = np.zeros_like(ya)
    idx = np.arange(ya.size)  # the points still descending, and their y in ya
    scale = 1.0
    for level in range(max_levels):
        if not idx.size or (level and 2 * scale <= stop):
            break
        t = np.floor((ya - (-1 + half)) / step)
        k0 = np.clip(t, 0, n - 1)
        k1 = np.clip(t + 1, 0, n - 1)
        m0 = -1 + half + k0 * step
        m1 = -1 + half + k1 * step
        d0 = np.abs(ya - m0)
        d1 = np.abs(ya - m1)
        use0 = d0 <= d1
        m = np.where(use0, m0, m1)
        dmin = np.where(use0, d0, d1)
        in_cell = dmin <= half
        out = ~in_cell
        if out.any():
            val = np.maximum(dmin[out] - half, 0.0) * scale
            lo[idx[out]] = val
            hi[idx[out]] = val
        idx = idx[in_cell]
        ya = (ya[in_cell] - m[in_cell]) / half
        scale *= half
    hi[idx] = 2 * scale
    shape = np.asarray(ys, dtype=float).shape
    return lo.reshape(shape), hi.reshape(shape)


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


def _finite1d_hole(
    starts: Sequence[float], ends: Sequence[float], a: float, b: float
) -> float:
    """max over [a, b] of the distance to the union of the leaf intervals."""
    cands = [a, b]
    for e, s in zip(ends, starts[1:]):
        m = 0.5 * (e + s)
        if a <= m <= b:
            cands.append(m)
    return max(_finite1d_dist(starts, ends, c) for c in cands)


# -- distance oracle -----------------------------------------------------------


class _DistOracle:
    """Per-system dispatcher for dist(x, C) enclosures; _oracle builds one
    per system."""

    def __init__(self, sys: BallSystem):
        # the system keeps its oracle: a strong reference back would make a
        # cycle, leaving every queried tree to the cyclic collector
        self.sys = weakref.proxy(sys)
        self.axes = sys.corner_axes()
        self.mode = "bnb"
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.leaf_balls: List[Ball] = []
        if self.axes is not None:
            self.mode = "corner"
        elif sys.is_finite and sys.dimension == 1:
            self.mode = "finite1d"
            ivs = sys.leaf_intervals()
            self.starts = [iv[0] for iv in ivs]
            self.ends = [iv[1] for iv in ivs]
        elif sys.is_finite:
            self.mode = "finite"
            self.leaf_balls = [
                ball for word, ball in sys.walk(1_000_000) if sys.is_leaf(word)
            ]

    def enclosure(self, x: Point, tol: float, node_budget: int) -> IntervalBound:
        if self.mode == "corner":
            lo = hi = 0.0
            for axis, xi in zip(self.axes, x):
                yl, yh = _corner1d_dist((xi - axis.offset) / axis.scale, axis.n, axis.ell)
                lo = max(lo, axis.scale * yl)
                hi = max(hi, axis.scale * yh)
            return IntervalBound(lo, max(lo, hi), tol)
        if self.mode == "finite1d":
            v = _finite1d_dist(self.starts, self.ends, x[0])
            return IntervalBound(v, v, tol)
        if self.mode == "finite":
            v = min(dist_point_ball(x, b, self.sys.norm) for b in self.leaf_balls)
            return IntervalBound(v, v, tol)
        return _dist_bnb(self.sys, x, tol, node_budget)


def _oracle(sys: BallSystem) -> _DistOracle:
    """The system's distance oracle, built on its first query."""
    oracle = sys._dist_oracle
    if oracle is None:
        oracle = sys._dist_oracle = _DistOracle(sys)
    return oracle


def _dist_bnb(sys: BallSystem, x: Point, tol: float, node_budget: int) -> IntervalBound:
    """Best-first frontier refinement: lower = min distance to the frontier
    balls, upper = min over the frontier of (distance to center + radius).

    Reads each node's children as a child block and takes one norm
    evaluation per child for both of its bounds."""
    dist = distance_kernel(sys.norm)
    child_block = sys.child_block
    push, pop = heapq.heappush, heapq.heappop
    root = sys.root
    d_root = dist(x, root.center)
    upper = d_root + root.radius
    best_exact = math.inf  # exact distances contributed by leaf balls
    heap: List[Tuple[float, Word]] = [(max(0.0, d_root - root.radius), ROOT)]
    expansions = 0
    converged = True
    while heap:
        cur_hi = min(upper, best_exact)
        if cur_hi - min(heap[0][0], best_exact) <= tol:
            break
        if expansions >= node_budget:
            converged = False
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
    lo = min(lo, best_exact)
    return IntervalBound(max(lo, 0.0), hi, tol, converged)


def dist_to_set(
    x: Point,
    sys: BallSystem,
    tol: float,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> IntervalBound:
    """Certified enclosure of dist(x, C) for the set C generated by sys."""
    x = as_point(x)
    if len(x) != sys.dimension:
        raise ValueError(f"point dimension {len(x)} vs system dimension {sys.dimension}")
    if not tol > 0:
        raise ValueError("tol must be positive")
    return _oracle(sys).enclosure(x, tol, node_budget)


# -- hole radius ---------------------------------------------------------------


def _clamp_into_ball(q: Point, region: Ball, norm: NormKind) -> Point:
    d = norm_distance(q, region.center, norm)
    if d <= region.radius:
        return q
    t = region.radius / d
    return tuple(c + t * (qi - c) for c, qi in zip(region.center, q))


def _split_box(
    lo: Tuple[float, ...], hi: Tuple[float, ...], norm: NormKind
) -> List[Tuple[Tuple[float, ...], Tuple[float, ...]]]:
    d = len(lo)
    if norm is NormKind.LINF:
        mids = tuple(0.5 * (l + h) for l, h in zip(lo, hi))
        out = []
        for mask in range(2**d):
            nl = tuple(lo[i] if not mask >> i & 1 else mids[i] for i in range(d))
            nh = tuple(mids[i] if not mask >> i & 1 else hi[i] for i in range(d))
            out.append((nl, nh))
        return out
    axis = max(range(d), key=lambda i: (hi[i] - lo[i], -i))
    mid = 0.5 * (lo[axis] + hi[axis])
    nl = tuple(mid if i == axis else lo[i] for i in range(d))
    nh = tuple(mid if i == axis else hi[i] for i in range(d))
    return [(lo, tuple(nh[i] if i == axis else hi[i] for i in range(d))), (nl, hi)]


def _hole_bnb(
    sys: BallSystem,
    word: Word,
    tol: float,
    node_budget: int,
) -> IntervalBound:
    """Maximize dist(x, C) over the node ball by subdividing into sub-boxes.

    On a sub-box with representative q inside the node, the max over the box
    is enclosed by [dist(q, C).lo, dist(q, C).hi + reach(box, q)] since the
    distance function is 1-Lipschitz in the workspace norm.
    """
    oracle = _oracle(sys)
    region = sys.ball(word)
    norm = sys.norm
    ftol = tol / 4

    def evaluate(lo: Tuple[float, ...], hi: Tuple[float, ...]):
        q = tuple(0.5 * (a + b) for a, b in zip(lo, hi))
        if norm is not NormKind.LINF:
            nearest = _clamp_box(region.center, lo, hi)
            if norm_distance(nearest, region.center, norm) > region.radius:
                return None  # box misses the node ball entirely
            q = _clamp_into_ball(q, region, norm)
        f = oracle.enclosure(q, ftol, node_budget)
        # the farthest box corner from q bounds how far the box reaches
        reach = vector_size([max(abs(h - c), abs(c - l)) for l, h, c in zip(lo, hi, q)], norm)
        return f.lo, f.hi + reach, f.converged

    box_lo = tuple(c - region.radius for c in region.center)
    box_hi = tuple(c + region.radius for c in region.center)
    first = evaluate(box_lo, box_hi)
    lower = first[0]
    converged_all = first[2]
    # max-heap on the box upper bound; ties resolved by the smallest box corner
    heap = [(-first[1], box_lo, box_hi)]
    expansions = 0
    while heap:
        upper = -heap[0][0]
        if upper - lower <= tol:
            return IntervalBound(lower, upper, tol, converged_all)
        if expansions >= node_budget:
            return IntervalBound(lower, upper, tol, False)
        _, lo_t, hi_t = heapq.heappop(heap)
        expansions += 1
        for nl, nh in _split_box(lo_t, hi_t, norm):
            res = evaluate(nl, nh)
            if res is None:
                continue
            flo, ub, conv = res
            converged_all = converged_all and conv
            if flo > lower:
                lower = flo
            if ub > lower:
                heapq.heappush(heap, (-ub, nl, nh))
    return IntervalBound(lower, lower, tol, converged_all)


def _clamp_box(p: Point, lo: Sequence[float], hi: Sequence[float]) -> Point:
    return tuple(min(h, max(l, c)) for c, l, h in zip(p, lo, hi))


def hole_radius(
    word: Word,
    sys: BallSystem,
    tol: float,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> IntervalBound:
    """Certified enclosure of h_I = max over S_I of dist(x, C).

    x ranges over the node's ball while the distance is taken to the whole
    generated set, not only the part below the node.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    try:
        ball = sys.ball(tuple(word))
    except KeyError as exc:
        raise ValueError(f"word {word!r} names no node") from exc
    h = _exact_hole(sys, ball, tol)
    if h is not None:
        return h
    return _hole_bnb(sys, tuple(word), tol, node_budget)


def _exact_hole(sys: BallSystem, ball: Ball, tol: float) -> Optional[IntervalBound]:
    """The hole radius of a node ball where a closed form gives it: g/2
    times the radius on corner images, the farthest point from the leaf
    intervals on finite 1-D trees; None on every other system."""
    oracle = _oracle(sys)
    if oracle.mode == "corner":
        return _pad_iv(oracle.axes[0].g / 2 * ball.radius, tol)
    if oracle.mode == "finite1d":
        a, b = ball.center[0] - ball.radius, ball.center[0] + ball.radius
        return _pad_iv(_finite1d_hole(oracle.starts, oracle.ends, a, b), tol)
    return None


# -- thickness ------------------------------------------------------------------


def _record(word: Word, min_rad: float, h: IntervalBound, tol: float) -> NodeThicknessRecord:
    lo = min_rad / h.hi if h.hi > 0 else math.inf
    hi = min_rad / h.lo if h.lo > 0 else math.inf
    return NodeThicknessRecord(word, min_rad, h, IntervalBound(lo, hi, tol))


def thickness(
    sys: BallSystem,
    depth: int,
    tol: float,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ThicknessReport:
    """Enclosure of the infimum over nodes of (min child radius)/h_I.

    Exact for corner products and finite 1-D trees. Self-similar systems use
    the root-hole transfer, which bounds every depth at once; the report is
    marked valid for all depths only when the depth-1 siblings are verified
    pairwise disjoint.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if not tol > 0:
        raise ValueError("tol must be positive")
    axes = sys.corner_axes()
    if axes is not None:
        return _thickness_corner(sys, axes[0], depth, tol)
    if sys.is_finite:
        return _thickness_finite(sys, depth, tol)
    gen = sys.generator
    if isinstance(gen, TransformedSystem) and gen.kind == "perturbed":
        return _thickness_perturbed(sys, gen, depth, tol, node_budget)
    if sys.is_homothetic():
        return _thickness_homothetic(sys, depth, tol, node_budget)
    return _thickness_generic(sys, depth, tol, node_budget)


def _thickness_corner(sys: BallSystem, axis: CornerAxis, depth: int, tol: float) -> ThicknessReport:
    tau = axis.ell / axis.g
    R = sys.root.radius
    h = _exact_hole(sys, sys.root, tol)
    rec = NodeThicknessRecord(ROOT, axis.ell / 2 * R, h, _pad_iv(tau, tol))
    return ThicknessReport(
        overall=_pad_iv(tau, tol),
        per_node=(rec,),
        depth=depth,
        converged=True,
        valid_all_depths=sys.siblings_disjoint_at_root(),
        method="corner-exact",
    )


def _thickness_finite(sys: BallSystem, depth: int, tol: float) -> ThicknessReport:
    if sys.dimension != 1:
        return _thickness_generic(sys, depth, tol, DEFAULT_NODE_BUDGET)
    records: List[NodeThicknessRecord] = []
    best: Optional[NodeThicknessRecord] = None
    deeper_internal = False
    for word, ball in sys.walk(1_000_000):
        kids = sys.children(word)
        if not kids:
            continue
        if len(word) > depth:
            deeper_internal = True
            continue
        rec = _record(word, min(k.radius for k in kids), _exact_hole(sys, ball, tol), tol)
        if best is None or rec.ratio.lo < best.ratio.lo:
            best = rec
        if len(records) < _MAX_RECORDS:
            records.append(rec)
    if best is None:
        # childless root: no internal nodes, the infimum is vacuous
        overall = IntervalBound(math.inf, math.inf, tol)
        return ThicknessReport(overall, (), depth, True, True, "finite-1d-exact")
    if best not in records:
        records[-1] = best
    overall = best.ratio
    return ThicknessReport(
        overall=overall,
        per_node=tuple(records),
        depth=depth,
        converged=True,
        valid_all_depths=not deeper_internal,
        method="finite-1d-exact",
    )


def _thickness_homothetic(
    sys: BallSystem, depth: int, tol: float, node_budget: int
) -> ThicknessReport:
    R = sys.root.radius
    mrad = min(sys.child_ratios()) * R
    rough = _hole_bnb(sys, ROOT, R / 64, node_budget)
    h = rough
    if rough.lo > 0:
        target = tol * rough.lo * rough.lo / mrad
        target = min(max(target, 1e-14 * R), R / 64)
        if rough.width > target:
            h = _hole_bnb(sys, ROOT, target, node_budget)
    rec = _record(ROOT, mrad, h, tol)
    overall = rec.ratio
    return ThicknessReport(
        overall=overall,
        per_node=(rec,),
        depth=depth,
        converged=h.converged and overall.width <= tol,
        valid_all_depths=sys.siblings_disjoint_at_root(),
        method="homothetic-promotion",
    )


def _sample_hole_lower(sys: BallSystem, node_budget: int) -> float:
    """Sound lower bound on the root hole radius from a few sample points."""
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
        if sys.norm is not NormKind.LINF:
            p = _clamp_into_ball(p, region, sys.norm)
        enc = oracle.enclosure(p, ftol, node_budget)
        if enc.lo > best:
            best = enc.lo
    return best


def _thickness_perturbed(
    sys: BallSystem,
    gen: TransformedSystem,
    depth: int,
    tol: float,
    node_budget: int,
) -> ThicknessReport:
    base = gen.base
    eps = gen.eps
    base_axes = base.corner_axes()
    ratios = base.child_ratios()
    if base_axes is not None:
        g = base_axes[0].g
        hrel_hi = g / 2 * (1 + _REL_PAD)
    elif base.is_homothetic():
        hb = _hole_bnb(base, ROOT, base.root.radius * 1e-3, node_budget)
        hrel_hi = hb.hi / base.root.radius
    else:
        return _thickness_generic(sys, depth, tol, node_budget)
    lam_min = min(ratios)
    lower = (1 + eps) * lam_min / (2 * eps + (1 + eps) * hrel_hi)
    h_lo = _sample_hole_lower(sys, node_budget)
    minrad_root = min(k.radius for k in sys.children(ROOT))
    h_hi_abs = (2 * eps + (1 + eps) * hrel_hi) * base.root.radius
    upper = minrad_root / h_lo if h_lo > 0 else math.inf
    upper = max(upper, lower)
    h_iv = IntervalBound(min(h_lo, h_hi_abs), h_hi_abs, tol)
    rec = NodeThicknessRecord(
        ROOT, minrad_root, h_iv, IntervalBound(lower, upper, tol)
    )
    return ThicknessReport(
        overall=IntervalBound(lower, upper, tol),
        per_node=(rec,),
        depth=depth,
        converged=math.isfinite(upper),
        valid_all_depths=False,
        method="perturbed-transfer",
    )


def _thickness_generic(
    sys: BallSystem, depth: int, tol: float, node_budget: int
) -> ThicknessReport:
    records: List[NodeThicknessRecord] = []
    best: Optional[NodeThicknessRecord] = None
    truncated = False
    converged = True
    examined = 0
    cap = 800
    for word, _ball in sys.walk(depth):
        kids = sys.children(word)
        if not kids:
            continue
        if examined >= cap:
            truncated = True
            break
        examined += 1
        h = _hole_bnb(sys, word, max(tol, 1e-9) * _ball.radius, node_budget)
        converged = converged and h.converged
        rec = _record(word, min(k.radius for k in kids), h, tol)
        if best is None or rec.ratio.lo < best.ratio.lo:
            best = rec
        if len(records) < _MAX_RECORDS:
            records.append(rec)
    if best is None:
        return ThicknessReport(IntervalBound(math.inf, math.inf, tol), (), depth, True, True, "per-node-bnb")
    if best not in records:
        records[-1] = best
    lo = 0.0 if truncated else best.ratio.lo
    overall = IntervalBound(lo, best.ratio.hi, tol)
    return ThicknessReport(
        overall=overall,
        per_node=tuple(records),
        depth=depth,
        converged=converged and not truncated,
        valid_all_depths=False,
        method="per-node-bnb",
    )


# -- denseness -------------------------------------------------------------------


def _dense1d_corner_decide(n: int, ell: float, r: float) -> Tuple[bool, float]:
    """Exact 1-D decision: every closed sub-ball of relative radius r swallows
    a child cell iff r >= ell + g/2. Returns (proven, witness center) with the
    witness in canonical [-1, 1] coordinates when refuted.

    The worst feasible centers are midpoints of adjacent cell centers (local
    maxima of the distance-to-nearest-center profile, all of height
    (ell+g)/2), so the condition collapses to the closed threshold.
    """
    g = corner_gap(n, ell)
    if r >= ell + g / 2:
        return True, 0.0
    if r < ell / 2:
        # no cell fits in the ball at all; any center works as a witness
        return False, 0.0
    # nearest midpoint of adjacent cell centers to the origin; for odd n it
    # stays feasible because r < ell + g/2 <= 1 - (ell+g)/2 for n >= 3
    witness = 0.0 if n % 2 == 0 else (ell + g) / 2
    return False, witness


def _verify_refutation(sys: BallSystem, word: Word, witness: Ball) -> bool:
    node = sys.ball(word)
    if not ball_contains(node, witness, sys.norm):
        return False
    return not any(
        ball_contains(witness, child, sys.norm) for child in sys.children(word)
    )


def denseness_check(
    sys: BallSystem,
    r: float,
    grid_step: float,
    depth: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> DensenessReport:
    """Sound three-way verdict on: every ball B inside a node with
    rad(B) >= r * rad(node) contains a child of that node.

    Exact for corner products and finite 1-D trees; elsewhere a margin grid
    proves, an exhaustive grid refutes with a verified witness ball, and
    anything the grid cannot decide is reported unknown.
    """
    if not 0 < r < 1:
        raise ValueError("r must lie in (0, 1)")
    if not grid_step > 0:
        raise ValueError("grid_step must be positive")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    axes = sys.corner_axes()
    if axes is not None:
        return _dense_corner(sys, axes[0], r, grid_step)
    if sys.is_finite and sys.dimension == 1:
        return _dense_finite1d(sys, r, grid_step, depth)
    return _dense_grid(sys, r, grid_step, depth)


def _dense_corner(sys: BallSystem, axis: CornerAxis, r: float, grid_step: float) -> DensenessReport:
    proven, witness_c = _dense1d_corner_decide(axis.n, axis.ell, r)
    if proven:
        return DensenessReport(r, "proven", None, grid_step, "corner-exact")
    root = sys.root
    center = tuple(c + root.radius * witness_c for c in root.center)
    witness = Ball(center, r * root.radius)
    if _verify_refutation(sys, ROOT, witness):
        return DensenessReport(r, "refuted", witness, grid_step, "corner-exact")
    # the exact decision and the witness check disagree only on float edges
    return DensenessReport(
        r, "unknown", None, grid_step, "corner-exact", "witness verification failed"
    )


def _dense_finite1d(sys: BallSystem, r: float, grid_step: float, depth: int) -> DensenessReport:
    for word, ball in sys.walk(min(depth, 1_000_000)):
        kids = sys.children(word)
        if not kids or len(word) > depth:
            continue
        a = ball.center[0] - ball.radius
        b = ball.center[0] + ball.radius
        rho = r * ball.radius
        feas_lo, feas_hi = a + rho, b - rho
        if feas_lo > feas_hi:
            continue
        # centers c where child i fits inside [c-rho, c+rho]
        windows = []
        for k in kids:
            ka, kb = k.center[0] - k.radius, k.center[0] + k.radius
            w_lo, w_hi = kb - rho, ka + rho
            if w_lo <= w_hi:
                windows.append((max(w_lo, feas_lo), min(w_hi, feas_hi)))
        windows = sorted(w for w in windows if w[0] <= w[1])
        # candidate uncovered centers: feasibility edges plus midpoints of
        # gaps between coverage runs; membership is then tested directly
        cands = [feas_lo, feas_hi]
        run_end: Optional[float] = None
        for w_lo, w_hi in windows:
            if run_end is not None and w_lo > run_end:
                cands.append(0.5 * (run_end + w_lo))
            run_end = w_hi if run_end is None else max(run_end, w_hi)
        hole_at = next(
            (
                c
                for c in cands
                if not any(w_lo <= c <= w_hi for w_lo, w_hi in windows)
            ),
            None,
        )
        if hole_at is not None:
            witness = Ball((hole_at,), rho)
            if _verify_refutation(sys, word, witness):
                return DensenessReport(r, "refuted", witness, grid_step, "finite-1d-exact")
            return DensenessReport(
                r, "unknown", None, grid_step, "finite-1d-exact",
                f"witness verification failed at node {word}",
            )
    return DensenessReport(r, "proven", None, grid_step, "finite-1d-exact")


def _dense_grid(sys: BallSystem, r: float, grid_step: float, depth: int) -> DensenessReport:
    import numpy as np

    homothetic = sys.is_homothetic()
    nodes = [ROOT] if homothetic else [
        w for w, _ in sys.walk(depth) if sys.children(w) and len(w) <= depth
    ]
    if not homothetic and len(nodes) > 5000:
        return DensenessReport(
            r, "unknown", None, grid_step, "grid", "node budget exceeded"
        )
    norm = sys.norm
    factor = {NormKind.LINF: 1.0, NormKind.L2: math.sqrt(sys.dimension), NormKind.L1: float(sys.dimension)}[norm]
    margin = grid_step * factor
    for word in nodes:
        ball = sys.ball(word)
        kids = sys.children(word)
        rel_centers = np.array(
            [[(k.center[i] - ball.center[i]) / ball.radius for i in range(sys.dimension)] for k in kids]
        )
        rel_radii = np.array([k.radius / ball.radius for k in kids])
        avail = 1 - r
        m = max(2, int(math.ceil(avail / grid_step)) + 1)
        if m**sys.dimension > 2_000_000:
            return DensenessReport(
                r, "unknown", None, grid_step, "grid", "grid too large at this step"
            )
        axis = np.linspace(-avail, avail, m)
        grids = np.meshgrid(*([axis] * sys.dimension), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        if norm is not NormKind.LINF:
            # restrict to points near the feasible center region
            norms = row_norms(pts, norm)
            pts = pts[norms <= avail + margin]
        contain_full = np.zeros(len(pts), dtype=bool)
        contain_margin = np.zeros(len(pts), dtype=bool)
        for i in range(len(kids)):
            dist_i = row_norms(pts - rel_centers[i], norm) + rel_radii[i]
            contain_full |= dist_i <= r
            contain_margin |= dist_i <= r - margin
        if not contain_full.all():
            bad = int(np.flatnonzero(~contain_full)[0])
            c_rel = pts[bad]
            if norm is NormKind.LINF or row_norms(c_rel, norm) <= avail:
                center = tuple(ball.center[i] + ball.radius * c_rel[i] for i in range(sys.dimension))
                witness = Ball(center, r * ball.radius)
                if _verify_refutation(sys, word, witness):
                    return DensenessReport(r, "refuted", witness, grid_step, "grid")
            return DensenessReport(
                r, "unknown", None, grid_step, "grid",
                f"grid ball at node {word} contains no child but verification failed",
            )
        if r - margin <= 0 or not contain_margin.all():
            return DensenessReport(
                r, "unknown", None, grid_step, "grid",
                "full-radius balls pass but the margin grid cannot certify",
            )
    return DensenessReport(r, "proven", None, grid_step, "grid")

