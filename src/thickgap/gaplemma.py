"""Intersection criterion for two ball systems, with constructive witnesses.

check_hypotheses certifies the four sufficient conditions (thickness
product, overlap of the shrunken roots, root radius comparability, and
uniform denseness). intersect then runs the inductive construction those
conditions power: it maintains a point of one set deep inside a shrunken
ball of the other, alternating or repeating sides, with ball radii
contracting by a factor of r each step. The certificate it returns is
re-checkable from scratch: a witness point together with certified
distance enclosures to both sets and the full step trace.

directional_distance_certificate applies the same machinery to a set and
its own translate to certify one realized distance in a given direction.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .ballsystem import ROOT, BallSystem, BudgetExceeded, CornerGrid, Word, translate
from .geometry import (
    Ball,
    IntervalBound,
    NormKind,
    Point,
    ball_contains,
    ball_scale,
    distance_kernel,
    norm_distance,
    vector_size,
)
from .metrics import DensenessReport, denseness_check, dist_to_set, hole_radius, thickness

_FIND_BUDGET = 100_000
_SLACK = 1e-12
_HYP_TOL = 1e-3  # check_hypotheses' thickness tolerance
_MEET_DEPTH = 6  # the last level its overlap search reaches
_DENSE_STEP = 1e-3  # its denseness grid step
_DENSE_DEPTH = 3  # and denseness depth
_HOLE_REL_TOL = 1e-2  # intersect's hole enclosures, relative to the node radius
_DIRECTIONAL_STEPS = 400  # intersect steps directional_distance_certificate allows
_DIRECTIONAL_SHARE = 0.5  # and the share of its tol that intersect's witness takes


@dataclass(frozen=True)
class TauHypothesis:
    status: str
    lhs: IntervalBound
    rhs: float


@dataclass(frozen=True)
class MeetHypothesis:
    status: str
    word: Optional[Word] = None


@dataclass(frozen=True)
class RadiiHypothesis:
    status: str
    first_vs_second: bool
    second_vs_first: bool


@dataclass(frozen=True)
class GapHypothesesReport:
    r: float
    hyp_tau: TauHypothesis
    hyp_meet: MeetHypothesis
    hyp_radii: RadiiHypothesis
    hyp_dense: Tuple[DensenessReport, DensenessReport]

    @property
    def statuses(self) -> Tuple[str, ...]:
        """The five verdicts: thickness product, meet, radii, both denseness."""
        hyps = (self.hyp_tau, self.hyp_meet, self.hyp_radii)
        return tuple(h.status for h in hyps) + tuple(d.verdict for d in self.hyp_dense)

    @property
    def all_proven(self) -> bool:
        return all(status == "proven" for status in self.statuses)


@dataclass(frozen=True)
class TraceStep:
    step: int
    side: int
    word: Word
    radius: float
    case: str


@dataclass(frozen=True)
class IntersectionCertificate:
    witness: Point
    residual1: IntervalBound
    residual2: IntervalBound
    trace: Tuple[TraceStep, ...]


@dataclass(frozen=True)
class DirectionalDistanceCertificate:
    v: Point
    t: float
    e1: Point
    e2: Point
    residual: float


def check_hypotheses(
    sys1: BallSystem,
    sys2: BallSystem,
    r: float,
    *,
    depth: int = 5,
) -> GapHypothesesReport:
    """Certify the four sufficient conditions for a nonempty intersection.

    Every sub-check is one-sided sound: "proven" is backed by enclosure
    ends or exact arithmetic, "refuted" by a verified counterexample, and
    anything undecided at the depths searched is "unknown".
    """
    if not 0 < r < 0.5:
        raise ValueError("r must lie in (0, 1/2)")
    if sys1.norm is not sys2.norm:
        raise ValueError("systems must share a norm")
    if sys1.dimension != sys2.dimension:
        raise ValueError("systems must share a dimension")

    rhs = 1.0 / (1.0 - 2 * r) ** 2
    # one system on both sides (as `distances` passes it) is computed once
    same = sys2 is sys1
    t1 = thickness(sys1, depth, _HYP_TOL)
    t2 = t1 if same else thickness(sys2, depth, _HYP_TOL)
    a, b = t1.overall, t2.overall
    # 0 * inf (a childless root's [inf, inf]) is NaN; thickness is never negative
    lhs = IntervalBound(a.lo * b.lo if a.lo and b.lo else 0.0, a.hi * b.hi, _HYP_TOL)
    # an infimum over fewer nodes is at least the true one: a truncated
    # report still refutes, but proves only when both cover every depth
    if lhs.lo >= rhs and t1.valid_all_depths and t2.valid_all_depths:
        tau_status = "proven"
    elif lhs.hi < rhs:
        tau_status = "refuted"
    else:
        tau_status = "unknown"
    hyp_tau = TauHypothesis(tau_status, lhs, rhs)

    hyp_meet = _meet_status(sys1, sys2, r, _MEET_DEPTH)

    ok12 = sys1.root.radius >= r * sys2.root.radius
    ok21 = sys2.root.radius >= r * sys1.root.radius
    hyp_radii = RadiiHypothesis("proven" if ok12 and ok21 else "refuted", ok12, ok21)

    dense1 = denseness_check(sys1, r, _DENSE_STEP, _DENSE_DEPTH)
    dense2 = dense1 if same else denseness_check(sys2, r, _DENSE_STEP, _DENSE_DEPTH)
    return GapHypothesesReport(r, hyp_tau, hyp_meet, hyp_radii, (dense1, dense2))


def _meet_status(sys1: BallSystem, sys2: BallSystem, r: float, meet_depth: int) -> MeetHypothesis:
    """Search for a ball of the first set inside the shrunken root of the second.

    A contained ball proves the overlap; a level on which no ball even
    intersects the target refutes it, since the set lives in that level.
    Levels 0 to meet_depth are searched, in word order.
    """
    target = ball_scale(sys2.root, 1.0 - 2 * r)
    dist = distance_kernel(sys1.norm)
    for depth, level in enumerate(sys1.meeting(target.center, target.radius)):
        for word, center, radius in level:
            if dist(target.center, center) + radius <= target.radius:
                return MeetHypothesis("proven", word)
        if depth == meet_depth:
            return MeetHypothesis("unknown")
    return MeetHypothesis("refuted")


def bridge_ball(sk: Ball, sl: Ball, r: float, norm: NormKind) -> Ball:
    """Ball of radius about r * rad(sl) inside both sk and sl.

    Mirrors the constructive claim behind the intersection step: either sk
    already fits in sl, or the centers coincide, or the ball sits at the
    midpoint between the boundary of the shrunken sl and the boundary of
    sl along the line of centers. The radius is backed off by a relative
    1e-13 and by 8 ulps of the largest coordinate or radius in play, which
    covers the rounding of the center's coordinates and of the containment
    tests. A bridge that still fails them is a failed step: RuntimeError.
    """
    if not 0 < r < 0.5:
        raise ValueError("r must lie in (0, 1/2)")
    if sk.radius < r * sl.radius * (1 - _SLACK):
        raise ValueError("sk must have radius at least r * rad(sl)")
    gap = norm_distance(sk.center, sl.center, norm)
    if gap > (1 - 2 * r) * sl.radius + sk.radius + _SLACK * sl.radius:
        raise ValueError("sk must meet the shrunken sl")
    if ball_contains(sl, sk, norm):
        return sk
    scale = max(map(abs, sl.center + sk.center)) + sl.radius + sk.radius
    radius = r * sl.radius * (1 - 1e-13) - 8 * math.ulp(scale)
    if not radius > 0:
        raise RuntimeError("bridge radius is below the rounding of its center")
    if gap == 0.0:
        return Ball(sl.center, radius)
    unit = tuple((a - b) / gap for a, b in zip(sk.center, sl.center))
    reach = (1 - r) * sl.radius
    center = tuple(b + reach * u for b, u in zip(sl.center, unit))
    out = Ball(center, radius)
    if not (ball_contains(sl, out, norm) and ball_contains(sk, out, norm)):
        raise RuntimeError("bridge construction failed its containment check")
    return out


def _locate(
    sys: BallSystem,
    target: Ball,
    tol: float,
    hint: Word = ROOT,
    cut: Optional[Tuple[float, float]] = None,
) -> Tuple[Point, Word]:
    """Point of the set inside target, as (deep node center, its word).

    Best-first over how far each node ball sticks out of the target: the
    key of a node is |c - t| + r - R for its center c and radius r and the
    target's t and R, ties go to the node pushed first, and the first node
    with key <= 0 is descended along one branch until its radius drops to
    tol, so the returned center is within tol of the set. key <= 0 is
    ball_contains' test: the same float |c - t| + r less R, and a
    correctly rounded difference has the sign of the exact one.

    The order is that of a full expansion, which pushes every child that
    meets the target when its parent is popped, numbering the pushes with
    a running counter. Here a popped node pushes only its family's first
    child in (key, counter) order, with the counter the full expansion
    gives it, and a placeholder for the others with that child's key and
    counter, which sorts right after the child. The placeholder is thus
    no later than any child it stands for, so it is popped before any of
    them would have been, and popping it pushes them with their own
    counters: the nodes popped are those of the full expansion, in the
    same order. Placeholders do not count against _FIND_BUDGET. A node is
    carried as its center and radius in the frame _family reads children
    in, so the search builds no Ball.

    On a corner grid the search resumes below the root along hint, a word
    of sys (callers pass a node known to hold the target). _warm_start
    follows it while each node has key > 0 and its family, as _family
    computes it, is the hint's next child alone. From the root down to
    the deepest such node the full expansion pops each node, pushes its
    one child with the next counter and leaves nothing else on the heap:
    it pops the node at depth m as its (m + 1)-th pop, with counter m, on
    an otherwise empty heap. Starting there with counter = pops = m thus
    continues its sequence of popped (key, counter, word) bit for bit,
    budget included. Other systems start at the root.

    cut, when given, is intersect's (shrink, h) for the step that reads
    the word next: _descend then stops at the first node past it (see
    _past_cut), so the word is a prefix of the uncut one and the center,
    that node's, need not lie within tol of the set. The budget counts
    pops of the search, not levels of the descent, so the cut leaves it
    alone.
    """
    norm = sys.norm
    root = sys.root
    grid = sys.corner_grid
    key = norm_distance(root.center, target.center, norm) + root.radius - target.radius
    if grid is None:
        word, center, radius = ROOT, root.center, root.radius
    else:
        key, word, center, radius = _warm_start(grid, target, hint, key)
    counter = pops = len(word)
    heap: List[tuple] = [(key, counter, 0, word, center, radius)]
    while heap:
        # stop before popping the node past the budget, as a full expansion does
        if not heap[0][2] and pops >= _FIND_BUDGET:
            raise BudgetExceeded(
                f"no node ball certifiably inside target B[{target.center}, {target.radius}] "
                f"at tolerance {tol} within _FIND_BUDGET = {_FIND_BUDGET} pops"
            )
        entry = heapq.heappop(heap)
        if entry[2]:
            for kid in entry[3]:
                heapq.heappush(heap, kid)
            continue
        pops += 1
        key, _, _, word, center, radius = entry
        if key <= 0:
            return _descend(sys, grid, target, tol, word, center, radius, cut)
        family = _family(sys, grid, target, word, center, radius, counter)
        if family is not None:
            first, rest, size = family
            heapq.heappush(heap, first)
            if size > 1:
                heapq.heappush(heap, (first[0], first[1], 1, rest))
            counter += size
    raise RuntimeError(
        f"no node ball certifiably inside target B[{target.center}, {target.radius}] "
        f"at tolerance {tol}"
    )


def _warm_start(
    grid: CornerGrid, target: Ball, hint: Word, key: float
) -> Tuple[float, Word, Point, float]:
    """(key, word, center, radius) of the deepest node on hint's path from
    the root, whose key is key, that _locate's search reaches with nothing
    else on its heap: each node above it has key > 0 and, on every axis,
    the hint's digit is the only one whose deviation is within reach.
    Float coordinates never fall as the digit rises, so the digits within
    reach are consecutive and the two neighbours of the hint's decide."""
    t_center, t_radius = target.center, target.radius
    n = grid.params.n
    center, radius = grid.root.center, grid.root.radius
    word = ROOT
    for j in hint:
        if not key > 0:
            break
        devs, _, own = grid.deviations(center, radius, t_center)
        reach = own + t_radius
        child_key = -math.inf
        rest = j
        for row in devs:
            rest, k = divmod(rest, n)
            if not (
                row[k] <= reach
                and (k == 0 or row[k - 1] > reach)
                and (k == n - 1 or row[k + 1] > reach)
            ):
                return key, word, center, radius
            child_key = max(child_key, row[k] + own - t_radius)
        key, word = child_key, word + (j,)
        center, radius = grid.params.child(center, radius, j)
    return key, word, center, radius


def _family(
    sys: BallSystem,
    grid: Optional[CornerGrid],
    target: Ball,
    word: Word,
    center: Point,
    radius: float,
    base: int,
) -> Optional[Tuple[tuple, Iterable[tuple], int]]:
    """The children of the node at word that meet the target, as heap
    entries (key, counter, 0, word, center, radius) numbered base + 1, ...
    in child order: (the first in (key, counter) order, an iterable of the
    others, how many there are), or None when no child meets the target.

    On a corner grid the per-axis kernel gives each axis's n deviations
    from the target center, and a child's Linf distance is the largest of
    its own per-axis ones, its key the largest per-axis key: adding r and
    subtracting R are monotone in floats, so they commute with the max. A
    child meets the target iff each deviation is within r + R, so only
    those digits are kept, and the family is their product, last axis
    slowest, which is ascending child index and counter. Its first member
    takes on each axis the lowest kept digit whose key is at most the
    least child key, the largest per-axis least key; only its core center
    is formed here, the others' when the placeholder is popped.
    """
    t_center, t_radius = target.center, target.radius
    if grid is None:
        dist = distance_kernel(sys.norm)
        centers, radii = sys.child_block(word)
        kids = []
        for j, (c, r) in enumerate(zip(centers, radii)):
            d = dist(c, t_center)
            if d <= r + t_radius:
                kids.append((d + r - t_radius, base + 1 + len(kids), 0, word + (j,), c, r))
        if not kids:
            return None
        first = min(kids)
        return first, [kid for kid in kids if kid is not first], len(kids)
    devs, core_radius, own = grid.deviations(center, radius, t_center)
    reach = own + t_radius
    rows = []
    least = -math.inf
    for row in devs:
        kept = [(dev + own - t_radius, k) for k, dev in enumerate(row) if dev <= reach]
        if not kept:
            return None
        rows.append(kept)
        least = max(least, min(kept)[0])
    n = grid.params.n
    rank = j = 0
    size = 1
    digits = []
    for kept in rows:
        p = 0
        while kept[p][0] > least:
            p += 1
        rank += p * size
        size *= len(kept)
        digits.append(kept[p][1])
    for k in reversed(digits):
        j = j * n + k
    kid = grid.params.child(center, radius, j)[0]
    first = (least, base + 1 + rank, 0, word + (j,), kid, core_radius)
    return first, _grid_siblings(grid, rows, base, rank, word, center, radius), size


def _grid_siblings(
    grid: CornerGrid,
    rows: List[List[Tuple[float, int]]],
    base: int,
    skip: int,
    word: Word,
    center: Point,
    radius: float,
) -> Iterator[tuple]:
    """The heap entries of a corner family but its member of rank skip,
    children of the node with this core center and radius."""
    n = grid.params.n
    for rank, combo in enumerate(itertools.product(*reversed(rows))):
        if rank == skip:
            continue
        j = 0
        for _, k in combo:
            j = j * n + k
        yield (
            max([key for key, _ in combo]),
            base + 1 + rank,
            0,
            word + (j,),
            *grid.params.child(center, radius, j),
        )


def _descend(
    sys: BallSystem,
    grid: Optional[CornerGrid],
    target: Ball,
    tol: float,
    word: Word,
    center: Point,
    radius: float,
    cut: Optional[Tuple[float, float]] = None,
) -> Tuple[Point, Word]:
    """Follow the child nearest the target center, lowest index on ties,
    from the node at word, given by its center and radius in _family's
    frame, until its radius drops to tol or, with a cut, until the first
    node past it (_past_cut), that node included, whichever comes first.
    Each level's choice depends on the node alone, so a cut word is a
    prefix of the uncut one. The radius tested is the system's, bit for
    bit the one path() gives intersect's k-loop.

    The node passed _locate's key <= 0 test, which is ball_contains', so
    it and every node under it lie in the target. On a corner grid the
    nearest distance is the largest per-axis least deviation the kernel
    gives, the children at that distance are those within it on every
    axis, and _first_inside, with radius 0, gives the lowest index among
    them; only that child's core center is formed, and the
    system center of the last node. The returned center is the system's,
    as ball(word) gives it.
    """
    t_center = target.center
    if grid is None:
        dist = distance_kernel(sys.norm)
        while radius > tol and not _past_cut(cut, radius):
            centers, radii = sys.child_block(word)
            if not radii:
                break
            j = min(range(len(radii)), key=lambda i: (dist(centers[i], t_center), i))
            word, center, radius = word + (j,), centers[j], radii[j]
        return center, word
    n = grid.params.n
    own = grid.node(center, radius)[1]
    while own > tol and not _past_cut(cut, own):
        devs, _, own = grid.deviations(center, radius, t_center)
        j = _first_inside(n, devs, 0.0, max(map(min, devs)))
        word = word + (j,)
        center, radius = grid.params.child(center, radius, j)
    return grid.node(center, radius)[0], word


def _past_cut(cut: Optional[Tuple[float, float]], radius: float) -> bool:
    """Whether a node of this radius is past the cut (shrink, h): its
    shrunken radius is below the hole bound h. intersect's k-loop stops at
    the first prefix past it, and _descend at the first node past it; one
    float test for both keeps the two stops the same. No cut, no stop."""
    return cut is not None and cut[0] * radius < cut[1]


def _is_witness_step(l_ball: Ball, tol: float) -> bool:
    """Whether intersect reads its point as a witness against l_ball, the
    other side's current ball, rather than only its word to the k-cut."""
    return l_ball.radius <= tol / 4


def find_point_in(sys: BallSystem, target: Ball, tol: float) -> Point:
    """Point inside target and within tol of the set; raises on exhaustion."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    return _locate(sys, target, tol)[0]


def _hole_hi(sys: BallSystem, word: Word, ball: Ball) -> IntervalBound:
    """The hole radius of the node at word, whose ball the caller holds, so
    a closed-form hole builds no Ball."""
    return hole_radius(word, sys, max(_HOLE_REL_TOL * ball.radius, 1e-12), ball=ball)


def _first_inside(n: int, devs: List[List[float]], radius: float, bound: float) -> Optional[int]:
    """The lowest index of a corner child inside a ball of radius bound, by
    ball_contains' Linf test, given the per-axis deviations devs of the
    children, all of this radius, from the ball's center; None when there
    is none. max(dev) + r is the largest per-axis dev + r, since float
    addition is monotone, so a child passes iff every axis does, and the
    lowest index takes the lowest passing digit on each axis."""
    j = 0
    for row in reversed(devs):
        for k, dev in enumerate(row):
            if dev + radius <= bound:
                break
        else:
            return None
        j = j * n + k
    return j


def intersect(
    sys1: BallSystem,
    sys2: BallSystem,
    r: float,
    tol: float,
    max_steps: int,
) -> IntersectionCertificate:
    """Construct a common point of the two sets, certified to tolerance tol.

    Runs the inductive two-case loop: each step picks the deepest ball of
    the side holding the current point whose shrinkage still dominates the
    hole radius of the other side's ball, then either pushes the point
    into a child of the other side (large ball case) or hands the point
    over to the other side (small ball case). Ball radii contract by a
    factor of r per step, and the final witness carries distance
    enclosures to both sets at tolerance tol.

    Init, Case1 and Case2 each end in relocate: a point of one side inside
    the next step's ball shrunk by 1 - 2r, located to delta, the least of
    tol / 10, margin / 4 and h / 2 for the ball's hole bound h (each term
    only when positive). Init has no margin; Case1's is positive, since
    the hole check before it raises otherwise.

    Before any step but a witness step (_is_witness_step) only the point's
    word is read, by the k-loop, which stops at the first prefix past the
    cut (shrink, h); relocate passes _locate that cut, so its descent stops
    at that node, the node included. The descent is deterministic, so the
    cut word is a prefix of the uncut one that holds its first prefix past
    the cut, or all of it: k, the k-node, the trace and the hints are the
    uncut descent's. _FIND_BUDGET counts pops, not levels, so certificates
    and budget stops are the uncut descent's bit for bit.
    """
    if not 0 < r < 0.5:
        raise ValueError("r must lie in (0, 1/2)")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    systems: Dict[int, BallSystem] = {1: sys1, 2: sys2}
    norm = sys1.norm
    shrink = 1.0 - 2 * r

    def relocate(
        side: BallSystem, ball: Ball, h: IntervalBound, margin: float, hint: Word
    ) -> Tuple[Point, Word]:
        delta = tol / 10
        if margin > 0:
            delta = min(delta, margin / 4)
        if h.hi > 0:
            delta = min(delta, h.hi / 2)
        cut = None if _is_witness_step(ball, tol) else (shrink, h.hi)
        return _locate(side, ball_scale(ball, shrink), delta, hint, cut)

    # start: a point of the first set inside the shrunken root of the second;
    # h_l, the hole bound of the other side's current ball, is carried along
    j, l_word, l_ball = 1, ROOT, systems[2].root
    h_l = _hole_hi(systems[2], ROOT, l_ball)
    point, point_word = relocate(systems[1], l_ball, h_l, math.inf, ROOT)
    trace: List[TraceStep] = [TraceStep(0, 1, ROOT, l_ball.radius, "Init")]

    for step in range(1, max_steps + 1):
        if _is_witness_step(l_ball, tol):
            res1 = dist_to_set(point, sys1, tol / 10)
            res2 = dist_to_set(point, sys2, tol / 10)
            if res1.hi <= tol and res2.hi <= tol:
                return IntersectionCertificate(point, res1, res2, tuple(trace))
        side_a = systems[j]
        side_b = systems[3 - j]

        # deepest prefix of the point's word whose shrunken ball still
        # dominates the hole radius of the other side's current ball: the
        # word ends at the first prefix past this cut unless it reached
        # tol first; the path is walked without building a Ball per prefix
        k, k_node = 0, (side_a.root.center, side_a.root.radius)
        for i, node in enumerate(side_a.path(point_word)):
            if _past_cut((shrink, h_l.hi), node[1]):
                break
            k, k_node = i, node
        k_word = point_word[:k]
        k_ball = Ball(*k_node)

        if k_ball.radius >= r * l_ball.radius:
            # large ball case: bridge into a child of the other side
            bridge = bridge_ball(k_ball, l_ball, r, norm)
            # the first child inside the bridge ball, by ball_contains' test
            # (bridge_ball checked that the two sides share a dimension)
            grid = side_b.corner_grid
            if grid is None:
                centers, radii = side_b.child_block(l_word)
                min_child = min(radii)
                dist = distance_kernel(norm)
                child_idx = next(
                    (
                        i
                        for i, c in enumerate(centers)
                        if dist(bridge.center, c) + radii[i] <= bridge.radius
                    ),
                    None,
                )
            else:
                *_, core = (side_b.core or side_b).path(l_word)
                devs, _, min_child = grid.deviations(*core, bridge.center)
                child_idx = _first_inside(grid.params.n, devs, min_child, bridge.radius)
            h_k = _hole_hi(side_a, k_word, k_ball)
            if not h_k.hi < shrink * min_child:
                raise RuntimeError(
                    f"step {step}: hole bound {h_k.hi:.6g} of the located ball is "
                    f"not below {shrink:.6g} * min child radius {min_child:.6g}"
                )
            if child_idx is None:
                raise RuntimeError(
                    f"step {step}: no child of word {l_word} fits in the bridge "
                    "ball; the denseness hypothesis fails here"
                )
            if grid is None:
                child_ball = side_b.ball(l_word + (child_idx,))
            else:
                child_ball = Ball(*grid.node(*grid.params.child(*core, child_idx)))
            if child_ball.radius > r * l_ball.radius * (1 + _SLACK):
                raise RuntimeError(
                    f"step {step}: child radius {child_ball.radius:.6g} exceeds "
                    f"r * rad = {r * l_ball.radius:.6g}"
                )
            l_word, l_ball = l_word + (child_idx,), child_ball
            h_l = _hole_hi(side_b, l_word, l_ball)
            # target in the child (now l_ball) in bridge in k_ball
            margin = shrink * l_ball.radius - h_k.hi
            point, point_word = relocate(side_a, l_ball, h_l, margin, k_word)
            case = "Case1"
        else:
            # small ball case: hand the point over to the other side
            if k == 0:
                raise RuntimeError(
                    f"step {step}: root ball smaller than r * rad of the other "
                    "side's ball; radius comparability fails here"
                )
            if (
                norm_distance(k_ball.center, l_ball.center, norm) + k_ball.radius
                > l_ball.radius * (1 + _SLACK)
            ):
                raise RuntimeError(
                    f"step {step}: located ball is not inside the other side's "
                    "ball; the contraction invariant fails here"
                )
            margin = shrink * k_ball.radius - h_l.hi
            h_l = _hole_hi(side_a, k_word, k_ball)
            # target in k_ball in l_ball
            point, point_word = relocate(side_b, k_ball, h_l, margin, l_word)
            j, l_word, l_ball = 3 - j, k_word, k_ball
            case = "Case2"
        trace.append(TraceStep(step, j, l_word, l_ball.radius, case))

    raise BudgetExceeded(
        f"no certified witness within max_steps = {max_steps} steps; last ball radius "
        f"{l_ball.radius:.6g} vs tolerance {tol:.6g}"
    )


def distance_interval(r: float) -> float:
    """Endpoint a of the guaranteed distance interval [0, a] for unit root radius."""
    if not 0 < r <= 1 / 3:
        raise ValueError("r must lie in (0, 1/3]")
    return 2 * r / (1 - 2 * r)


def directional_distance_certificate(
    sys: BallSystem, v: Point, t: float, tol: float, *, r: float
) -> DirectionalDistanceCertificate:
    """Certify that distance t is realized between two points of the set along v.

    e1 is intersect's witness for the set and its translate by t*v at
    tol / 2 (_DIRECTIONAL_SHARE), r1 its certified residual to the set.
    e2 = e1 - t*v is as near the set as e1 is to the translate; the other
    half of tol leaves room for r2, a fresh enclosure at tol / 10. The
    residual max(r1.hi, r2.hi, |(e1 - e2) - t*v|) must not exceed tol.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if abs(vector_size(v, sys.norm) - 1.0) > _SLACK:
        raise ValueError("v must be a unit vector in the workspace norm")
    limit = distance_interval(r) * sys.root.radius
    if not 0 <= t <= limit * (1 + _SLACK):
        raise ValueError(f"t must lie in [0, {limit:.6g}] for r = {r:.6g}")

    shifted = translate(sys, tuple(t * c for c in v))
    cert = intersect(sys, shifted, r, tol * _DIRECTIONAL_SHARE, _DIRECTIONAL_STEPS)
    e1 = cert.witness
    e2 = tuple(a - t * c for a, c in zip(e1, v))
    r2 = dist_to_set(e2, sys, tol / 10)
    gap = norm_distance(tuple(a - b for a, b in zip(e1, e2)), tuple(t * c for c in v), sys.norm)
    residual = max(cert.residual1.hi, r2.hi, gap)
    if residual > tol:
        raise RuntimeError(
            f"directional witness residual {residual:.6g} exceeds tolerance {tol:.6g}"
        )
    return DirectionalDistanceCertificate(v, t, e1, e2, residual)
