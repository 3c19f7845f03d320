"""Distance, hole radius, thickness, and denseness verdicts."""

from __future__ import annotations

import bisect
import gc
import heapq
import math
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from thickgap.geometry import Ball, IntervalBound, dist_point_ball, norm_distance
from thickgap.ballsystem import (
    BallSystem,
    CornerFamilyParams,
    GapList1D,
    HomotheticIFS,
    NormKind,
    corner_family,
    explicit_tree,
    from_gaps_1d,
    from_ifs,
    newhouse_thickness,
    perturbed_image,
    similarity_image,
    translate,
)
from thickgap import metrics
from thickgap.gaplemma import _locate
from thickgap.metrics import (
    _MAX_RECORDS,
    NODE_BUDGET,
    DensenessReport,
    ThicknessReport,
    _axis1d_dist,
    _corner1d_dist_batch,
    _dense_grid,
    _dist_bnb,
    _exact_hole,
    _finite1d_dist,
    _finite1d_hole,
    _hole_bnb,
    _leaves_1d,
    _oracle,
    _record,
    denseness_check,
    dist_to_set,
    hole_radius,
    thickness,
)

C4 = CornerFamilyParams(n=4, ell=0.4, d=2)
C4_1D = CornerFamilyParams(n=4, ell=0.4, d=1)
MID3 = CornerFamilyParams(n=2, ell=2 / 3, d=1)


def middle_thirds_ifs():
    return from_ifs(HomotheticIFS(((1 / 3, (-2 / 3,)), (1 / 3, (2 / 3,)))), NormKind.LINF)


# -- dist_to_set ---------------------------------------------------------------


def test_dist_root_corner_is_zero():
    sys = corner_family(C4)
    enc = dist_to_set((-1.0, -1.0), sys, 1e-9)
    assert enc.hi <= 1e-9


def test_dist_center_1d():
    sys = corner_family(C4_1D)
    enc = dist_to_set((0.0,), sys, 1e-9)
    assert enc.contains(1 / 15) or abs(enc.mid - 1 / 15) < 1e-12
    assert enc.width <= 1e-9


def test_dist_outside_root_lower_bound():
    sys = corner_family(C4)
    enc = dist_to_set((1.5, 0.0), sys, 1e-9)
    assert enc.lo >= 0.5 - 1e-12


def test_dist_validation():
    sys = corner_family(C4)
    with pytest.raises(ValueError):
        dist_to_set((0.0,), sys, 1e-6)
    with pytest.raises(ValueError):
        dist_to_set((0.0, 0.0), sys, 0.0)


def test_dist_ifs_bnb_path():
    sys = middle_thirds_ifs()
    enc = dist_to_set((0.0,), sys, 1e-6)
    assert abs(enc.mid - 1 / 3) <= 1e-6
    enc2 = dist_to_set((1.0,), sys, 1e-6)
    assert enc2.hi <= 1e-6
    assert enc.converged and enc2.converged


def test_dist_gap_system_exact():
    sys = from_gaps_1d(GapList1D(hull=(0.0, 1.0), gaps=((0.4, 0.6),)))
    assert dist_to_set((0.5,), sys, 1e-9).mid == pytest.approx(0.1, abs=1e-15)
    assert dist_to_set((0.2,), sys, 1e-9).hi == 0.0
    assert dist_to_set((1.3,), sys, 1e-9).mid == pytest.approx(0.3, abs=1e-15)


def test_dist_translated_corner_exact_path():
    sys = translate(corner_family(C4), (0.05, 0.02))
    enc = dist_to_set((0.05, 0.02), sys, 1e-9)
    assert enc.mid == pytest.approx(1 / 15, abs=1e-12)


def test_dist_monotone_in_budget(monkeypatch):
    sys = middle_thirds_ifs()
    x = (0.123,)
    monkeypatch.setattr(metrics, "NODE_BUDGET", 12)
    small = dist_to_set(x, sys, 1e-9)
    monkeypatch.setattr(metrics, "NODE_BUDGET", 5000)
    large = dist_to_set(x, sys, 1e-9)
    assert small.lo <= large.lo + 1e-15
    assert small.hi >= large.hi - 1e-15
    assert large.width <= small.width + 1e-15


def test_dist_soundness_against_point_cloud():
    # every enclosure must contain the distance to a depth-8 sample of C
    params = C4
    sys = corner_family(params)
    depth = 8
    ell, g = params.ell, params.g
    pts = np.array([0.0])
    pts = np.array([-1.0, 1.0])
    axis_pts = np.array([0.0])
    # endpoints of all depth-k cells along one axis
    axis_pts = np.array([-1.0, 1.0])
    for _ in range(depth):
        step = ell + g
        kids = []
        for k in range(params.n):
            m = -1 + ell / 2 + k * step
            kids.append(m + axis_pts * (ell / 2))
        axis_pts = np.unique(np.concatenate(kids))
    rng = random.Random(7)
    for _ in range(40):
        x = (rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        enc = dist_to_set(x, sys, 1e-9)
        cloud = max(np.abs(axis_pts - x[0]).min(), np.abs(axis_pts - x[1]).min())
        cell8 = (ell / 2) ** depth
        assert enc.lo <= cloud + 1e-12
        assert enc.hi >= cloud - 2 * cell8 - 1e-12


@st.composite
def _one_ratio_factors(draw):
    """A corner axis's factor or a 1-D IFS factor whose maps share one ratio."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 10))
        ell = draw(st.floats(1e-7, 0.999)) * 2 / n
        return corner_family(CornerFamilyParams(n, ell, 1)).axis_factors()[0]
    lam = draw(st.floats(1e-3, 0.6))
    ts = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5, unique=True))
    factors = HomotheticIFS(tuple((lam, (t,)) for t in ts)).axis_factors()
    assume(factors is not None)
    return factors[0]


@settings(max_examples=100, deadline=None)
@given(factor=_one_ratio_factors(), seed=st.integers(0, 2**32 - 1), mid=st.floats(-12.0, -1.0))
def test_corner1d_batch_matches_scalar(factor, seed, mid):
    f = factor
    rng = np.random.default_rng(seed)
    width = f.b - f.a
    # points of K too, where only the stop or an underflowed scale ends the descent
    deep = np.zeros(20)
    s = 1.0
    for _ in range(8):
        deep += s * np.array(f.ts)[rng.integers(0, len(f.ts), 20)]
        s *= f.lam_max
    ys = np.concatenate(
        [
            rng.uniform(f.a - 0.5 * width - 1, f.b + 0.5 * width + 1, 200),
            deep + s * rng.choice([f.a, f.b], 20),
            f.starts,
            f.ends,
            [f.a, f.b, 0.0, -0.0, np.inf, -np.inf, np.nan],
        ]
    ).reshape(-1, 1)
    # a stop of 0, the least positive one, one that fires mid-descent, and
    # ones at or above the width, which fire on the first level inside a hull
    for stop in (0.0, 5e-324, 10.0**mid * width, 1.0, 1.0 + width):
        got = _corner1d_dist_batch(ys, f, stop)
        want = np.array([[_axis1d_dist(f, y, stop)[1]] for y in ys.ravel().tolist()])
        assert got.shape == ys.shape
        assert got.tobytes() == want.tobytes()


# -- hole_radius ----------------------------------------------------------------


def test_hole_corner_root():
    for d in (1, 2):
        sys = corner_family(CornerFamilyParams(n=4, ell=0.4, d=d))
        enc = hole_radius((), sys, 1e-6)
        assert enc.contains(1 / 15)
        assert enc.width <= 1e-6


def test_hole_corner_child_scales():
    sys = corner_family(C4_1D)
    enc = hole_radius((0,), sys, 1e-9)
    assert enc.contains(1 / 15 * 0.2)


def test_hole_middle_thirds_root():
    enc = hole_radius((), middle_thirds_ifs(), 0.01)
    assert enc.lo <= 1 / 3 <= enc.hi
    assert enc.width <= 0.01


def test_hole_single_map_chain(monkeypatch):
    # one nested map: the generated set is the single fixed point, so the
    # root hole radius equals the root radius
    sys = from_ifs(HomotheticIFS(((0.99, (0.0,)),)), NormKind.LINF)
    monkeypatch.setattr(metrics, "NODE_BUDGET", 300_000)
    enc = hole_radius((), sys, 0.05)
    assert enc.contains(1.0)


def test_hole_bad_word():
    with pytest.raises(ValueError):
        hole_radius((99, 99), corner_family(C4), 1e-3)


def test_hole_with_the_held_ball():
    # a caller that holds the node's ball gets the same enclosure, and where
    # a closed form gives the hole no child block is built
    gaps = GapList1D(hull=(0.0, 1.0), gaps=((0.4, 0.6),))
    cases = [
        (lambda: corner_family(C4), (5, 2), True),
        (lambda: from_gaps_1d(gaps), (0,), True),
        (middle_thirds_ifs, (1,), False),
    ]
    for make, word, closed in cases:
        want = hole_radius(word, make(), 1e-3)
        sys = make()
        before = dict(sys._blocks)
        got = hole_radius(word, sys, 1e-3, ball=make().ball(word))
        assert repr(got) == repr(want)
        if closed:
            assert sys._blocks == before


def test_hole_gap_tree():
    sys = from_gaps_1d(GapList1D(hull=(0.0, 1.0), gaps=((0.4, 0.6),)))
    assert hole_radius((), sys, 1e-9).contains(0.1)
    assert hole_radius((0,), sys, 1e-9).hi <= 1e-9  # leaf: entirely inside the set


def _linear_finite1d_hole(starts, ends, a, b):
    """_finite1d_hole as a scan over every gap."""
    cands = [a, b]
    for e, s in zip(ends, starts[1:]):
        m = 0.5 * (e + s)
        if a <= m <= b:
            cands.append(m)
    return max(_finite1d_dist(starts, ends, c) for c in cands)


_coords = st.floats(-10.0, 10.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(
    points=st.lists(_coords, min_size=2, max_size=40),
    overlap=st.floats(0.0, 3.0),
    disjoint=st.booleans(),
    ends=st.tuples(_coords, _coords),
)
def test_finite1d_hole_matches_linear_scan(points, overlap, disjoint, ends):
    # disjoint leaf intervals from sorted pairs, or intervals of one length
    # that may overlap (the unit intervals of one-ratio IFS maps)
    points.sort()
    if disjoint:
        starts, ends_ = points[0::2][: len(points) // 2], points[1::2]
    else:
        starts, ends_ = points, [p + overlap for p in points]
    a, b = sorted(ends)
    got = _finite1d_hole(_leaves_1d(starts, ends_), a, b)
    assert got == _linear_finite1d_hole(starts, ends_, a, b)


def _candidate_scan_finite1d_hole(starts, ends, a, b):
    """_finite1d_hole as it was before the gap peaks were precomputed: a
    bisection keyed by the midpoint formula, then each candidate's distance."""

    def mid(i):
        return 0.5 * (ends[i] + starts[i + 1])

    gaps = range(len(starts) - 1)
    first = bisect.bisect_left(gaps, a, key=mid)
    last = bisect.bisect_right(gaps, b, key=mid)
    cands = [a, b] + [mid(i) for i in range(first, last)]
    return max(_finite1d_dist(starts, ends, c) for c in cands)


@settings(max_examples=300, deadline=None)
@given(
    points=st.lists(_coords, min_size=2, max_size=40),
    touch=st.lists(st.booleans(), max_size=20),
    ends=st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)),
)
@example(points=[0.0, 1.0, 2.0, 3.0, 4.0, 5.0], touch=[True, True], ends=(-20.0, 20.0))
@example(points=[0.0, 1.0, 2.0, 3.0], touch=[False], ends=(3.5, 20.0))
@example(points=[0.0, 1.0, 2.0, 3.0], touch=[True], ends=(1.0, 1.0))
def test_finite1d_hole_matches_candidate_scan(points, touch, ends):
    # disjoint leaf intervals from sorted pairs; touch[i] closes the gap
    # after interval i to zero width; [a, b] may reach past the hull
    points.sort()
    starts, ends_ = points[0::2][: len(points) // 2], points[1::2]
    for i, closed in enumerate(touch[: len(starts) - 1]):
        if closed:
            starts[i + 1] = ends_[i]
    a, b = sorted(ends)
    got = _finite1d_hole(_leaves_1d(starts, ends_), a, b)
    assert got == _candidate_scan_finite1d_hole(starts, ends_, a, b)


def test_overlapping_explicit_leaves_merge():
    # leaf (1,) nests in leaf (0,): the set is [0, 2] u [3, 4]
    sys = explicit_tree(
        NormKind.LINF,
        1,
        [
            ((), Ball((2.0,), 2.0)),
            ((0,), Ball((1.0,), 1.0)),
            ((1,), Ball((1.25,), 0.25)),
            ((2,), Ball((3.5,), 0.5)),
        ],
    )
    assert sys.leaf_intervals() == ((0.0, 2.0), (3.0, 4.0))
    assert dist_to_set((1.7,), sys, 1e-9).hi == 0.0
    assert hole_radius((), sys, 1e-9).contains(0.5)


# -- thickness -------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,ell,d,expected",
    [(4, 0.4, 2, 3.0), (2, 2 / 3, 1, 1.0), (10, 0.19, 2, 17.1)],
)
def test_thickness_corner_families(n, ell, d, expected):
    sys = corner_family(CornerFamilyParams(n=n, ell=ell, d=d))
    rep = thickness(sys, 5, 0.05)
    closed_form = ell * (n - 1) / (2 - n * ell)
    assert rep.overall.contains(closed_form)
    assert abs(rep.overall.mid - expected) < 1e-6
    assert rep.overall.width <= 0.1
    assert rep.converged
    assert rep.valid_all_depths
    assert rep.per_node[0].word == ()


def test_thickness_middle_thirds_ifs():
    rep = thickness(middle_thirds_ifs(), 3, 0.02)
    assert rep.overall.contains(1.0)
    assert rep.valid_all_depths
    assert rep.method == "homothetic-promotion"


def test_thickness_single_map():
    # C is a single point; every node's ratio is the contraction factor
    sys = from_ifs(HomotheticIFS(((0.5, (0.0,)),)), NormKind.LINF)
    rep = thickness(sys, 3, 0.05)
    assert rep.overall.contains(0.5)
    assert rep.overall.width <= 0.2


def test_thickness_gap_tree_matches_newhouse():
    gl = GapList1D(hull=(0.0, 1.0), gaps=((0.45, 0.55), (0.15, 0.25)))
    rep = thickness(from_gaps_1d(gl), 16, 1e-9)
    assert rep.overall.contains(newhouse_thickness(gl))
    assert rep.overall.width <= 1e-9
    assert rep.valid_all_depths
    assert rep.converged


def test_thickness_random_gap_trees_match_newhouse():
    rng = random.Random(11)
    for _ in range(5):
        gaps = []
        for _ in range(rng.randint(1, 6)):
            lo = rng.uniform(0.02, 0.9)
            hi = lo + rng.uniform(0.01, 0.08)
            if hi < 0.98 and all(hi < a or b < lo for a, b in gaps):
                gaps.append((lo, hi))
        if not gaps:
            continue
        gl = GapList1D(hull=(0.0, 1.0), gaps=tuple(gaps))
        rep = thickness(from_gaps_1d(gl), 32, 1e-9)
        nh = newhouse_thickness(gl)
        assert abs(rep.overall.mid - nh) <= 1e-9
        assert rep.overall.width <= 1e-9


def test_thickness_invariance_translate_similarity():
    base = corner_family(C4)
    rep0 = thickness(base, 4, 0.01)
    rep1 = thickness(translate(base, (0.3, -0.2)), 4, 0.01)
    rep2 = thickness(similarity_image(base, 2.5, (1.0, 1.0)), 4, 0.01)
    assert abs(rep1.overall.lo - rep0.overall.lo) <= 1e-12
    assert abs(rep2.overall.lo - rep0.overall.lo) <= 1e-12
    assert abs(rep1.overall.hi - rep0.overall.hi) <= 1e-12
    assert abs(rep2.overall.hi - rep0.overall.hi) <= 1e-12


def test_thickness_report_invariants():
    rep = thickness(corner_family(C4), 5, 0.05)
    assert rep.overall.lo <= min(r.ratio.lo for r in rep.per_node)
    assert rep.overall.hi >= min(r.ratio.hi for r in rep.per_node)
    assert rep.depth == 5


def test_thickness_perturbed_corner():
    def bump(p):
        x, y = p
        return (x + 0.003 * math.sin(y), y + 0.003 * math.cos(x))

    base = corner_family(C4)
    sys = perturbed_image(base, bump, eps=0.01)
    sys.validate(2)
    rep = thickness(sys, 5, 0.05)
    assert rep.method == "perturbed-transfer"
    assert rep.overall.lo >= 2.263
    assert rep.overall.lo <= 3.2  # stays near the unperturbed value
    assert not rep.valid_all_depths
    assert math.isfinite(rep.overall.hi)


def test_thickness_perturbed_is_converged_only_within_tol():
    sys = perturbed_image(corner_family(C4), lambda p: tuple(0.999 * x for x in p), 0.01)
    rep = thickness(sys, 3, 1e-6)
    assert rep.overall.width > 0.5  # the transfer bounds stay apart
    assert not rep.converged and not rep.overall.converged


def test_thickness_validation():
    with pytest.raises(ValueError):
        thickness(corner_family(C4), -1, 0.1)
    with pytest.raises(ValueError):
        thickness(corner_family(C4), 2, 0.0)


# -- denseness --------------------------------------------------------------------


def test_denseness_corner_threshold_proven():
    # the float tree needs one ulp above the exact threshold 7/15: at the
    # float 7/15 a ball about (8/15, 0) misses every child
    sys = corner_family(C4)
    rep = denseness_check(sys, 7 / 15, 1e-3, 3)
    assert (rep.method, rep.verdict) == ("box-exact", "refuted")
    assert rep.witness == Ball((0.5333333333333333, 0.0), 0.4666666666666667)
    rep = denseness_check(sys, 0.46666666666666673, 1e-3, 3)
    assert (rep.method, rep.verdict) == ("box-exact", "proven")
    assert rep.witness is None


def test_denseness_corner_below_threshold_refuted():
    sys = corner_family(C4)
    r = 7 / 15 - 1e-9
    rep = denseness_check(sys, r, 1e-3, 3)
    assert rep.verdict == "refuted"
    assert rep.witness is not None


def test_denseness_small_ball_witness_at_center():
    sys = corner_family(C4)
    rep = denseness_check(sys, 0.15, 1e-3, 3)
    assert rep.verdict == "refuted"
    assert rep.witness is not None
    assert rep.witness.center == pytest.approx((0.0, 0.0))
    assert rep.witness.radius == pytest.approx(0.15)


def test_denseness_wide_ball_proven():
    rep = denseness_check(corner_family(C4), 0.99, 1e-3, 2)
    assert rep.verdict == "proven"


def test_denseness_boundary_family_never_dense():
    # two cells touching the hull boundary: only r = 1 could work
    rep = denseness_check(corner_family(MID3), 0.99, 1e-3, 2)
    assert rep.verdict == "refuted"


def test_denseness_grid_proves_ifs():
    maps = tuple((0.2, (c,)) for c in (-0.8, -4 / 15, 4 / 15, 0.8))
    sys = from_ifs(HomotheticIFS(maps), NormKind.LINF)
    rep = denseness_check(sys, 0.6, 1e-3, 2)
    assert rep.method == "box-exact"
    assert rep.verdict == "proven"


def test_denseness_grid_refutes_ifs():
    rep = denseness_check(middle_thirds_ifs(), 0.5, 1e-3, 2)
    assert rep.method == "box-exact"
    assert rep.verdict == "refuted"
    assert rep.witness is not None


def test_denseness_grid_unknown_at_exact_threshold():
    # four L2 disks of radius 0.3 about (+-0.45, +-0.45): a ball about the
    # origin holds one from radius 0.3 + 0.45 * sqrt(2) on, and the margin
    # grid cannot certify that threshold itself
    maps = tuple((0.3, (a, b)) for a in (-0.45, 0.45) for b in (-0.45, 0.45))
    sys = from_ifs(HomotheticIFS(maps), NormKind.L2)
    rep = denseness_check(sys, 0.3 + 0.45 * math.sqrt(2), 1e-3, 2)
    assert (rep.method, rep.verdict) == ("grid", "unknown")
    assert denseness_check(sys, 0.93, 1e-3, 2).verdict == "refuted"
    assert denseness_check(sys, 0.94, 1e-3, 2).verdict == "proven"


def test_denseness_grid_refutes_from_the_most_interior_grid_ball():
    # the same four disks: no ball of radius 0.2 holds a child of radius
    # 0.3, and the first grid point in scan order lies outside the feasible
    # disk, so the witness is the childless grid ball about the origin
    maps = tuple((0.3, (a, b)) for a in (-0.45, 0.45) for b in (-0.45, 0.45))
    sys = from_ifs(HomotheticIFS(maps), NormKind.L2)
    rep = denseness_check(sys, 0.2, 1e-3, 2)
    assert (rep.method, rep.verdict) == ("grid", "refuted")
    assert rep.witness == Ball((0.0, 0.0), 0.2)


def test_denseness_grid_too_fine_to_count_is_unknown():
    # 0.8 / 1e-320 overflows to inf: the grid is refused before it is sized
    maps = tuple((0.3, (a, b)) for a in (-0.45, 0.45) for b in (-0.45, 0.45))
    sys = from_ifs(HomotheticIFS(maps), NormKind.L2)
    rep = denseness_check(sys, 0.2, 1e-320, 2)
    want = DensenessReport(0.2, "unknown", None, 1e-320, "grid", "grid too large at this step")
    assert repr(rep) == repr(want)
    # a childless root has no ball to refute and needs no grid at all
    lone = explicit_tree(NormKind.L2, 2, [((), Ball((0.0, 0.0), 1.0))])
    assert denseness_check(lone, 0.2, 1e-320, 2).verdict == "proven"


def test_denseness_grid_stops_counting_at_its_node_cap():
    # 36 children per node: depth 3 holds 1 + 36 + 1,296 + 46,656 internal
    # nodes, and the count stops at the 5,001st, about 140 depth-2 nodes in
    base = corner_family(CornerFamilyParams(6, 0.25, 2))
    img = perturbed_image(base, lambda p: tuple(0.999 * x for x in p), 0.01)
    rep = denseness_check(img, 0.5, 1e-2, 3)
    want = DensenessReport(0.5, "unknown", None, 1e-2, "box-exact", "node budget exceeded")
    assert repr(rep) == repr(want)
    assert len(img._blocks) + len(base._blocks) <= 300
    # the grid counts the same nodes under the same cap
    assert _dense_grid(img, 0.5, 1e-2, 3).detail == "node budget exceeded"


def test_denseness_gap_tree_exact():
    # gap splits leave both children flush against the node hull ends, so a
    # large ball centered mid-hull contains neither child for any r < 1
    sys = from_gaps_1d(GapList1D(hull=(0.0, 1.0), gaps=((0.4, 0.6),)))
    rep = denseness_check(sys, 0.9, 1e-3, 4)
    assert rep.verdict == "refuted"
    assert rep.witness is not None
    c = rep.witness.center[0]
    assert 0.45 <= c <= 0.55


def test_denseness_flat_tree_with_middle_child():
    # a middle child fits inside every feasible large ball: [0.3, 0.7] fits
    # in [c-0.45, c+0.45] for every feasible center c in [0.45, 0.55]
    flat = explicit_tree(
        NormKind.LINF,
        1,
        [
            ((), Ball((0.5,), 0.5)),
            ((0,), Ball((0.1,), 0.1)),
            ((1,), Ball((0.5,), 0.2)),
            ((2,), Ball((0.9,), 0.1)),
        ],
    )
    proven = denseness_check(flat, 0.9, 1e-3, 4)
    assert proven.verdict == "proven"
    small = denseness_check(flat, 0.45, 1e-3, 4)
    assert small.verdict == "refuted"
    assert small.witness is not None


def test_denseness_walk_to_depth_refutes_but_never_proves():
    # a perturbed image is neither homothetic nor finite: the nodes down to
    # depth 0 or 1 all pass, which proves nothing about deeper ones
    base = corner_family(CornerFamilyParams(10, 0.19, 2))
    img = perturbed_image(base, lambda p: (p[0] + 0.001 * math.sin(p[1]), p[1]), 0.01)
    for depth in (0, 1):
        rep = denseness_check(img, 0.3, 1e-3, depth)
        assert (rep.verdict, rep.method) == ("unknown", "box-exact")
        assert rep.detail == f"every node down to depth {depth} passes; deeper nodes are unchecked"
    # 1 + 100 + 10,000 internal nodes down to depth 2: past the node cap
    assert denseness_check(img, 0.3, 1e-3, 2).detail == "node budget exceeded"


def _spine_tree():
    """A 1-D explicit tree whose spine nodes, down to depth 3, each have 20
    children of radius 0.04R spaced 0.1R apart, child 0 continuing the
    spine; the spine's depth-4 node has two children of radius 0.1R at
    +-0.9R, so no ball of radius 0.1R about its center holds a child."""
    entries = [((), Ball((0.0,), 1.0))]
    word, c, rad = (), 0.0, 1.0
    for _ in range(4):
        entries += [(word + (k,), Ball((c + (k - 9.5) * 0.1 * rad,), 0.04 * rad)) for k in range(20)]
        word, c, rad = word + (0,), c - 0.95 * rad, 0.04 * rad
    entries += [(word + (k,), Ball((c + s * 0.9 * rad,), 0.1 * rad)) for k, s in enumerate((-1, 1))]
    return explicit_tree(NormKind.LINF, 1, entries)


@pytest.mark.parametrize("depth", [0, 2, 5])
def test_denseness_finite_tree_walks_every_node(depth):
    # the spine's depth-4 node fails: a walk to depth 2 said proven once
    rep = denseness_check(_spine_tree(), 0.1, 1e-3, depth)
    assert rep.verdict == "refuted"
    assert rep.witness.radius < 1e-6  # a ball of the depth-4 node


@st.composite
def _finite_systems(draw):
    """A maker of a finite 1-D tree, a gap tree or a spine of evenly spaced
    children whose layout changes from level to level, or of a translate or
    perturbed image of one: every system whose core is finite."""
    if draw(st.booleans()):
        # neighbouring cuts bound the tree's pieces, and from_gaps_1d refuses
        # a piece whose radius rounds to 0
        cuts = sorted(draw(st.sets(st.floats(-0.99, 0.99), min_size=2, max_size=16)))
        assume(all((b - a) / 2 > 0 for a, b in zip(cuts, cuts[1:])))
        gaps = GapList1D(hull=(-1.0, 1.0), gaps=tuple(zip(cuts[::2], cuts[1::2])))
        tree = lambda: from_gaps_1d(gaps)  # noqa: E731
    else:
        entries = [((), Ball((0.0,), 1.0))]
        word, c, rad = (), 0.0, 1.0
        for _ in range(draw(st.integers(1, 4))):
            m, f = draw(st.integers(2, 12)), draw(st.floats(0.3, 0.9))
            kids = [Ball((c - rad + (2 * k + 1) * rad / m,), f * rad / m) for k in range(m)]
            entries += [(word + (k,), kid) for k, kid in enumerate(kids)]
            k = draw(st.integers(0, m - 1))
            word, c, rad = word + (k,), kids[k].center[0], kids[k].radius
        tree = lambda: explicit_tree(NormKind.LINF, 1, entries)  # noqa: E731
    image = draw(st.sampled_from(["none", "translate", "perturbed"]))
    if image == "translate":
        return lambda: translate(tree(), (0.125,))
    if image == "perturbed":
        return lambda: perturbed_image(tree(), _warp, eps=0.05)
    return tree


@settings(max_examples=60, deadline=None)
@given(make=_finite_systems(), r=st.floats(0.05, 0.95))
def test_denseness_of_a_finite_tree_does_not_depend_on_depth(make, r):
    reports = {repr(denseness_check(make(), r, 1e-3, depth)) for depth in (0, 1, 3, 40)}
    assert len(reports) == 1


def test_denseness_validation():
    sys = corner_family(C4)
    with pytest.raises(ValueError):
        denseness_check(sys, 0.0, 1e-3, 2)
    with pytest.raises(ValueError):
        denseness_check(sys, 1.0, 1e-3, 2)
    with pytest.raises(ValueError):
        denseness_check(sys, 0.5, 0.0, 2)


def test_denseness_proven_implies_size_relations():
    # a proven r forces children no larger than r and holes no wider than 2r
    sys = corner_family(C4)
    r = 0.46666666666666673  # one ulp above 7/15, where the float tree is dense
    rep = denseness_check(sys, r, 1e-3, 3)
    assert rep.verdict == "proven"
    root = sys.root
    assert max(k.radius for k in sys.children(())) <= r * root.radius + 1e-12
    h = hole_radius((), sys, 1e-9)
    assert h.hi <= 2 * r * root.radius + 1e-9


def test_subtree_distance_within_twice_hole():
    # points of a node sit within 2 h_I of the part of the set inside the node
    params = C4
    sys = corner_family(params)
    word = (3,)
    node = sys.ball(word)
    sub = similarity_image(corner_family(params), node.radius, node.center)
    h = hole_radius(word, sys, 1e-9)
    rng = random.Random(3)
    for _ in range(20):
        x = tuple(c + node.radius * rng.uniform(-1, 1) for c in node.center)
        d_sub = dist_to_set(x, sub, 1e-9)
        assert d_sub.lo <= 2 * h.hi + 1e-9


def _refutation_by_fractions(sys, center, r):
    """_verify_refutation at the root with every comparison in Fractions."""

    def within(p, q, s):  # |p - q| <= s
        gaps = [abs(Fraction(a) - Fraction(b)) for a, b in zip(p, q)]
        if sys.norm is NormKind.L2:
            return s >= 0 and sum(g * g for g in gaps) <= s * s
        return (max(gaps) if sys.norm is NormKind.LINF else sum(gaps)) <= s

    node = sys.root
    rho = Fraction(r) * Fraction(node.radius)
    radius = float(rho) if float(rho) >= rho else math.nextafter(float(rho), math.inf)
    rho = Fraction(radius)
    kids = enumerate(zip(*sys.child_block(())))
    why = next((f"it holds child {k}" for k, (c, rk) in kids if within(c, center, rho - Fraction(rk))), None)
    if not within(center, node.center, Fraction(node.radius) - rho):
        why = "it leaves the node"
    if why is None:
        return DensenessReport(r, "refuted", Ball(tuple(center), radius), 0.1, "box-exact")
    return DensenessReport(r, "unknown", None, 0.1, "box-exact", f"failed: {why}")


# integer offsets of exact norm in each norm: Linf and L1 take any, L2 these
_L2_OFFSETS = {1: [(1,), (2,)], 2: [(3, 4), (0, 5)], 3: [(1, 2, 2), (2, 3, 6)]}


def _nudge(x, step):
    return math.nextafter(x, step * math.inf) if step else x


@st.composite
def _refutation_cases(draw):
    """(system, witness center, r): a root B(0, 1) whose children lie
    exactly at the edge of the witness's window, radius - r_k, in the norm,
    or one ulp either side of it; the witness sits inside the node, on its
    edge or one ulp either side."""
    norm = draw(st.sampled_from(list(NormKind)))
    d = draw(st.integers(1, 3))
    r = draw(st.sampled_from([0.25, 0.375, 0.5]) | st.floats(0.05, 0.9))
    radius = r  # the least float at or above r * 1.0
    cells = st.integers(-16, 16).map(lambda k: k / 64)
    center = [draw(cells) for _ in range(d)]
    if draw(st.booleans()):  # on the node's edge along axis 0
        center = [_nudge(1 - radius, draw(st.integers(-1, 1)))] + [0.0] * (d - 1)
    kids = []
    for _ in range(draw(st.integers(1, 4))):
        if norm is NormKind.L2:
            v = list(draw(st.sampled_from(_L2_OFFSETS[d])))
            size = math.isqrt(sum(x * x for x in v))
        else:
            v = [draw(st.integers(-4, 4)) for _ in range(d)]
            size = max(map(abs, v)) if norm is NormKind.LINF else sum(map(abs, v))
        v = [x * draw(st.sampled_from([-1, 1])) for x in draw(st.permutations(v))]
        q = 2.0 ** -draw(st.integers(3, 9))
        rk = _nudge(radius - size * q, draw(st.integers(-1, 1)))
        assume(rk > 0)
        c = [x + k * q for x, k in zip(center, v)]
        axis = draw(st.integers(0, d - 1))
        c[axis] = _nudge(c[axis], draw(st.integers(-1, 1)))
        kids.append((tuple(c), rk))
    entries = [((), Ball((0.0,) * d, 1.0))] + [((k,), Ball(*kid)) for k, kid in enumerate(kids)]
    return explicit_tree(norm, d, entries), center, r


# the sums past the float range fall back to Fractions
_HUGE = explicit_tree(
    NormKind.LINF, 1, [((), Ball((0.0,), 1.5e308)), ((0,), Ball((1.2e308,), 1e307))]
)


@settings(max_examples=400, deadline=None)
@example(case=(_HUGE, [-1.2e308], 0.1)).via("an exact sum past the float range")
@example(case=(_HUGE, [1.2e308], 0.1)).via("a witness holding the child")
@given(case=_refutation_cases())
def test_refutation_matches_fractions(case):
    sys, center, r = case
    got = metrics._verify_refutation(sys, (), center, r, 0.1, "box-exact", "failed")
    assert got == _refutation_by_fractions(sys, center, r)


# -- branch-and-bound distance over child blocks --------------------------------


def _reference_dist_bnb(sys, x, tol, node_budget):
    """_dist_bnb as it read Ball children: two norm evaluations per child,
    one for each bound. The block search must match it bit for bit."""
    norm = sys.norm
    upper = norm_distance(x, sys.root.center, norm) + sys.root.radius
    best_exact = math.inf
    heap = [(dist_point_ball(x, sys.root, norm), ())]
    expansions = 0
    converged = True
    while heap:
        cur_hi = min(upper, best_exact)
        if cur_hi - min(heap[0][0], best_exact) <= tol:
            break
        if expansions >= node_budget:
            converged = False
            break
        dlo, word = heapq.heappop(heap)
        kids = sys.children(word)
        expansions += 1
        if not kids:
            best_exact = min(best_exact, dlo)
            continue
        for i, child in enumerate(kids):
            cub = norm_distance(x, child.center, norm) + child.radius
            if cub < upper:
                upper = cub
            clo = dist_point_ball(x, child, norm)
            if clo < min(upper, best_exact):
                heapq.heappush(heap, (clo, word + (i,)))
    hi = min(upper, best_exact)
    lo = min(heap[0][0], hi) if heap else hi
    lo = min(lo, best_exact)
    return IntervalBound(max(lo, 0.0), hi, tol)


def _warp(p):
    return tuple(x + 0.01 * math.sin(3 * x + k) for k, x in enumerate(p))


@st.composite
def _ifs_maps(draw, d):
    maps = []
    for _ in range(draw(st.integers(1, 4))):
        lam = draw(st.floats(0.05, 0.4))
        # each coordinate within (1 - lam)/d keeps the map inside the unit
        # ball of every norm
        reach = (1 - lam) / d
        t = tuple(draw(st.floats(-reach, reach)) for _ in range(d))
        maps.append((lam, t))
    return tuple(maps)


@st.composite
def _bnb_systems(draw):
    """A maker of fresh systems that take the branch-and-bound path, its
    dimension and the tolerances to test it at. Where siblings overlap or
    tie, a search's cost grows exponentially with the depth it needs, and
    both are common in perturbed images (every radius is inflated) and in
    3-D sets with repeated coordinates: these get the coarser tolerances."""
    norm = draw(st.sampled_from([NormKind.LINF, NormKind.L2, NormKind.L1]))
    d = draw(st.integers(1, 3))
    maps = draw(_ifs_maps(d))

    def base():
        return from_ifs(HomotheticIFS(maps), norm)

    shift = tuple(draw(st.floats(-0.3, 0.3)) for _ in range(d))
    scale = draw(st.floats(0.3, 2.0))
    image = draw(
        st.sampled_from(["none", "translate", "similarity", "perturbed", "corner", "gaps"])
    )
    coarse = (1e-2, 1e-3)
    fine = (1e-2, 1e-4, 1e-6) if d < 3 else coarse
    if image == "translate":
        return (lambda: translate(base(), shift)), d, fine
    if image == "similarity":
        return (lambda: similarity_image(translate(base(), shift), scale, shift)), d, fine
    if image == "perturbed":
        linf = lambda: from_ifs(HomotheticIFS(maps), NormKind.LINF)  # noqa: E731
        return (lambda: perturbed_image(linf(), _warp, eps=0.05)), d, coarse
    if image == "corner":
        n = draw(st.integers(2, 4))
        ell = draw(st.floats(0.1, 0.95)) * 2 / n
        params = CornerFamilyParams(n=n, ell=ell, d=d)
        return (lambda: perturbed_image(corner_family(params), _warp, eps=0.05)), d, coarse
    if image == "gaps":
        # the image of a finite tree is no finite system, so its leaves reach
        # the branch-and-bound as childless blocks
        # neighbouring cuts bound the tree's pieces, and from_gaps_1d
        # refuses a piece whose radius rounds to 0 (cuts 0 and 5e-324)
        cuts = sorted(draw(st.sets(st.floats(-0.99, 0.99), min_size=2, max_size=12)))
        assume(all((b - a) / 2 > 0 for a, b in zip(cuts, cuts[1:])))
        gaps = GapList1D(hull=(-1.0, 1.0), gaps=tuple(zip(cuts[::2], cuts[1::2])))
        return (lambda: perturbed_image(from_gaps_1d(gaps), _warp, eps=0.05)), 1, coarse
    return base, d, fine


@settings(max_examples=60, deadline=None)
@given(made=_bnb_systems(), data=st.data())
def test_dist_bnb_matches_reference_at_every_budget(made, data):
    make, d, tols = made
    tol = data.draw(st.sampled_from(tols))
    x = tuple(data.draw(st.floats(-1.5, 1.5)) for _ in range(d))
    ref_sys, sys = make(), make()
    # 1-D systems with disjoint child hulls and 2-D product grids answer
    # dist_to_set through the product mode; the search is called directly,
    # so every drawn system still tests it
    assert _oracle(sys).mode in ("bnb", "product")
    with pytest.MonkeyPatch.context() as mp:
        for budget in [*range(41), NODE_BUDGET]:
            want = _reference_dist_bnb(ref_sys, x, tol, budget)
            mp.setattr(metrics, "NODE_BUDGET", budget)
            got = _dist_bnb(sys, x, tol)
            assert repr(got) == repr(want), budget
    # a system whose blocks the reference already built answers alike
    assert repr(_dist_bnb(ref_sys, x, tol)) == repr(want)


def _reference_hole_bnb(sys, word, tol, node_budget):
    """The hole search as a self-contained max-heap loop over (lo, hi)
    boxes, ties going to the smallest box corner: the reference that
    _hole_bnb on metrics._box_max must match bit for bit. Its distance
    searches read the cap from metrics.NODE_BUDGET, as _hole_bnb's do."""
    from thickgap.metrics import _clamp_into_ball, _split_box
    from thickgap.geometry import vector_size

    oracle = _oracle(sys)
    region = sys.ball(word)
    norm = sys.norm
    ftol = tol / 4

    def evaluate(lo, hi):
        q = tuple(0.5 * (a + b) for a, b in zip(lo, hi))
        if norm is not NormKind.LINF:
            nearest = tuple(min(h, max(l, c)) for c, l, h in zip(region.center, lo, hi))
            if norm_distance(nearest, region.center, norm) > region.radius:
                return None
            q = _clamp_into_ball(q, region, norm)
        f = oracle.enclosure(q, ftol)
        reach = vector_size([max(abs(h - c), abs(c - l)) for l, h, c in zip(lo, hi, q)], norm)
        return f.lo, f.hi + reach, f.converged

    box_lo = tuple(c - region.radius for c in region.center)
    box_hi = tuple(c + region.radius for c in region.center)
    lower, ub, converged = evaluate(box_lo, box_hi)
    heap = [(-ub, box_lo, box_hi)]
    expansions = 0
    while heap:
        upper = -heap[0][0]
        if upper - lower <= tol:
            return IntervalBound(lower, upper, tol)
        if expansions >= node_budget:
            return IntervalBound(lower, upper, tol)
        _, lo, hi = heapq.heappop(heap)
        expansions += 1
        for nl, nh in _split_box(lo, hi, norm):
            res = evaluate(nl, nh)
            if res is None:
                continue
            flo, ub, conv = res
            converged = converged and conv
            lower = max(lower, flo)
            if ub > lower:
                heapq.heappush(heap, (-ub, nl, nh))
    return IntervalBound(lower, lower, tol)


@settings(max_examples=60, deadline=None)
@given(
    made=_bnb_systems(),
    tol=st.sampled_from([1e-1, 1e-2, 1e-3]),
    budgets=st.lists(st.integers(0, 60), min_size=1, max_size=4),
)
def test_hole_bnb_matches_reference_at_small_budgets(made, tol, budgets):
    make, _, _ = made
    ref_sys, sys = make(), make()
    with pytest.MonkeyPatch.context() as mp:
        for budget in budgets:
            mp.setattr(metrics, "NODE_BUDGET", budget)
            want = _reference_hole_bnb(ref_sys, (), tol, budget)
            got = _hole_bnb(sys, (), tol)
            assert repr(got) == repr(want), budget


def test_dist_bnb_builds_no_balls(monkeypatch):
    def no_balls(self, *args):
        raise AssertionError("Balls of a node's children were built")

    # children() and walk() store no Ball, so the store alone cannot see them
    monkeypatch.setattr(BallSystem, "children", no_balls)
    monkeypatch.setattr(BallSystem, "walk", no_balls)
    sys = from_ifs(HomotheticIFS(((0.3, (-0.45, -0.45)), (0.3, (0.45, 0.45)))), NormKind.L2)
    enc = dist_to_set((0.1, -0.2), sys, 1e-9)
    assert enc.converged and enc.width <= 1e-9
    assert sys._blocks


def test_dist_oracle_built_once_per_system(monkeypatch):
    sys = explicit_tree(
        NormKind.L2,
        2,
        [((), Ball((0.0, 0.0), 1.0)), ((0,), Ball((-0.5, 0.0), 0.3)), ((1,), Ball((0.5, 0.1), 0.2))],
    )
    walk = sys.walk
    walks = []
    monkeypatch.setattr(sys, "walk", lambda depth: walks.append(depth) or walk(depth))
    for x in ((0.0, 0.0), (0.9, 0.9), (-0.5, 0.0)):
        dist_to_set(x, sys, 1e-9)
    assert len(walks) == 1
    assert _oracle(sys) is _oracle(sys) and _oracle(sys).mode == "finite"


# a system of every shape, each with the distance oracle its query builds
_FREED = {
    "ifs_l2": (
        lambda: from_ifs(HomotheticIFS(((0.3, (-0.45, -0.45)), (0.3, (0.45, 0.45)))), NormKind.L2),
        "bnb",
    ),
    "corner": (lambda: corner_family(C4), "product"),
    "translate": (lambda: translate(corner_family(C4), (0.05, 0.02)), "product"),
    "chain": (
        lambda: translate(similarity_image(corner_family(C4), 0.5, (0.25, 0.0)), (0.0, -0.1)),
        "product",
    ),
    "perturbed": (
        lambda: perturbed_image(corner_family(C4), lambda p: (p[0] + 0.01 * p[1], p[1]), 0.05),
        "bnb",
    ),
    "gaps": (lambda: from_gaps_1d(GapList1D((0.0, 1.0), ((1 / 3, 2 / 3),))), "finite1d"),
    "table": (
        lambda: explicit_tree(
            NormKind.L2,
            2,
            [((), Ball((0.0, 0.0), 1.0)), ((0,), Ball((-0.5, 0.0), 0.3)), ((1,), Ball((0.5, 0.1), 0.2))],
        ),
        "finite",
    ),
}


@pytest.mark.parametrize("name", sorted(_FREED))
def test_queried_system_is_freed_by_reference_counting(name):
    make, mode = _FREED[name]
    sys = make()
    dist_to_set(tuple(c + 0.1 * (i + 1) for i, c in enumerate(sys.root.center)), sys, 1e-6)
    assert _oracle(sys).mode == mode
    if sys.corner_grid is not None:
        _locate(sys, Ball(sys.root.center, sys.root.radius / 2), 1e-6)
    # the system, its base and its core: a field naming its own system
    # would keep it alive until the cycle collector ran
    gone = [weakref.ref(s) for s in (sys, sys.base, sys.core) if s is not None]
    enabled = gc.isenabled()
    gc.disable()
    try:
        del sys
        assert [ref() for ref in gone] == [None] * len(gone)
    finally:
        if enabled:
            gc.enable()


# -- thickness node by node -----------------------------------------------------


def _reference_thickness_finite(sys, depth, tol):
    """Finite trees as thickness read them before the per-node loop was one:
    1-D trees exact over the whole tree, every other dimension through
    _reference_thickness_generic at the default budget."""
    if sys.dimension != 1:
        return _reference_thickness_generic(sys, depth, tol)
    records = []
    best = None
    deeper_internal = False
    for word, ball in sys.walk(1_000_000):
        kids = sys.children(word)
        if not kids:
            continue
        if len(word) > depth:
            deeper_internal = True
            continue
        rec = _record(word, min(k.radius for k in kids), _exact_hole(sys, word, tol), tol)
        if best is None or rec.ratio.lo < best.ratio.lo:
            best = rec
        if len(records) < _MAX_RECORDS:
            records.append(rec)
    if best is None:
        overall = IntervalBound(math.inf, math.inf, tol)
        return ThicknessReport(overall, (), depth, True, "finite-1d-exact")
    if best not in records:
        records[-1] = best
    return ThicknessReport(
        best.ratio, tuple(records), depth, not deeper_internal, "finite-1d-exact"
    )


def _reference_thickness_generic(sys, depth, tol):
    """The searched per-node loop as it was, with its 800-node cap."""
    records = []
    best = None
    truncated = False
    converged = True
    examined = 0
    for word, ball in sys.walk(depth):
        kids = sys.children(word)
        if not kids:
            continue
        if examined >= 800:
            truncated = True
            break
        examined += 1
        h = _hole_bnb(sys, word, max(tol, 1e-9) * ball.radius)
        converged = converged and h.converged
        rec = _record(word, min(k.radius for k in kids), h, tol)
        if best is None or rec.ratio.lo < best.ratio.lo:
            best = rec
        if len(records) < _MAX_RECORDS:
            records.append(rec)
    if best is None:
        overall = IntervalBound(math.inf, math.inf, tol)
        return ThicknessReport(overall, (), depth, True, "per-node-bnb")
    if best not in records:
        records[-1] = best
    lo = 0.0 if truncated else best.ratio.lo
    return ThicknessReport(
        IntervalBound(lo, best.ratio.hi, tol),
        tuple(records),
        depth,
        False,
        "per-node-bnb",
    )


def _middle_thirds_gaps(levels):
    """The middle-thirds construction's gaps down to the given level."""
    gaps, pieces = [], [(0.0, 1.0)]
    for _ in range(levels):
        grown = []
        for a, b in pieces:
            third = (b - a) / 3
            gaps.append((a + third, b - third))
            grown.extend([(a, a + third), (b - third, b)])
        pieces = grown
    return GapList1D(hull=(0.0, 1.0), gaps=tuple(gaps))


def _corner_tree_2d():
    """An explicit copy of corner n=3, ell=0.5, d=2 down to depth 2."""
    return explicit_tree(
        NormKind.LINF, 2, list(corner_family(CornerFamilyParams(3, 0.5, 2)).walk(2))
    )


def _reference_battery():
    """(name, fresh-system maker, depth, tol, reference) for each case."""
    finite = _reference_thickness_finite
    five = lambda: from_gaps_1d(_middle_thirds_gaps(5))  # noqa: E731
    nine = lambda: from_gaps_1d(_middle_thirds_gaps(9))  # noqa: E731
    cases = [(f"five-{d}", five, d, 1e-9, finite) for d in (3, 5, 9)]
    cases += [
        ("nine", nine, 9, 1e-9, finite),
        # 1,023 internal nodes: the 800-node cap counts searched nodes only
        ("ten", lambda: from_gaps_1d(_middle_thirds_gaps(10)), 10, 1e-9, finite),
        ("nine-translate", lambda: translate(nine(), (0.1,)), 9, 1e-9, finite),
        (
            "explicit-1d",
            lambda: explicit_tree(NormKind.LINF, 1, list(five().walk(10))),
            4,
            1e-9,
            finite,
        ),
        ("explicit-2d", _corner_tree_2d, 2, 1e-6, finite),
        ("explicit-2d-depth0", _corner_tree_2d, 0, 1e-6, finite),
        (
            "childless-1d",
            lambda: explicit_tree(NormKind.LINF, 1, [((), Ball((0.0,), 1.0))]),
            3,
            1e-9,
            finite,
        ),
        (
            "childless-2d",
            lambda: explicit_tree(NormKind.L2, 2, [((), Ball((0.0, 0.0), 1.0))]),
            3,
            1e-9,
            finite,
        ),
        (
            "gapless",
            lambda: from_gaps_1d(GapList1D(hull=(0.0, 1.0), gaps=())),
            3,
            1e-9,
            finite,
        ),
        (
            "perturbed-gaps",
            lambda: perturbed_image(
                from_gaps_1d(_middle_thirds_gaps(3)), _warp, eps=0.05
            ),
            2,
            1e-3,
            _reference_thickness_generic,
        ),
    ]
    return cases


@pytest.mark.parametrize(
    "make,depth,tol,reference",
    [case[1:] for case in _reference_battery()],
    ids=[case[0] for case in _reference_battery()],
)
def test_thickness_matches_the_separate_loops(make, depth, tol, reference):
    assert repr(thickness(make(), depth, tol)) == repr(reference(make(), depth, tol))


def test_thickness_budget_reaches_finite_trees_in_2d():
    tree = _corner_tree_2d()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "NODE_BUDGET", 5)
        rep = thickness(tree, 2, 1e-6)
        root = rep.per_node[0]
        assert root.word == () and root.h.converged is False
        assert rep.converged is False
        assert repr(root.h) == repr(_hole_bnb(_corner_tree_2d(), (), 1e-6))
    # the separate loop searched at the default budget whatever was asked
    old = _reference_thickness_finite(_corner_tree_2d(), 2, 1e-6)
    assert old.converged is True and (old.overall.lo, old.overall.hi) == (2.0, 2.0)


def test_thickness_valid_all_depths_needs_the_whole_tree():
    five = from_gaps_1d(_middle_thirds_gaps(5))
    # internal nodes reach depth 4: a shallower walk covers only part of them
    assert not thickness(five, 3, 1e-9).valid_all_depths
    assert thickness(five, 4, 1e-9).valid_all_depths
    ifs = middle_thirds_ifs()
    assert not thickness(perturbed_image(ifs, _warp, eps=0.05), 1, 1e-3).valid_all_depths


def test_exact_hole_is_converged_only_within_tol():
    # the similarity chain's rounding pad keeps this enclosure ~3.8e-15 wide
    sys = similarity_image(corner_family(CornerFamilyParams(4, 0.4921875, 1)), 1 / 32, (1.0,))
    h = hole_radius((), sys, 1e-16)
    assert h.width > 1e-16 and h.converged is False
    assert repr(_exact_hole(sys, (), 1e-16)) == repr(h)
    wide = hole_radius((), sys, 1e-14)
    assert (wide.lo, wide.hi) == (h.lo, h.hi) and wide.converged is True
    # finite 1-D trees: the 1e-12 pad is wider than a tol of 1e-13
    gaps = from_gaps_1d(GapList1D(hull=(0.0, 1.0), gaps=((1 / 3, 2 / 3),)))
    assert _exact_hole(gaps, (), 1e-13).converged is False
    assert _exact_hole(gaps, (), 1e-9).converged is True
