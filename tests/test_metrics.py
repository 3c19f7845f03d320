"""Distance, hole radius, thickness, and denseness verdicts."""

from __future__ import annotations

import gc
import heapq
import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thickgap.geometry import Ball, IntervalBound, dist_point_ball, norm_distance
from thickgap.ballsystem import (
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
from thickgap.metrics import (
    DEFAULT_NODE_BUDGET,
    _corner1d_dist,
    _corner1d_dist_batch,
    _dist_bnb,
    _oracle,
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


def test_dist_monotone_in_budget():
    sys = middle_thirds_ifs()
    x = (0.123,)
    small = dist_to_set(x, sys, 1e-9, node_budget=12)
    large = dist_to_set(x, sys, 1e-9, node_budget=5000)
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


def test_corner1d_batch_matches_scalar():
    n, ell = 4, 0.4
    xs = np.linspace(-1.4, 1.4, 257)
    blo, bhi = _corner1d_dist_batch(xs, n, ell)
    for x, l, h in zip(xs, blo, bhi):
        sl, sh = _corner1d_dist(float(x), n, ell)
        assert l == pytest.approx(sl, abs=1e-15)
        assert h == pytest.approx(sh, abs=1e-14)


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


def test_hole_single_map_chain():
    # one nested map: the generated set is the single fixed point, so the
    # root hole radius equals the root radius
    sys = from_ifs(HomotheticIFS(((0.99, (0.0,)),)), NormKind.LINF)
    enc = hole_radius((), sys, 0.05, node_budget=300_000)
    assert enc.contains(1.0)


def test_hole_bad_word():
    with pytest.raises(ValueError):
        hole_radius((99, 99), corner_family(C4), 1e-3)


def test_hole_gap_tree():
    sys = from_gaps_1d(GapList1D(hull=(0.0, 1.0), gaps=((0.4, 0.6),)))
    assert hole_radius((), sys, 1e-9).contains(0.1)
    assert hole_radius((0,), sys, 1e-9).hi <= 1e-9  # leaf: entirely inside the set


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


def test_thickness_validation():
    with pytest.raises(ValueError):
        thickness(corner_family(C4), -1, 0.1)
    with pytest.raises(ValueError):
        thickness(corner_family(C4), 2, 0.0)


# -- denseness --------------------------------------------------------------------


def test_denseness_corner_threshold_proven():
    sys = corner_family(C4)
    rep = denseness_check(sys, 7 / 15, 1e-3, 3)
    assert rep.verdict == "proven"
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
    assert rep.method == "grid"
    assert rep.verdict == "proven"


def test_denseness_grid_refutes_ifs():
    rep = denseness_check(middle_thirds_ifs(), 0.5, 1e-3, 2)
    assert rep.method == "grid"
    assert rep.verdict == "refuted"
    assert rep.witness is not None


def test_denseness_grid_unknown_at_exact_threshold():
    maps = tuple((0.2, (c,)) for c in (-0.8, -4 / 15, 4 / 15, 0.8))
    sys = from_ifs(HomotheticIFS(maps), NormKind.LINF)
    rep = denseness_check(sys, 7 / 15, 1e-3, 2)
    assert rep.verdict in ("proven", "unknown")  # margin grid cannot certify exactly
    assert rep.verdict == "unknown"


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
    r = 7 / 15
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
    return IntervalBound(max(lo, 0.0), hi, tol, converged)


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
        cuts = sorted(draw(st.sets(st.floats(-0.99, 0.99), min_size=2, max_size=12)))
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
    assert _oracle(sys).mode == "bnb"
    for budget in [*range(41), DEFAULT_NODE_BUDGET]:
        want = _reference_dist_bnb(ref_sys, x, tol, budget)
        got = _dist_bnb(sys, x, tol, budget)
        assert repr(got) == repr(want), budget
    # a system whose blocks the reference already built answers alike
    assert repr(_dist_bnb(ref_sys, x, tol, DEFAULT_NODE_BUDGET)) == repr(want)


def test_dist_bnb_builds_no_balls():
    sys = from_ifs(HomotheticIFS(((0.3, (-0.45, -0.45)), (0.3, (0.45, 0.45)))), NormKind.L2)
    enc = dist_to_set((0.1, -0.2), sys, 1e-9)
    assert enc.converged and enc.width <= 1e-9
    assert sys._blocks and not sys._kids
    assert list(sys._balls) == [()]


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


def test_queried_system_is_freed_by_reference_counting():
    sys = from_ifs(HomotheticIFS(((0.3, (-0.45, -0.45)), (0.3, (0.45, 0.45)))), NormKind.L2)
    dist_to_set((0.1, 0.2), sys, 1e-6)
    assert _oracle(sys).mode == "bnb"
    gone = weakref.ref(sys)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del sys
        assert gone() is None
    finally:
        if enabled:
            gc.enable()
