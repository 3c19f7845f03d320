"""Tests for the intersection criterion and its constructive witnesses."""

import heapq
import json
import math
import sys as pysys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thickgap.ballsystem import (
    ROOT,
    BallSystem,
    BudgetExceeded,
    CornerFamilyParams,
    GapList1D,
    HomotheticIFS,
    corner_family,
    explicit_tree,
    from_gaps_1d,
    from_ifs,
    perturbed_image,
    similarity_image,
    translate,
)
from thickgap import ballsystem, gaplemma
from thickgap.gaplemma import (
    bridge_ball,
    check_hypotheses,
    directional_distance_certificate,
    distance_interval,
    find_point_in,
    intersect,
)
from thickgap.geometry import Ball, NormKind, ball_contains, ball_scale, norm_distance
from thickgap.metrics import denseness_check, dist_to_set, thickness
from test_metrics import _finite_systems

R_BENCH = 0.19556


def bench_pair():
    s1 = corner_family(CornerFamilyParams(n=10, ell=0.19, d=2))
    s2 = translate(s1, (0.05, 0.02))
    return s1, s2


# hypothesis checking


def test_hypotheses_proven_on_overlapping_thick_pair():
    s1, s2 = bench_pair()
    rep = check_hypotheses(s1, s2, R_BENCH)
    assert rep.all_proven
    assert rep.r == R_BENCH

    assert rep.hyp_tau.status == "proven"
    assert rep.hyp_tau.rhs == pytest.approx(1.0 / (1.0 - 2 * R_BENCH) ** 2, rel=1e-12)
    # both factors are 17.1, so the product encloses 292.41
    assert rep.hyp_tau.lhs.lo > 292.0
    assert rep.hyp_tau.lhs.hi < 292.9
    assert rep.hyp_tau.lhs.lo >= rep.hyp_tau.rhs

    assert rep.hyp_meet.status == "proven"
    assert rep.hyp_meet.word is not None
    named = s1.ball(rep.hyp_meet.word)
    target = ball_scale(s2.root, 1.0 - 2 * R_BENCH)
    assert ball_contains(target, named, NormKind.LINF)

    assert rep.hyp_radii.status == "proven"
    assert rep.hyp_radii.first_vs_second and rep.hyp_radii.second_vs_first
    assert rep.hyp_dense[0].verdict == "proven"
    assert rep.hyp_dense[1].verdict == "proven"


def test_hypotheses_refuted_on_thin_pair():
    mid3 = corner_family(CornerFamilyParams(n=2, ell=2 / 3, d=1))
    rep = check_hypotheses(mid3, mid3, 0.4)
    assert not rep.all_proven
    assert rep.hyp_tau.status == "refuted"
    # thickness 1 on each side against a large right hand side
    assert rep.hyp_tau.lhs.hi < rep.hyp_tau.rhs
    assert rep.hyp_tau.rhs == pytest.approx(25.0, rel=1e-12)


def test_hypotheses_meet_refuted_when_far_apart():
    s1, _ = bench_pair()
    far = translate(s1, (10.0, 0.0))
    rep = check_hypotheses(s1, far, R_BENCH)
    assert rep.hyp_meet.status == "refuted"
    assert rep.hyp_meet.word is None
    assert not rep.all_proven


def test_hypotheses_validation():
    s1, s2 = bench_pair()
    with pytest.raises(ValueError):
        check_hypotheses(s1, s2, 0.0)
    with pytest.raises(ValueError):
        check_hypotheses(s1, s2, 0.5)
    l2_tree = explicit_tree(NormKind.L2, 2, [((), Ball((0.0, 0.0), 1.0))])
    with pytest.raises(ValueError):
        check_hypotheses(s1, l2_tree, 0.2)
    one_d = corner_family(CornerFamilyParams(n=10, ell=0.19, d=1))
    with pytest.raises(ValueError):
        check_hypotheses(s1, one_d, 0.2)


# the gaps1d tree of the depth-truncation case: lhs 2.25 from the root alone,
# 4.0e-6 once depth 1 is walked
_TRUNCATED_SPEC = {
    "norm": "linf",
    "dimension": 1,
    "generator": {"type": "gaps1d", "hull": [-1, 1], "gaps": [[-0.25, 0.25], [0.251, 0.749]]},
}


@pytest.mark.parametrize("depth, status", [(0, "unknown"), (1, "refuted")])
def test_truncated_thickness_product_is_not_proven(tmp_path, depth, status):
    from thickgap import cli

    spec, out = tmp_path / "gaps.json", tmp_path / "out.json"
    spec.write_text(json.dumps(_TRUNCATED_SPEC))
    argv = ["gapcheck", "--spec", str(spec), "--r", "0.1", "--depth", str(depth)]
    assert cli.main(argv + ["--out", str(out)]) == 4
    tau = json.loads(out.read_text())["hypotheses"]["tau_product"]
    assert tau["status"] == status
    if depth == 0:
        # the root's ratio alone clears rhs, but deeper nodes are thinner
        assert tau["lhs"]["lo"] >= tau["rhs"]


_FULL_HEIGHT = 40  # past the height of every tree _finite_systems draws


def _no_depth_overclaims(cut, full):
    """A verdict at a cut depth claims nothing the full-height one denies:
    proven only where full height proves, never refuted where it proves."""
    return (cut != "proven" or full == "proven") and not (cut == "refuted" and full == "proven")


@settings(max_examples=100, deadline=None)
@given(
    makers=st.tuples(_finite_systems(), _finite_systems()),
    r=st.floats(0.05, 0.45),
    depth=st.integers(0, 3),
)
def test_hypotheses_at_any_depth_claim_no_more_than_at_full_height(makers, r, depth):
    # random finite trees, their translates and perturbed images
    pair = [make() for make in makers]
    cut = check_hypotheses(*pair, r, depth=depth)
    full = check_hypotheses(*pair, r, depth=_FULL_HEIGHT)
    assert _no_depth_overclaims(cut.hyp_tau.status, full.hyp_tau.status), (cut, full)
    for sys, dense in zip(pair, cut.hyp_dense):
        full_dense = denseness_check(sys, r, gaplemma._DENSE_STEP, _FULL_HEIGHT)
        assert _no_depth_overclaims(dense.verdict, full_dense.verdict), (dense, full_dense)


def test_homothetic_thickness_covers_every_depth_when_siblings_overlap():
    sys = from_ifs(HomotheticIFS(((0.6, (-0.4,)), (0.6, (0.4,)))), NormKind.LINF)
    assert not sys.siblings_disjoint_at_root()
    report = thickness(sys, 2, 1e-6)
    assert report.method == "homothetic-promotion" and report.valid_all_depths


def test_one_system_on_both_sides_is_computed_once(monkeypatch):
    ifs = HomotheticIFS(((0.3, (-0.55, -0.4)), (0.3, (0.55, -0.4)), (0.3, (0.0, 0.65))))
    calls = {"thickness": 0, "denseness_check": 0}
    for name in calls:
        real = getattr(gaplemma, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(gaplemma, name, counted)
    sys = from_ifs(ifs, NormKind.L2)
    report = check_hypotheses(sys, sys, 0.2)
    assert calls == {"thickness": 1, "denseness_check": 1}
    # the same report as from two equal systems, each computed on its own
    twin = check_hypotheses(from_ifs(ifs, NormKind.L2), from_ifs(ifs, NormKind.L2), 0.2)
    assert calls == {"thickness": 3, "denseness_check": 3}
    assert report == twin


# bridge construction


def test_bridge_returns_inner_ball_when_contained():
    sk = Ball((0.1,), 0.3)
    sl = Ball((0.0,), 1.0)
    out = bridge_ball(sk, sl, 0.25, NormKind.LINF)
    assert out is sk


def test_bridge_concentric_when_centers_coincide():
    sk = Ball((0.0,), 1.5)
    sl = Ball((0.0,), 1.0)
    out = bridge_ball(sk, sl, 0.25, NormKind.LINF)
    assert out.center == sl.center
    assert out.radius == pytest.approx(0.25, rel=1e-12)
    assert out.radius >= 0.25 * sl.radius - 1e-12
    assert ball_contains(sl, out, NormKind.LINF)
    assert ball_contains(sk, out, NormKind.LINF)


def test_bridge_offset_example():
    sk = Ball((1.1, 0.0), 0.6)
    sl = Ball((0.0, 0.0), 1.0)
    out = bridge_ball(sk, sl, 0.25, NormKind.LINF)
    assert out.center[0] == pytest.approx(0.75, rel=1e-12)
    assert out.center[1] == pytest.approx(0.0, abs=1e-15)
    assert out.radius == pytest.approx(0.25, rel=1e-12)
    assert out.radius >= 0.25 * sl.radius - 1e-12
    assert ball_contains(sl, out, NormKind.LINF)
    assert ball_contains(sk, out, NormKind.LINF)


def test_bridge_validation():
    sl = Ball((0.0,), 1.0)
    with pytest.raises(ValueError):
        bridge_ball(Ball((0.0,), 0.1), sl, 0.25, NormKind.LINF)
    with pytest.raises(ValueError):
        bridge_ball(Ball((2.0,), 0.3), sl, 0.25, NormKind.LINF)
    with pytest.raises(ValueError):
        bridge_ball(Ball((0.0,), 0.5), sl, 0.6, NormKind.LINF)


@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from([1, 2]),
    rad_l=st.floats(0.5, 2.0),
    r=st.floats(0.05, 0.45),
    size=st.floats(1.02, 2.0),
    frac=st.floats(0.0, 0.98),
    angle=st.floats(0.0, 2 * math.pi),
)
def test_bridge_contains_both_and_keeps_radius(d, rad_l, r, size, frac, angle):
    rad_k = size * r * rad_l
    gap = frac * ((1 - 2 * r) * rad_l + rad_k)
    if d == 1:
        direction = (1.0,) if angle < math.pi else (-1.0,)
    else:
        raw = (math.cos(angle), math.sin(angle))
        scale = max(abs(raw[0]), abs(raw[1]))
        direction = (raw[0] / scale, raw[1] / scale)
    center_l = (0.0,) * d
    center_k = tuple(gap * u for u in direction)
    out = bridge_ball(Ball(center_k, rad_k), Ball(center_l, rad_l), r, NormKind.LINF)
    assert ball_contains(Ball(center_l, rad_l), out, NormKind.LINF)
    assert ball_contains(Ball(center_k, rad_k), out, NormKind.LINF)
    assert out.radius >= r * rad_l - 1e-12


@settings(max_examples=200, deadline=None)
@given(
    d=st.sampled_from([1, 2, 3]),
    origin=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
    rad_l=st.floats(1e-7, 1e-3),
    r=st.floats(0.05, 0.45),
    size=st.floats(1.02, 2.0),
    frac=st.floats(0.5, 1.0),
    raw=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
)
def test_bridge_of_small_balls_far_from_the_origin(d, origin, rad_l, r, size, frac, raw):
    # node radii small against the centers' coordinates: the back-off must
    # cover the rounding of the bridge center, or the bridge is a failed step
    scale = max(map(abs, raw[:d]))
    if scale < 1e-3:
        return
    rad_k = size * r * rad_l
    gap = frac * ((1 - 2 * r) * rad_l + rad_k)
    sl = Ball(origin[:d], rad_l)
    sk = Ball(tuple(c + gap * u / scale for c, u in zip(sl.center, raw)), rad_k)
    if norm_distance(sk.center, sl.center, NormKind.LINF) > (1 - 2 * r) * rad_l + rad_k:
        return
    out = bridge_ball(sk, sl, r, NormKind.LINF)
    assert ball_contains(sl, out, NormKind.LINF) and ball_contains(sk, out, NormKind.LINF)
    # every coordinate and radius here is below 2
    assert r * rad_l - out.radius <= 1e-13 * r * rad_l + 8 * math.ulp(2.0)


def test_bridge_that_fails_its_containment_check_is_a_failed_step(monkeypatch):
    monkeypatch.setattr(gaplemma, "ball_contains", lambda outer, inner, norm: False)
    with pytest.raises(RuntimeError, match="bridge construction failed its containment check"):
        bridge_ball(Ball((1.1, 0.0), 0.6), Ball((0.0, 0.0), 1.0), 0.25, NormKind.LINF)


def test_bridge_below_the_rounding_of_its_center_is_a_failed_step():
    # r * rad(sl) is below 8 ulps of the coordinates: no radius is left
    sk, sl = Ball((0.5 + 2**-53,), 1e-16), Ball((0.5,), 1e-16)
    with pytest.raises(RuntimeError, match="below the rounding of its center"):
        bridge_ball(sk, sl, 0.25, NormKind.LINF)


def test_intersect_bridges_small_balls_far_from_the_origin():
    # a chain image of corner n = 5 in d = 3 whose bridges, with radii about
    # 2e-5 near coordinate -0.47, once failed their containment check: a
    # relative back-off of 1e-13 was below the rounding of the center
    base = corner_family(CornerFamilyParams(n=5, ell=0.3406243038402147, d=3))
    s = (-0.0527903820525131, -0.07936679315385685, -0.0207883514778638)
    other = translate(similarity_image(translate(base, s), 0.883102715939118, s[::-1]), s)
    r, tol = 0.37777188735147454, 2.29e-8
    assert check_hypotheses(base, other, r).all_proven
    cert = intersect(base, other, r, tol, 200)
    assert any(step.case == "Case1" for step in cert.trace)
    assert cert.residual1.hi <= tol and cert.residual2.hi <= tol


# point location


def test_find_point_in_root_ball():
    s = corner_family(CornerFamilyParams(n=4, ell=2 / 5, d=1))
    p = find_point_in(s, s.root, 1e-6)
    assert norm_distance(p, s.root.center, NormKind.LINF) <= s.root.radius
    assert dist_to_set(p, s, 1e-7).hi <= 1.2e-6


def test_find_point_in_corner_box_2d():
    s = corner_family(CornerFamilyParams(n=4, ell=2 / 5, d=2))
    target = Ball((-0.8, -0.8), 0.25)
    p = find_point_in(s, target, 1e-6)
    assert norm_distance(p, target.center, NormKind.LINF) <= target.radius
    assert dist_to_set(p, s, 1e-7).hi <= 1.2e-6


def test_find_point_in_gap_exhausts():
    s = from_gaps_1d(GapList1D(hull=(0.0, 1.0), gaps=(((0.4, 0.6)),)))
    with pytest.raises(RuntimeError):
        find_point_in(s, Ball((0.5,), 0.04), 1e-6)
    with pytest.raises(ValueError):
        find_point_in(s, Ball((0.2,), 0.1), 0.0)


def _reference_locate(sys, target, tol):
    """_locate as a full expansion: every child of every node it touches is
    built and measured. The corner-grid search must match it exactly."""
    norm = sys.norm
    root = sys.root
    heap = [(norm_distance(root.center, target.center, norm) + root.radius - target.radius, 0, ())]
    counter = 0
    pops = 0
    while heap:
        pops += 1
        if pops > gaplemma._FIND_BUDGET:
            raise BudgetExceeded(
                f"no node ball certifiably inside target B[{target.center}, {target.radius}] "
                f"at tolerance {tol} within _FIND_BUDGET = {gaplemma._FIND_BUDGET} pops"
            )
        _, _, word = heapq.heappop(heap)
        ball = sys.ball(word)
        if ball_contains(target, ball, norm):
            while ball.radius > tol:
                kids = sys.children(word)
                if not kids:
                    break
                j = min(
                    range(len(kids)),
                    key=lambda i: (norm_distance(kids[i].center, target.center, norm), i),
                )
                word = word + (j,)
                ball = kids[j]
            return ball.center, word
        for j, kid in enumerate(sys.children(word)):
            if norm_distance(kid.center, target.center, norm) <= kid.radius + target.radius:
                counter += 1
                heapq.heappush(
                    heap,
                    (
                        norm_distance(kid.center, target.center, norm)
                        + kid.radius
                        - target.radius,
                        counter,
                        word + (j,),
                    ),
                )
    raise RuntimeError(
        f"no node ball certifiably inside target B[{target.center}, {target.radius}] "
        f"at tolerance {tol}"
    )


def _outcome(locate, sys, target, tol, *hint):
    try:
        return locate(sys, target, tol, *hint)
    except RuntimeError as exc:
        return type(exc).__name__, str(exc)


def _corner_image(kind, n, ell, d):
    base = corner_family(CornerFamilyParams(n=n, ell=ell, d=d))
    shift = tuple(0.013 * (k + 1) for k in range(d))
    if kind == "translate":
        return translate(base, shift)
    if kind == "similarity":
        return similarity_image(base, 0.75, shift)
    if kind == "chain":
        return translate(similarity_image(translate(base, shift), 1.3, shift[::-1]), shift)
    return base


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    n=st.integers(2, 10),
    d=st.integers(1, 3),
    kind=st.sampled_from(["corner", "translate", "similarity", "chain"]),
    ell_frac=st.floats(0.05, 0.95),
    radius=st.floats(1e-3, 0.6),
    tol=st.floats(1e-7, 1e-2),
)
def test_corner_locate_matches_full_expansion(data, n, d, kind, ell_frac, radius, tol):
    ell = ell_frac * 2 / n
    fast = _corner_image(kind, n, ell, d)
    ref = _corner_image(kind, n, ell, d)
    # a center on a child's center or a node corner makes Linf ties between children
    word = tuple(data.draw(st.lists(st.integers(0, n**d - 1), max_size=2)))
    node = ref.ball(word)
    spots = [
        node.center,
        tuple(c - node.radius for c in node.center),
        tuple(data.draw(st.floats(-1.2, 1.2)) for _ in range(d)),
    ]
    center = list(data.draw(st.sampled_from(spots)))
    for i in data.draw(st.sets(st.integers(0, d - 1))):
        center[i] = data.draw(st.floats(-1.2, 1.2))
    target = Ball(tuple(center), radius * ref.root.radius)
    expected = _outcome(_reference_locate, ref, target, tol)
    assert _outcome(gaplemma._locate, fast, target, tol) == expected


def test_corner_locate_breaks_ties_like_full_expansion():
    # the target center sits on the shared corner of four children: every
    # child is at the same Linf distance and the lowest index wins
    for kind in ("corner", "translate", "similarity", "chain"):
        fast = _corner_image(kind, 4, 0.4, 2)
        ref = _corner_image(kind, 4, 0.4, 2)
        kid = ref.ball((5,))
        target = Ball(tuple(c + kid.radius for c in kid.center), 2.5 * kid.radius)
        expected = _reference_locate(ref, target, 1e-9)
        assert gaplemma._locate(fast, target, 1e-9) == expected


def _reference_grid_descend(grid, tol, word, center, radius, t_center):
    """_descend's corner-grid loop with its own pick: on each level the
    nearest distance is the largest per-axis least deviation, and each
    axis takes the lowest digit whose deviation does not exceed it."""
    n = grid.params.n
    own = grid.node(center, radius)[1]
    while own > tol:
        devs, _, own = grid.deviations(center, radius, t_center)
        nearest = max(map(min, devs))
        j = 0
        for row in reversed(devs):
            k = 0
            while row[k] > nearest:
                k += 1
            j = j * n + k
        word = word + (j,)
        center, radius = grid.params.child(center, radius, j)
    return grid.node(center, radius)[0], word


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    n=st.integers(2, 12),
    d=st.integers(1, 3),
    kind=st.sampled_from(["corner", "translate", "similarity", "chain"]),
    ell_frac=st.floats(0.05, 0.95),
    tol=st.floats(1e-9, 1e-2),
)
def test_corner_descent_picks_the_reference_child(data, n, d, kind, ell_frac, tol):
    sys = _corner_image(kind, n, ell_frac * 2 / n, d)
    grid = sys.corner_grid
    start = tuple(data.draw(st.lists(st.integers(0, n**d - 1), max_size=2)))
    center, radius = grid.root.center, grid.root.radius
    for j in start:
        center, radius = grid.params.child(center, radius, j)
    # a target on a child's center, or on a corner of a node's cell, makes
    # Linf ties between children
    deeper = start + tuple(data.draw(st.lists(st.integers(0, n**d - 1), max_size=3)))
    node = sys.ball(deeper)
    signs = data.draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=d, max_size=d))
    spot = [c + s * node.radius for c, s in zip(node.center, signs)]
    for i in data.draw(st.sets(st.integers(0, d - 1))):
        spot[i] = data.draw(st.floats(-1.2, 1.2))
    target = Ball(tuple(spot), sys.root.radius)
    got = gaplemma._descend(sys, grid, target, tol, start, center, radius)
    want = _reference_grid_descend(grid, tol, start, center, radius, target.center)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("budget", [1, 2, 3])
def test_locate_budget_exhaustion_matches_full_expansion(monkeypatch, budget):
    monkeypatch.setattr(gaplemma, "_FIND_BUDGET", budget)
    target = Ball((-1.0, -1.0), 1e-3)
    for kind in ("corner", "chain"):
        fast = _corner_image(kind, 4, 0.4, 2)
        ref = _corner_image(kind, 4, 0.4, 2)
        with pytest.raises(RuntimeError) as got:
            gaplemma._locate(fast, target, 1e-6)
        with pytest.raises(RuntimeError) as want:
            _reference_locate(ref, target, 1e-6)
        assert str(got.value) == str(want.value)


class _HeapSpy:
    """A heapq that records every entry pushed and popped."""

    _push = staticmethod(heapq.heappush)
    _pop = staticmethod(heapq.heappop)

    def __init__(self):
        self.pushed = []
        self.popped = []

    def heappush(self, heap, entry):
        self.pushed.append(entry)
        self._push(heap, entry)

    def heappop(self, heap):
        entry = self._pop(heap)
        self.popped.append(entry)
        return entry


def _locate_against_reference(sys, ref, target, tol, hint=()):
    """Run _locate on sys with hint and _reference_locate on ref, a fresh
    copy, from the root, and check that they end alike and pop the same
    nodes with the same keys and counters in the same order from some
    depth m on, the m nodes _locate skips being the hint's prefixes, the
    i-th with counter i. Returns m, the family placeholders _locate popped
    and how many keys it pushed for children of more than one parent."""
    fast, full = _HeapSpy(), _HeapSpy()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gaplemma, "heapq", fast)
        mp.setattr(pysys.modules[__name__], "heapq", full)
        got = _outcome(gaplemma._locate, sys, target, tol, hint)
        expected = _outcome(_reference_locate, ref, target, tol)
    assert got == expected
    popped = [(e[0], e[1], e[3]) for e in fast.popped if not e[2]]
    skipped = len(full.popped) - len(popped)
    assert 0 <= skipped <= len(hint) and full.popped[skipped:] == popped
    assert [e[1:] for e in full.popped[:skipped]] == [(i, hint[:i]) for i in range(skipped)]
    parents = {}
    for entry in fast.pushed:
        if not entry[2]:
            parents.setdefault(entry[0], set()).add(entry[3][:-1])
    return skipped, [e for e in fast.popped if e[2]], sum(len(p) > 1 for p in parents.values())


@pytest.mark.parametrize("kind", ["corner", "translate", "chain"])
@pytest.mark.parametrize("rel", [0.05, 0.3, 0.45])
def test_locate_pops_like_full_expansion(kind, rel):
    # targets off the lowest digits: a family's first child is then not its
    # first member, so its counter counts the members before it on every axis
    for word in [(10,), (10, 5), (7, 13)]:
        ref = _corner_image(kind, 4, 0.4, 2)
        node = ref.ball(word)
        center = tuple(c + 0.01 * node.radius for c in node.center)
        target = Ball(center, rel * ref.root.radius)
        _locate_against_reference(_corner_image(kind, 4, 0.4, 2), ref, target, 1e-6)


@pytest.mark.parametrize("kind", ["corner", "translate"])
def test_locate_backtracks_out_of_a_gap(kind):
    # the target sits in the gap below child 15 and touches its lower face:
    # the first child of a family meets the target but none of its own
    # children do, so the search falls back on the family's placeholders
    ref = _corner_image(kind, 4, 0.4, 2)
    kid = ref.ball((15,))
    target = Ball(
        (kid.center[0] + kid.radius / 2, kid.center[1] - 1.25 * kid.radius), kid.radius / 4
    )
    _, expanded, shared = _locate_against_reference(
        _corner_image(kind, 4, 0.4, 2), _corner_image(kind, 4, 0.4, 2), target, 1e-6
    )
    assert len(expanded) >= 5 and shared >= 1


@pytest.mark.parametrize("kind", ["corner", "translate", "similarity"])
def test_locate_orders_equal_keys_across_families(kind):
    # a target touching the faces of grandchildren of child 3 gives children
    # of different parents equal keys; their counters decide the order
    ref = _corner_image(kind, 3, 0.4, 2)
    kid = ref.ball((3,))
    target = Ball(
        (kid.center[0] + kid.radius / 2, kid.center[1] - 0.9 * kid.radius), kid.radius / 10
    )
    _, expanded, shared = _locate_against_reference(
        _corner_image(kind, 3, 0.4, 2), _corner_image(kind, 3, 0.4, 2), target, 1e-6
    )
    assert expanded and shared >= 1


def test_locate_finds_the_point_in_a_later_sibling(monkeypatch):
    # child 0 is first (key 0.2 against 0.45) but its one child misses the
    # target; the placeholder hands over to child 1, whose child fits
    def tree():
        return explicit_tree(
            NormKind.LINF,
            1,
            [
                ((), Ball((2.0,), 2.0)),
                ((0,), Ball((1.6,), 0.5)),
                ((0, 0), Ball((1.15,), 0.05)),
                ((1,), Ball((2.6,), 0.55)),
                ((1, 0), Ball((2.3,), 0.2)),
            ],
        )

    target = Ball((2.0,), 0.7)
    _, expanded, _ = _locate_against_reference(tree(), tree(), target, 1e-6)
    assert len(expanded) == 1
    assert gaplemma._locate(tree(), target, 1e-6) == ((2.3,), (1, 0))
    # four nodes are popped, the placeholder between them is not counted
    monkeypatch.setattr(gaplemma, "_FIND_BUDGET", 4)
    assert gaplemma._locate(tree(), target, 1e-6) == ((2.3,), (1, 0))
    monkeypatch.setattr(gaplemma, "_FIND_BUDGET", 3)
    with pytest.raises(RuntimeError):
        gaplemma._locate(tree(), target, 1e-6)


@pytest.mark.parametrize("tol", [1e-320, 1e-250])
@pytest.mark.parametrize("shift", [None, (0.1, 0.0)])
def test_corner_locate_underflow_matches_full_expansion(tol, shift):
    # ell = 1e-100: the radius of a depth-4 node rounds to 0, which a
    # descent to 1e-320 reaches and one to 1e-250 stops short of
    def make():
        base = corner_family(CornerFamilyParams(n=2, ell=1e-100, d=2))
        return base if shift is None else translate(base, shift)

    target = Ball(make().ball((0,)).center, 0.5)
    if tol == 1e-250:
        assert gaplemma._locate(make(), target, tol) == _reference_locate(make(), target, tol)
        return
    for locate in (_reference_locate, gaplemma._locate):
        with pytest.raises(ValueError, match="ball radius must be positive and finite"):
            locate(make(), target, tol)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    n=st.integers(2, 12),
    d=st.integers(1, 3),
    kind=st.sampled_from(["corner", "translate", "similarity", "chain"]),
    touching=st.booleans(),
    where=st.sampled_from(["hint", "elsewhere", "anywhere"]),
    tol=st.floats(1e-7, 1e-2),
)
def test_warm_locate_pops_like_full_expansion(data, n, d, kind, touching, where, tol):
    # ell = nextafter(2/n, 0) leaves float gaps of 0 or a few ulps, so a
    # neighbour of a node holding the target can meet it and the walk
    # must stop there; hints that do not hold the target stop it too
    ell = math.nextafter(2 / n, 0) if touching else data.draw(st.floats(0.05, 0.95)) * 2 / n
    ref = _corner_image(kind, n, ell, d)
    digit = st.integers(0, n**d - 1)
    hint = tuple(data.draw(st.lists(digit, min_size=1, max_size=4)))
    if where == "anywhere":
        center = tuple(data.draw(st.floats(-1.2, 1.2)) for _ in range(d))
        target = Ball(center, data.draw(st.floats(1e-3, 0.6)) * ref.root.radius)
    else:
        word = hint
        if where == "elsewhere":
            # a node off the hint's path below one of its prefixes
            i = data.draw(st.integers(0, len(hint) - 1))
            word = hint[:i] + tuple(data.draw(st.lists(digit, min_size=1, max_size=2)))
        node = ref.ball(word)
        shrink = data.draw(st.sampled_from([1.0, 0.9, 0.5, 1e-3]))
        off = [data.draw(st.floats(-1, 1)) * (1 - shrink) * node.radius for _ in range(d)]
        target = Ball(tuple(c + o for c, o in zip(node.center, off)), shrink * node.radius)
    fast = _corner_image(kind, n, ell, d)
    _locate_against_reference(fast, ref, target, tol, hint)


def test_warm_locate_exhausts_its_budget_like_full_expansion(monkeypatch):
    # no node lies certifiably inside this target, so both searches run out
    # of budget after skipping the hint's first two nodes; _locate must stop
    # before the node that would pass the budget, as the full expansion does
    monkeypatch.setattr(gaplemma, "_FIND_BUDGET", 1_000)
    ref = _corner_image("chain", 2, 0.5, 3)
    node = ref.ball((3, 0, 3, 0))
    center = (node.center[0], node.center[1], node.center[2] + 0.2279 * 0.5 * node.radius)
    target = Ball(center, 0.5 * node.radius)
    fast = _corner_image("chain", 2, 0.5, 3)
    skipped, _, _ = _locate_against_reference(fast, ref, target, 1.192092896e-07, (3, 0, 0))
    assert skipped == 2
    with pytest.raises(RuntimeError, match="no node ball certifiably inside"):
        gaplemma._locate(_corner_image("chain", 2, 0.5, 3), target, 1.192092896e-07, (3, 0, 0))


def test_warm_locate_stops_where_a_neighbour_meets_the_target():
    # n = 5: the float children of ell = nextafter(2/5, 0) touch, so the
    # neighbours of a child meet a target that fills it; the walk stops at
    # the child's parent, whose family is the child and those neighbours
    n = 5
    ell = math.nextafter(2 / n, 0)
    for kind in ("corner", "translate", "chain"):
        ref = _corner_image(kind, n, ell, 2)
        hint = (12, 6, 18)
        target = ref.ball(hint)
        skipped, _, _ = _locate_against_reference(
            _corner_image(kind, n, ell, 2), ref, target, 1e-9, hint
        )
        assert skipped == len(hint) - 1
        # a target well inside the same node lets the walk reach it
        inner = Ball(target.center, target.radius / 2)
        skipped, _, _ = _locate_against_reference(
            _corner_image(kind, n, ell, 2), _corner_image(kind, n, ell, 2), inner, 1e-9, hint
        )
        assert skipped == len(hint)


def _bench_cases():
    """Ten (v, t) of the bench's certificates on corner n=10, d=2."""
    limit = distance_interval(R_BENCH)
    cases = [((1.0, math.tan(0.1 + k)), limit * (k + 0.5) / 10) for k in range(10)]
    return [((1.0, y) if abs(y) <= 1 else (1 / y, 1.0), t) for (_, y), t in cases]


def test_warm_starts_cut_family_calls(monkeypatch):
    # the bench's certificates on corner n=10, d=2, with and without hints
    s, cases = bench_pair()[0], _bench_cases()
    locate, family = gaplemma._locate, gaplemma._family
    calls = []

    def counting_family(*args):
        calls.append(1)
        return family(*args)

    def run():
        calls.clear()
        out = [directional_distance_certificate(s, v, t, 1e-7, r=R_BENCH) for v, t in cases]
        return out, len(calls)

    monkeypatch.setattr(gaplemma, "_family", counting_family)
    warm, warm_calls = run()
    # the cold run drops the hint and intersect's descent cut: the full
    # descent from the root, the reference for whole certificates
    monkeypatch.setattr(
        gaplemma, "_locate", lambda sys, target, tol, hint=(), cut=None: locate(sys, target, tol)
    )
    cold, cold_calls = run()
    assert repr(warm) == repr(cold)
    # 6,300 -> 2,700 per 100 certificates when measured
    assert warm_calls < 0.6 * cold_calls


# the descent cut: intersect's points descend only as deep as the next step reads


def _drop_cut(locate):
    """_locate with intersect's cut dropped: every descent runs to tol."""
    return lambda sys, target, tol, hint=(), cut=None: locate(sys, target, tol, hint)


def _with_and_without_cut(fn, *args, **kwargs):
    """repr of fn's result, or its error's class and message, as fn runs and
    with every descent uncut."""

    def outcome():
        try:
            return repr(fn(*args, **kwargs))
        except (RuntimeError, ValueError) as exc:
            return type(exc).__name__, str(exc)

    cut = outcome()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(gaplemma, "_locate", _drop_cut(gaplemma._locate))
        return cut, outcome()


def _corner_gap_list(n, ell, depth):
    """The gaps of corner n, ell in 1-D down to depth, as a gap tree."""
    offsets = ballsystem._corner_axis_offsets(n, ell)
    cells, gaps = [(0.0, 1.0)], []
    for _ in range(depth):
        families = [[(c + rad * x, rad * ell / 2) for x in offsets] for c, rad in cells]
        for kids in families:
            gaps += [(c1 + r1, c2 - r2) for (c1, r1), (c2, r2) in zip(kids, kids[1:])]
        cells = [kid for kids in families for kid in kids]
    return from_gaps_1d(GapList1D((-1.0, 1.0), tuple(gaps)))


def _corner_ifs(n, ell, d, norm):
    """Corner n, ell in d dimensions as a homothetic IFS, which has no
    corner grid; shrunk by sqrt(d) into the L2 unit ball."""
    offsets = ballsystem._corner_axis_offsets(n, ell)
    k = 1.0 if norm is NormKind.LINF else 1 / math.sqrt(d)
    cells = [()]
    for _ in range(d):
        cells = [c + (x * k,) for x in offsets for c in cells]
    return from_ifs(HomotheticIFS(tuple((ell / 2 * k, c) for c in cells)), norm)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(5, 10),
    d=st.integers(1, 3),
    frac=st.floats(0.8, 0.97),
    kind=st.sampled_from(["translate", "chain", "directional"]),
    slack=st.floats(1e-4, 0.1),
    tol=st.floats(1e-8, 1e-4),
)
def test_cut_corner_certificates_match_uncut(data, n, d, frac, kind, slack, tol):
    ell = frac * 2 / n
    base = corner_family(CornerFamilyParams(n=n, ell=ell, d=d))
    r = ballsystem.corner_dense_radius(n, ell) * (1 + slack)
    shift = tuple(data.draw(st.floats(-0.1, 0.1)) for _ in range(d))
    if kind == "directional":
        r = min(r, 1 / 3)
        v = shift[:-1] + (1.0,)
        t = data.draw(st.floats(0, 1)) * distance_interval(r)
        cut, uncut = _with_and_without_cut(directional_distance_certificate, base, v, t, tol, r=r)
    else:
        other = translate(base, shift)
        if kind == "chain":
            scale = data.draw(st.floats(0.2, 1.3))
            other = translate(similarity_image(other, scale, shift[::-1]), shift)
        cut, uncut = _with_and_without_cut(intersect, base, other, r, tol, 200)
    assert cut == uncut


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(5, 8),
    d=st.integers(1, 2),
    frac=st.floats(0.8, 0.97),
    norm=st.sampled_from([NormKind.LINF, NormKind.L2]),
    scale=st.floats(0.3, 1.2),
    shift=st.floats(-0.1, 0.1),
    slack=st.floats(1e-4, 0.1),
    tol=st.floats(1e-6, 1e-3),
)
def test_cut_ifs_certificates_match_uncut(n, d, frac, norm, scale, shift, slack, tol):
    # the child-block branch of the search and of the descent
    ell = frac * 2 / n
    s1 = _corner_ifs(n, ell, d, norm)
    s2 = similarity_image(s1, scale, (shift, -shift)[:d])
    r = min(ballsystem.corner_dense_radius(n, ell) * (1 + slack), 0.49)
    cut, uncut = _with_and_without_cut(intersect, s1, s2, r, tol, 200)
    assert cut == uncut


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(5, 6),
    frac=st.floats(0.85, 0.97),
    scale=st.floats(0.6, 1.2),
    shift=st.floats(-0.1, 0.1),
    slack=st.floats(1e-4, 0.1),
    rel_tol=st.floats(30, 1000),
)
def test_cut_gap_tree_certificates_match_uncut(n, frac, scale, shift, slack, rel_tol):
    ell = frac * 2 / n
    s1 = _corner_gap_list(n, ell, 4)
    s2 = similarity_image(s1, scale, (shift,))
    r = ballsystem.corner_dense_radius(n, ell) * (1 + slack)
    tol = rel_tol * (ell / 2) ** 4  # leaves have radius (ell / 2) ** 4
    cut, uncut = _with_and_without_cut(intersect, s1, s2, r, tol, 100)
    assert cut == uncut


def _counting_descent(m):
    """Patch _descend through m to record how many levels each call descends."""
    descend, levels = gaplemma._descend, []

    def counting(sys, grid, target, tol, word, *rest):
        out = descend(sys, grid, target, tol, word, *rest)
        levels.append(len(out[1]) - len(word))
        return out

    m.setattr(gaplemma, "_descend", counting)
    return levels


def test_cut_gap_tree_certificate_is_found(monkeypatch):
    # a gap-tree case that reaches a witness in three steps, the cut
    # stopping descents above the leaves
    s1 = _corner_gap_list(6, 0.3, 4)
    s2 = translate(s1, (0.05,))
    levels = _counting_descent(monkeypatch)
    cut, uncut = _with_and_without_cut(intersect, s1, s2, 0.3232, 0.05, 100)
    assert cut == uncut
    assert cut.startswith("IntersectionCertificate") and cut.count("Case2") == 3
    # the cut run's descents come first, then as many uncut ones
    half = len(levels) // 2
    assert sum(levels[:half]) < sum(levels[half:])


def _cut_systems():
    corner = corner_family(CornerFamilyParams(n=10, ell=0.19, d=2))
    return {
        "corner": corner,
        "translate": translate(corner, (0.05, 0.02)),
        "chain": _corner_image("chain", 6, 0.3, 3),
        "ifs": _corner_ifs(6, 0.3, 2, NormKind.LINF),
        "l2": _corner_ifs(6, 0.3, 2, NormKind.L2),
        "gaps": _corner_gap_list(5, 0.38, 4),
    }


@pytest.mark.parametrize("name", list(_cut_systems()))
@pytest.mark.parametrize("stop", [0, 1, 3, None])
def test_cut_descent_is_a_prefix_ending_past_the_cut(name, stop):
    sys = _cut_systems()[name]
    grid = sys.corner_grid
    target = Ball(sys.root.center, sys.root.radius)
    frame = grid.root if grid is not None else sys.root
    start = (sys, grid, target, 1e-9, (), frame.center, frame.radius)
    full_center, full = gaplemma._descend(*start)
    radii = [radius for _, radius in sys.path(full)]
    assert len(full) >= 4
    shrink = 0.5
    if stop is None:
        # past the tolerance: the cut never stops the descent
        h = shrink * radii[-1] / 2
    elif stop == 0:
        h = shrink * radii[0] * 2
    else:
        # between the stop's radius and its parent's
        h = shrink * math.sqrt(radii[stop - 1] * radii[stop])
    center, word = gaplemma._descend(*start, (shrink, h))
    assert full[: len(word)] == word
    past = [i for i, radius in enumerate(radii) if gaplemma._past_cut((shrink, h), radius)]
    assert len(word) == (past[0] if past else len(full))
    assert center == sys.ball(word).center
    if stop is None:
        assert (center, word) == (full_center, full)


def test_cut_halves_the_descent_on_the_bench_certificates(monkeypatch):
    s, cases = bench_pair()[0], _bench_cases()
    levels = _counting_descent(monkeypatch)

    def run():
        levels.clear()
        out = [directional_distance_certificate(s, v, t, 1e-7, r=R_BENCH) for v, t in cases]
        return out, sum(levels)

    cut, cut_levels = run()
    monkeypatch.setattr(gaplemma, "_locate", _drop_cut(gaplemma._locate))
    uncut, uncut_levels = run()
    assert repr(cut) == repr(uncut)
    # 390 -> 100 levels over these ten certificates, in 90 descents each,
    # when measured with e1 taken as intersect's witness at tol / 2 (the
    # second search for e1 made it 420 -> 120 in 110 descents)
    assert cut_levels <= 0.5 * uncut_levels


def test_corner_locate_on_a_translate_builds_no_ball(monkeypatch):
    # the search carries node centers in the base's frame: it builds no
    # Ball per node and adds nothing to either system's memo
    s1, s2 = bench_pair()
    target = ball_scale(s1.root, 1 - 2 * R_BENCH)
    expected = _reference_locate(bench_pair()[1], target, 1e-9)
    built = []
    post_init = Ball.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Ball, "__post_init__", counting)
    monkeypatch.setattr(ballsystem, "trusted_ball", lambda c, r: built.append(c))
    sizes = len(s1._blocks), len(s2._blocks)
    assert gaplemma._locate(s2, target, 1e-9) == expected
    assert len(expected[1]) >= 8
    assert len(built) <= 2
    assert (len(s1._blocks), len(s2._blocks)) == sizes


# intersection construction


def assert_contracting(trace, r):
    radii = [step.radius for step in trace]
    assert len(radii) >= 2
    for prev, cur in zip(radii, radii[1:]):
        assert cur <= r * prev * (1 + 1e-12)


def test_intersect_overlapping_translates_2d():
    s1, s2 = bench_pair()
    cert = intersect(s1, s2, R_BENCH, 1e-6, 60)
    assert cert.residual1.hi <= 1e-6
    assert cert.residual2.hi <= 1e-6
    # the witness must survive an independent distance query on both sets
    assert dist_to_set(cert.witness, s1, 1e-7).hi <= 1e-6
    assert dist_to_set(cert.witness, s2, 1e-7).hi <= 1e-6
    assert cert.trace[0].case == "Init"
    assert all(step.case in ("Case1", "Case2") for step in cert.trace[1:])
    assert_contracting(cert.trace, R_BENCH)


def test_intersect_identical_systems():
    s1, _ = bench_pair()
    cert = intersect(s1, s1, R_BENCH, 1e-6, 60)
    assert cert.residual1.hi <= 1e-6
    assert cert.residual2.hi <= 1e-6


def test_intersect_translate_1d():
    s1 = corner_family(CornerFamilyParams(n=10, ell=0.19, d=1))
    s2 = translate(s1, (0.03,))
    cert = intersect(s1, s2, R_BENCH, 1e-6, 60)
    assert cert.residual1.hi <= 1e-6
    assert cert.residual2.hi <= 1e-6
    assert_contracting(cert.trace, R_BENCH)


def test_intersect_takes_large_ball_branch_on_scale_mismatch():
    # the second system is a small copy, so the located ball stays large
    # relative to the other side's ball and the bridge branch must fire
    s1 = corner_family(CornerFamilyParams(n=10, ell=0.13, d=1))
    s2 = similarity_image(s1, 0.065 / 0.3, (0.01,))
    rep = check_hypotheses(s1, s2, 0.17)
    assert rep.all_proven
    cert = intersect(s1, s2, 0.17, 1e-6, 80)
    assert cert.residual1.hi <= 1e-6
    assert cert.residual2.hi <= 1e-6
    assert any(step.case == "Case1" for step in cert.trace)
    assert_contracting(cert.trace, 0.17)


def test_intersect_validation_and_step_budget():
    s1, s2 = bench_pair()
    with pytest.raises(ValueError):
        intersect(s1, s2, 0.5, 1e-6, 60)
    with pytest.raises(ValueError):
        intersect(s1, s2, R_BENCH, 0.0, 60)
    with pytest.raises(ValueError):
        intersect(s1, s2, R_BENCH, 1e-6, 0)
    with pytest.raises(RuntimeError):
        intersect(s1, s2, R_BENCH, 1e-6, 1)


# realized distances

def test_distance_interval_values():
    assert distance_interval(0.25) == pytest.approx(1.0, rel=1e-12)
    val = distance_interval(0.19556)
    assert val == pytest.approx(0.6423597424779924, rel=1e-12)
    assert abs(val - 0.64237) < 2e-5
    assert distance_interval(1 / 3) == pytest.approx(2.0, rel=1e-12)
    assert distance_interval(1e-6) == pytest.approx(2e-6, rel=1e-5)


def test_distance_interval_validation():
    with pytest.raises(ValueError):
        distance_interval(0.0)
    with pytest.raises(ValueError):
        distance_interval(0.34)


def test_directional_certificate_2d():
    s = corner_family(CornerFamilyParams(n=10, ell=0.19, d=2))
    v = (1.0, 0.0)
    cert = directional_distance_certificate(s, v, 0.3, 1e-6, r=R_BENCH)
    assert cert.v == v
    assert cert.t == 0.3
    assert cert.residual <= 1e-6
    moved = tuple(a - b for a, b in zip(cert.e1, cert.e2))
    assert norm_distance(moved, (0.3, 0.0), NormKind.LINF) <= cert.residual
    assert dist_to_set(cert.e1, s, 1e-7).hi <= 1e-6
    assert dist_to_set(cert.e2, s, 1e-7).hi <= 1e-6


def test_directional_certificate_zero_distance():
    s = corner_family(CornerFamilyParams(n=10, ell=0.19, d=1))
    cert = directional_distance_certificate(s, (1.0,), 0.0, 1e-6, r=R_BENCH)
    assert cert.e1 == cert.e2
    assert cert.residual <= 1e-6


def test_directional_certificate_validation():
    s = corner_family(CornerFamilyParams(n=10, ell=0.19, d=2))
    with pytest.raises(ValueError):
        directional_distance_certificate(s, (1.0, 0.0), 0.65, 1e-6, r=R_BENCH)
    with pytest.raises(ValueError):
        directional_distance_certificate(s, (2.0, 0.0), 0.1, 1e-6, r=R_BENCH)
    with pytest.raises(ValueError):
        directional_distance_certificate(s, (1.0, 0.0), 0.1, 0.0, r=R_BENCH)


def test_meet_status_builds_only_the_root_block():
    s1, s2 = bench_pair()
    status = gaplemma._meet_status(s1, s2, R_BENCH, 6)
    assert status.status == "proven" and len(status.word) == 1
    # level 1 is read from the root's block, and the search stops there
    assert list(s1._blocks) == [ROOT] and not s2._blocks
    assert gaplemma._meet_status(s1, s2, R_BENCH, 6) == status


def _reference_meet_status(sys1, sys2, r, meet_depth):
    """The meet search as it read the tree before it shared
    BallSystem.meeting: one Ball per frontier word, found by ball(), and
    the frontier grown from child counts."""
    target = ball_scale(sys2.root, 1.0 - 2 * r)
    norm = sys1.norm
    frontier = [ROOT]
    for _ in range(meet_depth + 1):
        keep = []
        for word in frontier:
            ball = sys1.ball(word)
            if norm_distance(ball.center, target.center, norm) > ball.radius + target.radius:
                continue
            if ball_contains(target, ball, norm):
                return gaplemma.MeetHypothesis("proven", word)
            keep.append(word)
        if not keep:
            return gaplemma.MeetHypothesis("refuted")
        frontier = [w + (j,) for w in keep for j in range(sys1.child_count(w))]
    return gaplemma.MeetHypothesis("unknown")


_MEET_IFS = {
    NormKind.LINF: ((0.3, (-0.55, -0.4)), (0.3, (0.55, -0.4)), (0.3, (0.0, 0.65))),
    NormKind.L2: ((0.3, (-0.45, -0.45)), (0.3, (0.45, 0.45)), (0.25, (0.45, -0.45))),
    NormKind.L1: ((0.3, (-0.5, 0.0)), (0.3, (0.5, 0.0)), (0.2, (0.0, 0.6))),
}


def _meet_warp(p):
    return tuple(x + 0.01 * math.sin(3 * x) for x in p)


@st.composite
def _meet_systems(draw):
    """A system of a drawn kind: a corner family, an IFS in each norm, a gap
    list, an explicit table, or an image of a corner family."""
    kind = draw(
        st.sampled_from(
            ["corner", "ifs", "gaps", "explicit", "translate", "similarity", "perturbed"]
        )
    )
    if kind == "ifs":
        norm = draw(st.sampled_from(sorted(_MEET_IFS, key=lambda k: k.value)))
        return from_ifs(HomotheticIFS(_MEET_IFS[norm]), norm)
    if kind == "gaps":
        return from_gaps_1d(GapList1D((-1.0, 1.0), ((-0.6, -0.2), (0.1, 0.3), (0.5, 0.55))))
    if kind == "explicit":
        corner = corner_family(CornerFamilyParams(3, 0.5, 2))
        return explicit_tree(NormKind.LINF, 2, list(corner.walk(draw(st.integers(1, 2)))))
    n = draw(st.integers(2, 12))
    d = draw(st.integers(1, 3))
    ell = draw(st.floats(0.05, 0.95)) * 2 / n
    base = corner_family(CornerFamilyParams(n, ell, d))
    shift = tuple(draw(st.floats(-0.5, 0.5)) for _ in range(d))
    if kind == "translate":
        return translate(base, shift)
    if kind == "similarity":
        return similarity_image(base, draw(st.floats(0.2, 3.0)), shift)
    if kind == "perturbed":
        return perturbed_image(base, _meet_warp, 0.05)
    return base


@settings(max_examples=300, deadline=None)
@given(
    sys1=_meet_systems(),
    r=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
    meet_depth=st.integers(0, 4),
    data=st.data(),
)
def test_meet_status_matches_the_frontier_search(sys1, r, meet_depth, data):
    d = sys1.dimension
    root = sys1.root
    shift = tuple(data.draw(st.floats(-1.5, 1.5)) * root.radius for _ in range(d))
    scale = data.draw(st.sampled_from([0.3, 1.0, 1.7]))
    sys2 = similarity_image(sys1, scale, shift)
    got = gaplemma._meet_status(sys1, sys2, r, meet_depth)
    assert got == _reference_meet_status(sys1, sys2, r, meet_depth)


# the large ball case reads child blocks, or corner children axis by axis


def _scale_mismatch_pair(d=1):
    # a small copy: the located ball stays large and the bridge branch fires
    s1 = corner_family(CornerFamilyParams(n=10, ell=0.13, d=d))
    return s1, similarity_image(s1, 0.065 / 0.3, (0.01, -0.02)[:d])


def _scale_mismatch_ifs_pair():
    # the 1-D pair as IFS, which have no corner grid: the pick scans blocks
    offsets = ballsystem._corner_axis_offsets(10, 0.13)
    s1 = from_ifs(HomotheticIFS(tuple((0.065, (t,)) for t in offsets)), NormKind.LINF)
    return s1, similarity_image(s1, 0.065 / 0.3, (0.01,))


PICK_PAIRS = pytest.mark.parametrize(
    "make",
    [_scale_mismatch_pair, lambda: _scale_mismatch_pair(2), _scale_mismatch_ifs_pair],
    ids=["1d", "2d", "ifs"],
)


@PICK_PAIRS
def test_intersect_picks_the_first_child_inside_the_bridge(monkeypatch, make):
    bridges = []

    def recording_bridge(sk, sl, r_, norm):
        out = bridge_ball(sk, sl, r_, norm)
        bridges.append(out)
        return out

    def no_balls(self, *args):
        raise AssertionError("Balls of a node's children were built")

    monkeypatch.setattr(gaplemma, "bridge_ball", recording_bridge)
    s1, s2 = make()
    # the large ball case builds no Ball of a node's children: children() and
    # walk() are refused while it runs, and on corner grids it builds no
    # child block
    with monkeypatch.context() as m:
        m.setattr(BallSystem, "children", no_balls)
        m.setattr(BallSystem, "walk", no_balls)
        cert = intersect(s1, s2, 0.17, 1e-6, 80)
    if s1.corner_grid is not None:
        assert not s1._blocks and not s2._blocks
    fresh = dict(zip((1, 2), make()))
    steps = list(zip(cert.trace, cert.trace[1:]))
    case1 = [(prev, step) for prev, step in steps if step.case == "Case1"]
    assert len(case1) == len(bridges) >= 1
    for (prev, step), bridge in zip(case1, bridges):
        parent = step.word[:-1]
        kids = fresh[3 - step.side].children(parent)
        want = next(i for i, kid in enumerate(kids) if ball_contains(bridge, kid, NormKind.LINF))
        assert step.word[-1] == want
        assert step.radius == kids[want].radius


@PICK_PAIRS
def test_intersect_picks_a_child_that_ties_the_bridge(monkeypatch, make):
    # each bridge is replaced by the very child the pick chose from it, so
    # that child's distance plus radius equals the bridge radius exactly
    cert = intersect(*make(), 0.17, 1e-6, 80)
    fresh = dict(zip((1, 2), make()))
    chosen = [fresh[3 - step.side].ball(step.word) for step in cert.trace if step.case == "Case1"]
    assert chosen
    tied = iter(chosen)
    monkeypatch.setattr(gaplemma, "bridge_ball", lambda sk, sl, r_, norm: next(tied))
    assert repr(intersect(*make(), 0.17, 1e-6, 80)) == repr(cert)


def test_intersect_reports_when_no_child_fits(monkeypatch):
    def tiny_bridge(sk, sl, r_, norm):
        return Ball(bridge_ball(sk, sl, r_, norm).center, 1e-12)

    monkeypatch.setattr(gaplemma, "bridge_ball", tiny_bridge)
    s1, s2 = _scale_mismatch_pair()
    with pytest.raises(RuntimeError) as err:
        intersect(s1, s2, 0.17, 1e-6, 80)
    assert "fits in the bridge ball; the denseness hypothesis fails here" in str(err.value)
    assert str(err.value).startswith("step ") and "no child of word" in str(err.value)
