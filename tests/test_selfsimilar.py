"""Closed-form corner statistics and certified homothetic bounds."""

from __future__ import annotations

import heapq
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thickgap import metrics, selfsimilar
from thickgap.ballsystem import CornerFamilyParams, HomotheticIFS, corner_family
from thickgap.geometry import IntervalBound, NormKind, norm_distance
from thickgap.metrics import denseness_check, thickness
from thickgap.selfsimilar import (
    biebler_thickness,
    corner_stats,
    homothetic_bounds,
    homothetic_h0_upper,
    perturbation_bound,
)

SPECS = Path(__file__).resolve().parents[1] / "bench" / "specs"
MID3 = HomotheticIFS(((1 / 3, (-2 / 3,)), (1 / 3, (2 / 3,))))


def corner_ifs(n: int, ell: float, d: int) -> HomotheticIFS:
    params = CornerFamilyParams(n=n, ell=ell, d=d)
    step = ell + params.g
    offsets = [-1 + ell / 2 + k * step for k in range(n)]
    maps = []
    for flat in range(n**d):
        t = []
        rest = flat
        for _ in range(d):
            t.append(offsets[rest % n])
            rest //= n
        maps.append((ell / 2, tuple(t)))
    return HomotheticIFS(tuple(maps))


def test_corner_stats_examples():
    s = corner_stats(4, 2 / 5, 2)
    assert s.g == pytest.approx(2 / 15, rel=1e-12)
    assert s.tau == pytest.approx(3.0, rel=1e-12)
    assert s.r_dense == pytest.approx(7 / 15, rel=1e-12)
    mid = corner_stats(2, 2 / 3)
    assert mid.g == pytest.approx(2 / 3, rel=1e-12)
    assert mid.tau == pytest.approx(1.0, rel=1e-12)
    assert mid.r_dense == 1.0
    fine = corner_stats(10, 0.19)
    assert fine.g == pytest.approx(0.1 / 9, rel=1e-12)
    assert fine.tau == pytest.approx(17.1, rel=1e-12)
    assert fine.r_dense == pytest.approx(0.195556, abs=1e-6)


def test_corner_stats_validation():
    with pytest.raises(ValueError):
        corner_stats(1, 0.3)
    with pytest.raises(ValueError):
        corner_stats(4, 0.0)
    with pytest.raises(ValueError):
        corner_stats(4, 0.5)
    with pytest.raises(ValueError):
        corner_stats(4, 0.3, 0)


@pytest.mark.parametrize(
    "n,ell,d,target",
    [(4, 2 / 5, 1, 3.0), (2, 2 / 3, 1, 1.0), (10, 0.19, 1, 17.1)],
)
def test_corner_stats_cross_check_thickness(n, ell, d, target):
    stats = corner_stats(n, ell, d)
    rep = thickness(corner_family(CornerFamilyParams(n=n, ell=ell, d=d)), 5, 1e-3)
    assert rep.overall.width <= 0.1
    assert rep.overall.lo <= stats.tau <= rep.overall.hi
    assert stats.tau == pytest.approx(target, rel=1e-9)


def _root_dense_exact(sys, r):
    """Whether the windows |x - c| <= r - rk of the 1-D root's children
    cover its feasible centers [-1 + r, 1 - r], in exact arithmetic; the
    children share one radius, so their windows rise with c."""
    r = Fraction(r)
    reach = r - 1
    for (c,), rk in zip(*sys.child_block(())):
        c, e = Fraction(c), r - Fraction(rk)
        if e >= 0:
            if c - e > reach:
                return False
            reach = max(reach, c + e)
    return reach >= 1 - r


@pytest.mark.parametrize("n,ell", [(4, 2 / 5), (10, 0.19)])
def test_corner_stats_cross_check_denseness(n, ell):
    # r_dense is the exact family's threshold; the float tree can need a few
    # ulps more, and the verdict follows the float tree
    stats = corner_stats(n, ell, 1)
    sys = corner_family(CornerFamilyParams(n=n, ell=ell, d=1))
    r = stats.r_dense
    for _ in range(3):
        assert (denseness_check(sys, r, 1e-3, 3).verdict == "proven") == _root_dense_exact(sys, r)
        r = math.nextafter(r, 1.0)
    assert denseness_check(sys, r, 1e-3, 3).verdict == "proven"


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 12), frac=st.floats(0.01, 0.99), d=st.integers(1, 3))
def test_corner_stats_share_the_metrics_formulas(n, frac, d):
    ell = frac * 2 / n
    stats = corner_stats(n, ell, d)
    assert stats.tau == pytest.approx(ell * (n - 1) / (2 - n * ell), rel=1e-14)
    # the thickness report encloses the exact tau = ell / g within tol
    rep = thickness(corner_family(CornerFamilyParams(n=n, ell=ell, d=d)), 1, 1e-9)
    exact = Fraction(ell) * (n - 1) / (2 - n * Fraction(ell))
    assert Fraction(rep.overall.lo) <= exact <= Fraction(rep.overall.hi)
    assert rep.converged and rep.overall.width <= 1e-9


def test_middle_thirds_dense_radius_is_one():
    # the closed form lands exactly on the excluded endpoint of the r range
    stats = corner_stats(2, 2 / 3)
    sys = corner_family(CornerFamilyParams(n=2, ell=2 / 3, d=1))
    with pytest.raises(ValueError):
        denseness_check(sys, stats.r_dense, 1e-3, 3)


def test_biebler_example():
    tau_b, ratio = biebler_thickness(4, 2 / 5)
    assert tau_b == pytest.approx(0.460578, abs=1e-6)
    assert ratio == pytest.approx(6.51356, abs=1e-5)
    assert ratio > 2**0.75 * math.sqrt(3)
    assert ratio > 2.91295


def test_biebler_ratio_identity_grid():
    pts = 0
    for n in range(2, 7):
        for frac in (0.3, 0.5, 0.7, 0.9):
            ell = frac * 2 / n
            stats = corner_stats(n, ell, 2)
            _, ratio = biebler_thickness(n, ell)
            assert abs(ratio - 2**1.25 / math.sqrt(stats.g)) <= 1e-12
            assert ratio > 2**0.75 * math.sqrt(n - 1)
            pts += 1
    assert pts == 20


def test_biebler_ratio_blows_up_as_gaps_close():
    _, wide = biebler_thickness(4, 0.4)
    _, tight = biebler_thickness(4, 0.4999)
    assert tight > 100 > wide


def test_h0_middle_thirds():
    h = homothetic_h0_upper(MID3, 1e-6)
    assert h.converged
    assert h.lo <= 0.5 <= h.hi
    assert h.hi - h.lo <= 1e-6 + 1e-9


def test_h0_single_map_annulus():
    h = homothetic_h0_upper(HomotheticIFS(((0.5, (0.0,)),)), 1e-6)
    assert h.lo <= 1.0 <= h.hi
    assert h.hi == pytest.approx(1.0, abs=1e-6)


def test_h0_children_cover_root():
    h = homothetic_h0_upper(HomotheticIFS(((0.6, (-0.4,)), (0.6, (0.4,)))), 1e-6)
    assert h.lo == 0.0
    assert h.hi <= 1e-6


@pytest.mark.parametrize("n,ell,d", [(4, 2 / 5, 1), (10, 0.19, 1), (4, 2 / 5, 2)])
def test_h0_upper_dominates_true_hole(n, ell, d):
    stats = corner_stats(n, ell, d)
    tol = 1e-6 if d == 1 else 1e-3
    h = homothetic_h0_upper(corner_ifs(n, ell, d), tol)
    assert h.hi >= stats.g / 2 - 1e-9


def test_h0_corner_value_1d():
    # worst points sit at gap midpoints, distance g/2 + ell/2 from the
    # nearest center, normalized by 1 - ell/2
    stats = corner_stats(4, 2 / 5, 1)
    h = homothetic_h0_upper(corner_ifs(4, 2 / 5, 1), 1e-6)
    expect = (stats.g / 2 + stats.ell / 2 - stats.ell / 2) / (1 - stats.ell / 2)
    assert h.lo <= expect + 1e-9
    assert h.hi >= expect - 1e-9
    assert h.hi == pytest.approx(1 / 12, abs=1e-5)


def _bench_ifs(name: str) -> HomotheticIFS:
    spec = json.loads((SPECS / f"{name}.json").read_text())
    return HomotheticIFS(tuple((m["lambda"], tuple(m["t"])) for m in spec["generator"]["maps"]))


@pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9])
@pytest.mark.parametrize("norm", list(NormKind))
@pytest.mark.parametrize("name", ["ifs_l2", "ifs_linf"])
def test_h0_sizes_match_the_distance_form(name, norm, tol, monkeypatch):
    # sizes were distances from the origin; L2 then squared by ** 2, not x * x
    ifs = _bench_ifs(name)
    monkeypatch.setattr(metrics, "NODE_BUDGET", 5000)
    got = homothetic_h0_upper(ifs, tol, norm=norm)
    monkeypatch.setattr(
        selfsimilar, "vector_size", lambda v, nk: norm_distance(v, (0.0,) * len(v), nk)
    )
    want = homothetic_h0_upper(ifs, tol, norm=norm)
    assert repr(got) == repr(want)


def _reference_h0_bnb(ifs, tol, norm, node_budget):
    """The h0 search as a self-contained max-heap loop, ties going to the
    box pushed first: the reference that selfsimilar._h0_bnb on
    metrics._box_max must match bit for bit."""
    vector_size = selfsimilar.vector_size
    phi = selfsimilar._phi
    d = ifs.dimension
    lip = max(1.0 / (1.0 - lam) for lam, _ in ifs.maps)
    best_lower = 0.0
    heap = []
    counter = 0

    def push(lo, hi):
        nonlocal counter, best_lower
        nearest = tuple(min(max(a, 0.0), b) for a, b in zip(lo, hi))
        if vector_size(nearest, norm) > 1.0:
            return
        center = tuple(0.5 * (a + b) for a, b in zip(lo, hi))
        rho = vector_size([0.5 * (b - a) for a, b in zip(lo, hi)], norm)
        for lam, t in ifs.maps:
            if norm_distance(center, t, norm) + rho <= lam:
                return
        point = center
        nc = vector_size(center, norm)
        if nc > 1.0:
            if norm is NormKind.LINF:
                point = tuple(min(1.0, max(-1.0, c)) for c in center)
            else:
                point = tuple(c / nc for c in center)
        best_lower = max(best_lower, phi(point, ifs, norm))
        upper = phi(center, ifs, norm) + lip * rho
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
    pad = 1e-12 * max(1.0, abs(upper_end))
    return IntervalBound(max(0.0, best_lower - pad), upper_end + pad, tol)


# symmetric translations make equal upper bounds, where the tie order shows
_COORD = st.one_of(st.sampled_from([0.0, 0.25, -0.25, 0.5, -0.5]), st.floats(-0.7, 0.7))


@st.composite
def _h0_ifs(draw):
    d = draw(st.integers(1, 2))
    maps = []
    for _ in range(draw(st.integers(1, 4))):
        lam = draw(st.one_of(st.sampled_from([0.2, 0.25, 0.3]), st.floats(0.05, 0.6)))
        maps.append((lam, tuple(draw(_COORD) for _ in range(d))))
    return HomotheticIFS(tuple(maps))


@settings(max_examples=200, deadline=None)
@given(
    ifs=_h0_ifs(),
    norm=st.sampled_from(list(NormKind)),
    tol=st.sampled_from([1e-2, 1e-3, 1e-4]),
    node_budget=st.integers(0, 200),
)
def test_h0_bnb_matches_reference(ifs, norm, tol, node_budget):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "NODE_BUDGET", node_budget)
        got = selfsimilar._h0_bnb(ifs, tol, norm)
    assert repr(got) == repr(_reference_h0_bnb(ifs, tol, norm, node_budget))


@st.composite
def _non_product_ifs(draw):
    d = draw(st.integers(2, 3))
    maps = []
    for _ in range(draw(st.integers(2, 4))):
        lam = draw(st.one_of(st.sampled_from([0.2, 0.25, 0.3]), st.floats(0.05, 0.6)))
        maps.append((lam, tuple(draw(_COORD) for _ in range(d))))
    ifs = HomotheticIFS(tuple(maps))
    assume(ifs.axis_factors() is None)
    return ifs


@settings(max_examples=150, deadline=None)
@given(
    ifs=_non_product_ifs(),
    norm=st.sampled_from(list(NormKind)),
    tol=st.sampled_from([1e-2, 1e-3]),
)
def test_h0_upper_off_products_matches_reference(ifs, norm, tol):
    # no closed form: every norm takes the search, which projects an L2 or
    # L1 box center outside the root onto the root's boundary
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "NODE_BUDGET", 300)
        got = homothetic_h0_upper(ifs, tol, norm=norm)
    assert repr(got) == repr(_reference_h0_bnb(ifs, tol, norm, 300))


def test_h0_l2_norm_runs():
    h = homothetic_h0_upper(
        HomotheticIFS(((0.3, (-0.5, 0.0)), (0.3, (0.5, 0.0)))),
        1e-2,
        norm=NormKind.L2,
    )
    assert h.converged
    assert 0.0 <= h.lo <= h.hi


def test_homothetic_bounds_middle_thirds():
    b = homothetic_bounds(MID3, 1e-6)
    assert b.tau_lower == pytest.approx(2 / 3, abs=1e-3)
    assert b.tau_lower <= 1.0
    assert b.dense_radius == pytest.approx(7 / 6, abs=1e-3)


def test_homothetic_bounds_corner_2d():
    b = homothetic_bounds(corner_ifs(4, 2 / 5, 2), 1e-3)
    assert 0.0 < b.tau_lower <= 3.0
    assert b.dense_radius >= 0.4


def test_perturbation_bound_values():
    assert perturbation_bound(3, 0.01, 0.2) == pytest.approx(2.31298, abs=1e-5)
    assert perturbation_bound(3, 0.0, 0.2) == 3.0
    smaller_eps = perturbation_bound(3, 0.001, 0.2)
    assert smaller_eps == pytest.approx(2.912706, abs=1e-5)
    assert smaller_eps > perturbation_bound(3, 0.01, 0.2)


def test_perturbation_bound_validation():
    with pytest.raises(ValueError):
        perturbation_bound(0.0, 0.01, 0.2)
    with pytest.raises(ValueError):
        perturbation_bound(3, 1.0, 0.2)
    with pytest.raises(ValueError):
        perturbation_bound(3, -0.1, 0.2)
    with pytest.raises(ValueError):
        perturbation_bound(3, 0.01, 1.0)


def test_perturbation_cross_check_with_metrics():
    from thickgap.ballsystem import perturbed_image

    base = corner_family(CornerFamilyParams(n=4, ell=2 / 5, d=2))

    def bump(p):
        x, y = p
        return (x + 0.003 * math.sin(y), y + 0.003 * math.cos(x))

    rep = thickness(perturbed_image(base, bump, 0.01), 5, 1e-3)
    assert rep.overall.lo >= perturbation_bound(3, 0.01, 0.2) - 0.05
