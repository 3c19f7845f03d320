"""Dimension bound formula, Moran solver, and natural measure."""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thickgap.ballsystem import (
    CornerFamilyParams,
    GapList1D,
    corner_family,
    from_gaps_1d,
    parse_set_spec,
    similarity_image,
    translate,
)
from thickgap.dimension import (
    MeasureBoundReport,
    _mass_in_ball,
    _moran_solve,
    dim_lower_bound,
    measure_ball_bound_check,
    moran_exponent,
    natural_measure,
)
from thickgap.geometry import Ball, distance_kernel, norm_distance

SPECS = Path(__file__).resolve().parents[1] / "bench" / "specs"

MID3 = CornerFamilyParams(n=2, ell=2 / 3, d=1)
C4 = CornerFamilyParams(n=4, ell=2 / 5, d=1)
C4_2D = CornerFamilyParams(n=4, ell=2 / 5, d=2)


def test_dim_lower_bound_examples():
    assert dim_lower_bound(1, 1, 2) == pytest.approx(0.5, abs=1e-12)
    assert dim_lower_bound(2, 3, 16) == pytest.approx(1.81198, abs=1e-4)
    assert dim_lower_bound(3, 1e12, 7) == pytest.approx(3.0, abs=1e-9)


def test_dim_lower_bound_monotone_and_capped():
    base = dim_lower_bound(2, 3, 16)
    assert dim_lower_bound(2, 3.5, 16) > base
    assert dim_lower_bound(2, 3, 17) > base
    for tau in (0.1, 1.0, 10.0):
        for m0 in (2, 5, 100):
            assert dim_lower_bound(2, tau, m0) < 2


def test_dim_lower_bound_validation():
    with pytest.raises(ValueError):
        dim_lower_bound(1, 0.0, 2)
    with pytest.raises(ValueError):
        dim_lower_bound(1, 1.0, 1)
    with pytest.raises(ValueError):
        dim_lower_bound(0, 1.0, 2)


def test_dim_formula_exceeds_moran_in_2d():
    # published bound for the 16-branch planar family sits above the
    # exponent the mass argument actually supports; d = 1 stays consistent
    formula = dim_lower_bound(2, 3, 16)
    exact = moran_exponent([0.2] * 16, 2).exponent
    assert formula > exact
    assert exact == pytest.approx(math.log(16) / math.log(5), abs=1e-10)
    assert dim_lower_bound(1, 1, 2) <= math.log(2) / math.log(3)


def test_moran_equal_ratio_closed_form():
    for m, rho in ((2, 1 / 3), (16, 0.2), (4, 0.1), (3, 0.25)):
        solve = moran_exponent([rho] * m, 1)
        assert solve.residual <= 1e-12
        assert solve.exponent == pytest.approx(
            math.log(m) / math.log(1 / rho), abs=1e-10
        )


def test_moran_mixed_ratios_bracketed_root():
    solve = moran_exponent([0.5, 0.25], 1)
    assert solve.exponent == pytest.approx(0.6942, abs=1e-4)
    assert solve.residual <= 1e-12
    s = solve.exponent
    assert 0.5 ** (s - 1e-6) + 0.25 ** (s - 1e-6) > 1.0
    assert 0.5 ** (s + 1e-6) + 0.25 ** (s + 1e-6) < 1.0


def test_moran_single_ratio_degenerate():
    solve = moran_exponent([0.5], 1)
    assert solve.degenerate
    assert solve.exponent == 0.0
    assert solve.residual == 0.0


def test_moran_validation():
    with pytest.raises(ValueError):
        moran_exponent([], 1)
    with pytest.raises(ValueError):
        moran_exponent([0.5, 1.0], 1)
    with pytest.raises(ValueError):
        moran_exponent([0.0, 0.5], 1)
    with pytest.raises(ValueError):
        moran_exponent([0.5, 0.5], 0)


@given(
    st.lists(st.floats(min_value=0.05, max_value=0.9), min_size=2, max_size=6)
)
@settings(max_examples=60, deadline=None)
def test_moran_residual_property(rats):
    solve = moran_exponent(rats, 1)
    assert solve.residual <= 1e-12
    assert solve.exponent > 0
    grown = moran_exponent(rats + [0.3], 1)
    assert grown.exponent > solve.exponent


def test_natural_measure_corner_depth1():
    nm = natural_measure(corner_family(C4_2D), 1)
    level1 = [v for k, v in nm.masses.items() if len(k) == 1]
    assert len(level1) == 16
    assert all(v == pytest.approx(1 / 16, abs=1e-12) for v in level1)


def test_natural_measure_middle_thirds_depth2():
    nm = natural_measure(corner_family(MID3), 2)
    level2 = [v for k, v in nm.masses.items() if len(k) == 2]
    assert len(level2) == 4
    assert all(v == pytest.approx(0.25, abs=1e-12) for v in level2)


@pytest.mark.parametrize(
    "sys",
    [
        corner_family(MID3),
        corner_family(C4),
        from_gaps_1d(
            GapList1D(hull=(0.0, 1.0), gaps=((0.2, 0.3), (0.5, 0.65), (0.8, 0.9)))
        ),
    ],
    ids=["middle-thirds", "corner4", "gap-tree"],
)
def test_natural_measure_additivity_depth6(sys):
    nm = natural_measure(sys, 6)
    for word, mass in nm.masses.items():
        if len(word) >= 6:
            continue
        kids = sys.children(word)
        if not kids:
            continue
        total = math.fsum(nm.masses[word + (j,)] for j in range(len(kids)))
        assert abs(total - mass) <= 1e-12


def test_natural_measure_mass_radius_bound():
    # with the uniform exponent, node mass equals radius^(d*beta) for
    # equal-ratio families, so the proof's display holds with equality
    sys = corner_family(C4)
    s = moran_exponent([0.2] * 4, 1).exponent
    nm = natural_measure(sys, 5)
    for word, mass in nm.masses.items():
        rad = sys.ball(word).radius
        assert mass <= rad**s * (1 + 1e-9)
        assert mass == pytest.approx(rad**s, rel=1e-10)


def test_natural_measure_validation():
    with pytest.raises(ValueError):
        natural_measure(corner_family(MID3), -1)


def test_measure_bound_corner_2d_no_violations():
    beta = moran_exponent([0.2] * 16, 2).exponent / 2
    rep = measure_ball_bound_check(corner_family(C4_2D), 2 / 15, beta, 1000)
    assert isinstance(rep, MeasureBoundReport)
    assert rep.violations == 0
    assert rep.worst_ratio <= 1.0


def test_measure_bound_trivial_balls():
    sys = corner_family(C4_2D)
    dist = distance_kernel(sys.norm)
    far = Ball((10.0, 10.0), 0.5)
    assert _mass_in_ball(sys, far, 0.01, 12, dist, {}) == 0.0
    whole = Ball((0.0, 0.0), 2.0)
    assert _mass_in_ball(sys, whole, 0.01, 12, dist, {}) == 1.0
    beta = moran_exponent([0.2] * 16, 2).exponent / 2
    assert (2 / (2 / 15)) ** (2 * beta) * 1.0 ** (2 * beta) >= 1.0


def test_measure_bound_separation_guard():
    with pytest.raises(ValueError):
        measure_ball_bound_check(corner_family(C4_2D), 0.2, 0.8, 10)
    with pytest.raises(ValueError):
        measure_ball_bound_check(corner_family(MID3), 0.7, 0.6, 10)


def test_measure_bound_validation():
    sys = corner_family(C4)
    with pytest.raises(ValueError):
        measure_ball_bound_check(sys, 2 / 15, 0.8, 0)
    with pytest.raises(ValueError):
        measure_ball_bound_check(sys, 0.0, 0.8, 5)
    with pytest.raises(ValueError):
        measure_ball_bound_check(sys, 2 / 15, 0.0, 5)
    # a non-finite beta once passed with worst_ratio inf; an infinite c
    # failed only at the separation check, as "c * radius = inf"
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            measure_ball_bound_check(sys, 2 / 15, bad, 5)
        with pytest.raises(ValueError, match="c must be positive and finite"):
            measure_ball_bound_check(sys, bad, 0.8, 5)
    with pytest.raises(ValueError, match="beta must be positive and finite"):
        measure_ball_bound_check(sys, 2 / 15, -math.inf, 5)


def test_measure_bound_deterministic_seed():
    beta = moran_exponent([0.2] * 4, 1).exponent
    sys = corner_family(C4)
    a = measure_ball_bound_check(sys, 2 / 15, beta, 50, seed=7)
    b = measure_ball_bound_check(sys, 2 / 15, beta, 50, seed=7)
    assert a == b


def test_moran_solves_are_memoized():
    _moran_solve.cache_clear()
    a = moran_exponent([0.3, 0.25, 0.2], 2)
    assert moran_exponent((0.3, 0.25, 0.2), 2) is a
    assert _moran_solve.cache_info().misses == 1
    assert moran_exponent((0.3, 0.25, 0.2), 1) is not a
    assert a.ratios == (0.3, 0.25, 0.2) and a.d == 2


def test_measure_check_solves_each_ratio_tuple_once():
    beta = moran_exponent([0.2] * 16, 2).exponent / 2
    sys = corner_family(C4_2D)
    _moran_solve.cache_clear()
    rep = measure_ball_bound_check(sys, 2 / 15, beta, 100, seed=3)
    info = _moran_solve.cache_info()
    # one ratio tuple per rounding of radius / parent radius, not one per node
    assert info.misses <= 4 < info.hits
    _moran_solve.cache_clear()
    assert measure_ball_bound_check(sys, 2 / 15, beta, 100, seed=3) == rep


# -- the child-block walks against the Ball-and-children formulas ------------------


def _cantor_gaps(depth):
    gaps, pieces = [], [(0.0, 1.0)]
    for _ in range(depth):
        grown = []
        for a, b in pieces:
            third = (b - a) / 3.0
            gaps.append((a + third, b - third))
            grown.extend(((a, a + third), (b - third, b)))
        pieces = grown
    return tuple(sorted(gaps))


def _spec(name):
    return lambda: parse_set_spec(json.loads((SPECS / name).read_text()))


# (system factory, separation constant c, beta)
_WALKED = {
    "corner_d1": (lambda: corner_family(C4), 0.1, 0.6),
    "corner_d2": (lambda: corner_family(C4_2D), 0.1, 0.6),
    "translate": (lambda: translate(corner_family(C4_2D), (0.3, -0.2)), 0.1, 0.6),
    "similarity": (lambda: similarity_image(corner_family(MID3), 0.7, (1.5,)), 0.3, 0.5),
    "ifs_linf": (_spec("ifs_linf.json"), 0.5, 0.576),
    "ifs_l2": (_spec("ifs_l2.json"), 0.2, 0.576),
    "cantor": (lambda: from_gaps_1d(GapList1D(hull=(0.0, 1.0), gaps=_cantor_gaps(6))), 0.3, 0.63),
}


def _ball_mass_in_ball(sys, word, node, mass, query, cutoff, depth_left):
    """The mass walk over children() Balls, norm_distance at every node and
    each node's ratios solved where it is visited."""
    dist = norm_distance(node.center, query.center, sys.norm)
    if dist > node.radius + query.radius:
        return 0.0
    if dist + node.radius <= query.radius:
        return mass
    if depth_left == 0 or node.radius <= cutoff:
        return mass
    kids = sys.children(word)
    if not kids:
        return mass
    rats = tuple(k.radius / node.radius for k in kids)
    s = moran_exponent(rats, sys.dimension).exponent
    return math.fsum(
        _ball_mass_in_ball(
            sys, word + (j,), k, mass * rats[j] ** s, query, cutoff, depth_left - 1
        )
        for j, k in enumerate(kids)
    )


def _ball_measure_check(sys, c, beta, samples, seed):
    """measure_ball_bound_check's sampling loop around _ball_mass_in_ball;
    also gives each sample's query and mass."""
    rng = random.Random(seed)
    root = sys.root
    exponent = sys.dimension * beta
    const = (2.0 / c) ** exponent
    violations, worst, sampled = 0, 0.0, []
    for _ in range(samples):
        center = tuple(rc + root.radius * rng.uniform(-1.0, 1.0) for rc in root.center)
        radius = root.radius * rng.uniform(0.05, 1.0)
        query = Ball(center, radius)
        mass_ub = _ball_mass_in_ball(sys, (), root, 1.0, query, radius / 64.0, 12)
        sampled.append((query, mass_ub))
        bound = const * radius**exponent
        worst = max(worst, mass_ub / bound if bound > 0 else math.inf)
        if mass_ub > bound * (1 + 1e-9):
            violations += 1
    return MeasureBoundReport(c, beta, samples, violations, worst), sampled


@pytest.mark.parametrize("name", sorted(_WALKED))
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_measure_check_matches_ball_walk(name, seed):
    make, c, beta = _WALKED[name]
    want, sampled = _ball_measure_check(make(), c, beta, 150, seed)
    got = measure_ball_bound_check(make(), c, beta, 150, seed=seed)
    assert repr(got) == repr(want)
    sys, weights = make(), {}
    dist = distance_kernel(sys.norm)
    for query, mass in sampled:
        assert _mass_in_ball(sys, query, query.radius / 64.0, 12, dist, weights) == mass


@pytest.mark.parametrize("name", sorted(_WALKED))
def test_natural_measure_matches_ball_formula(name):
    sys = _WALKED[name][0]()
    want = {(): 1.0}
    frontier = [()]
    for _ in range(4):
        nxt = []
        for word in frontier:
            kids = sys.children(word)
            if not kids:
                continue
            rats = tuple(k.radius / sys.ball(word).radius for k in kids)
            s = moran_exponent(rats, sys.dimension).exponent
            for j in range(len(kids)):
                want[word + (j,)] = want[word] * rats[j] ** s
                nxt.append(word + (j,))
        frontier = nxt
    assert natural_measure(_WALKED[name][0](), 4).masses == want
