"""Dimension bound formula, Moran solver, and natural measure."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thickgap.ballsystem import (
    CornerFamilyParams,
    GapList1D,
    corner_family,
    from_gaps_1d,
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
from thickgap.geometry import Ball

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
    far = Ball((10.0, 10.0), 0.5)
    assert _mass_in_ball(sys, (), sys.root, 1.0, far, 0.01, 12) == 0.0
    whole = Ball((0.0, 0.0), 2.0)
    assert _mass_in_ball(sys, (), sys.root, 1.0, whole, 0.01, 12) == 1.0
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
