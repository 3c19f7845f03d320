import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thickgap.geometry import (
    Ball,
    IntervalBound,
    NormKind,
    Sphere,
    SphereUnion,
    ball_contains,
    ball_scale,
    balls_disjoint,
    dist_point_ball,
    dist_point_sphere,
    distance_kernel,
    norm_distance,
    trusted_ball,
    trusted_sphere,
)

ALL_NORMS = [NormKind.LINF, NormKind.L2, NormKind.L1]

coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def pts(dim):
    return st.tuples(*([coord] * dim))


_REFERENCE_NORMS = {
    NormKind.LINF: lambda p, q: max(abs(a - b) for a, b in zip(p, q)),
    NormKind.L2: lambda p, q: math.sqrt(math.fsum((a - b) ** 2 for a, b in zip(p, q))),
    NormKind.L1: lambda p, q: math.fsum(abs(a - b) for a, b in zip(p, q)),
}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(pts(d), pts(d))))
def test_distance_kernel_matches_reference_formulas(pq):
    p, q = pq
    for norm, reference in _REFERENCE_NORMS.items():
        want = reference(p, q)
        assert repr(distance_kernel(norm)(p, q)) == repr(want)
        assert repr(norm_distance(p, q, norm)) == repr(want)


def test_distance_kernel_rejects_unknown_norms():
    for bad in ("linf", None, [NormKind.LINF]):
        with pytest.raises(ValueError, match="unsupported norm"):
            distance_kernel(bad)
        with pytest.raises(ValueError, match="unsupported norm"):
            norm_distance((0.0,), (1.0,), bad)


def test_trusted_ball_equals_checked_ball():
    b = trusted_ball((0.5, -0.25), 0.125)
    assert b == Ball((0.5, -0.25), 0.125) and hash(b) == hash(Ball((0.5, -0.25), 0.125))
    assert b.dimension == 2
    with pytest.raises(AttributeError):
        b.radius = 1.0


def test_trusted_sphere_equals_checked_sphere():
    s = trusted_sphere((0.5, -0.25), 0.125)
    assert s == Sphere((0.5, -0.25), 0.125) and hash(s) == hash(Sphere((0.5, -0.25), 0.125))
    assert repr(s) == repr(Sphere((0.5, -0.25), 0.125))
    with pytest.raises(AttributeError):
        s.radius = 1.0
    # the radius keeps Sphere's check and error
    for bad in (0.0, -0.0, -1.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError) as want:
            Sphere((0.0,), bad)
        with pytest.raises(ValueError) as got:
            trusted_sphere((0.0,), bad)
        assert str(got.value) == str(want.value)


def test_norm_distance_examples():
    assert norm_distance((0.0, 0.0), (3.0, -4.0), NormKind.LINF) == 4.0
    assert norm_distance((0.0, 0.0), (3.0, -4.0), NormKind.L2) == 5.0
    assert norm_distance((1.0, 1.0), (1.0, 1.0), NormKind.L1) == 0.0


def test_norm_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        norm_distance((0.0,), (0.0, 0.0), NormKind.L2)


@settings(max_examples=200)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(pts(d), pts(d), pts(d))))
def test_metric_axioms(triple):
    p, q, r = triple
    for norm in ALL_NORMS:
        dpq = norm_distance(p, q, norm)
        assert dpq >= 0
        assert abs(dpq - norm_distance(q, p, norm)) <= 1e-12
        assert norm_distance(p, p, norm) == 0
        # triangle inequality with a tiny float allowance
        assert dpq <= norm_distance(p, r, norm) + norm_distance(r, q, norm) + 1e-12 * (
            1 + dpq
        )


def test_dist_point_ball_examples():
    b = Ball((0.0, 0.0), 1.0)
    assert dist_point_ball((0.0, 0.0), b, NormKind.LINF) == 0.0
    assert dist_point_ball((2.0, 0.0), b, NormKind.LINF) == 1.0
    assert dist_point_ball((0.5, 0.0), b, NormKind.LINF) == 0.0


def test_dist_point_ball_boundary_is_zero():
    b = Ball((1.0, -2.0), 0.75)
    for norm in ALL_NORMS:
        # walk to the boundary along a coordinate axis
        p = (1.0 + 0.75, -2.0)
        assert dist_point_ball(p, b, norm) == pytest.approx(0.0, abs=1e-12)
        outside = (1.0 + 0.75 + 1e-6, -2.0)
        assert dist_point_ball(outside, b, norm) > 0


def test_dist_point_sphere_examples():
    s = Sphere((0.0, 0.0), 2.0)
    assert dist_point_sphere((0.0, 0.0), s, NormKind.LINF) == 2.0
    assert dist_point_sphere((2.0, 0.0), s, NormKind.LINF) == 0.0
    s1 = Sphere((0.0, 0.0), 1.0)
    assert dist_point_sphere((3.0, 0.0), s1, NormKind.LINF) == 2.0


def test_ball_scale():
    b = Ball((0.0, 0.0), 1.0)
    assert ball_scale(b, 1.0) == b
    r = 0.25
    assert ball_scale(b, 1 - 2 * r).radius == 0.5
    for a in (0.1, 0.5, 1.0):
        assert ball_contains(b, ball_scale(b, a), NormKind.LINF)
    with pytest.raises(ValueError):
        ball_scale(b, 0.0)


def test_ball_contains_examples():
    outer = Ball((0.0, 0.0), 1.0)
    assert ball_contains(outer, outer, NormKind.LINF)
    assert ball_contains(outer, Ball((0.5, 0.0), 0.5), NormKind.LINF)
    assert not ball_contains(outer, Ball((0.9, 0.0), 0.2), NormKind.LINF)


@settings(max_examples=100)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.tuples(
            pts(d),
            st.floats(0.1, 10),
            pts(d),
            st.floats(0.01, 5),
            st.lists(st.tuples(st.floats(0, 1), *([st.floats(-1, 1)] * d)), min_size=1, max_size=8),
        )
    )
)
# subnormal directions: t * r * d rounds up to the next subnormal before the
# division by the norm, and squares of tiny L2 components underflow, so an
# unscaled direction can put the sample point outside the inner ball
@example(args=((0.0,), 0.75, (0.0,), 0.75, [(1.0, 5e-324)]))
@example(args=((0.0, 0.0), 1.0, (0.0, 0.0), 1.0, [(1.0, 1e-160, 1e-170)]))
def test_containment_implies_membership(args):
    oc, orad, ic, irad, samples = args
    for norm in ALL_NORMS:
        outer, inner = Ball(oc, orad), Ball(ic, irad)
        if not ball_contains(outer, inner, norm):
            continue
        for t, *direction in samples:
            m = max(map(abs, direction))
            if m == 0:
                p = inner.center
            else:
                unit = [d / m for d in direction]
                n = norm_distance(unit, (0.0,) * len(unit), norm)
                p = tuple(
                    c + t * inner.radius * (u / n) for c, u in zip(inner.center, unit)
                )
            assert dist_point_ball(p, outer, norm) <= 1e-9 * (1 + outer.radius)


def test_interval_bound_invariants():
    e = IntervalBound(1.0, 1.5, 0.5)
    assert e.width == 0.5 and e.contains(1.25) and not e.contains(2.0)
    assert e.mid == 1.25
    with pytest.raises(ValueError):
        IntervalBound(2.0, 1.0, 0.1)
    flagged = IntervalBound(0.0, 10.0, 0.1, converged=False)
    assert not flagged.converged


def test_sphere_union_count_bound():
    s = Sphere((0.0,), 1.0)
    u = SphereUnion((s, s), m_bound=2)
    assert len(u.spheres) == 2
    with pytest.raises(ValueError):
        SphereUnion((s, s, s), m_bound=2)
    with pytest.raises(ValueError):
        SphereUnion((), m_bound=1)


def test_ball_validation():
    with pytest.raises(ValueError):
        Ball((0.0,), 0.0)
    with pytest.raises(ValueError):
        Ball((math.inf,), 1.0)


def test_balls_disjoint_touching_is_not_disjoint():
    a = Ball((0.0,), 1.0)
    b = Ball((2.0,), 1.0)
    assert not balls_disjoint(a, b, NormKind.LINF)
    assert balls_disjoint(a, Ball((2.1,), 1.0), NormKind.LINF)
