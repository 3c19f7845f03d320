"""Enclosures checked against exact rational references.

A test-only `fractions.Fraction` oracle computes the exact value of each
quantity that has a closed form: distances to corner families and their
images, corner holes, thickness and denseness radius, the hole of the
max-norm bench IFS, the closed-form h0 of product IFS and their distances
in every norm, distances and holes of finite 1-D trees, and Newhouse
thickness. Float parameters are read as the rationals they are, and
every other quantity (the corner gap g, cell centers, node radii) is
derived from them exactly. Every float enclosure must contain the exact
value. Max-norm denseness verdicts are checked against a
brute force over candidate centers in exact arithmetic.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import json
import math
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from thickgap.geometry import Ball
from thickgap.ballsystem import (
    CornerFamilyParams,
    GapList1D,
    HomotheticIFS,
    NormKind,
    _corner_axis_offsets,
    corner_dense_radius,
    corner_family,
    corner_gap,
    explicit_tree,
    from_gaps_1d,
    from_ifs,
    newhouse_thickness,
    parse_set_spec,
    similarity_image,
    translate,
)
from thickgap.gaplemma import check_hypotheses, directional_distance_certificate, distance_interval
from thickgap.metrics import denseness_check, dist_to_set, hole_radius, thickness
from thickgap.selfsimilar import _product_h0, homothetic_h0_upper

BENCH = Path(__file__).resolve().parents[1] / "bench"


# -- exact reference -------------------------------------------------------------


class _Corner:
    """The 1-D corner set K(n, ell) in [-1, 1], in exact arithmetic: n cells
    of radius ell/2 with gaps g = (2 - n * ell) / (n - 1), each cell a copy
    of K."""

    def __init__(self, n, ell):
        self.n = n
        self.ell = Fraction(ell)
        self.half = self.ell / 2
        self.g = (2 - n * self.ell) / (n - 1)
        self.step = self.ell + self.g

    def center(self, k):
        return -1 + self.half + k * self.step

    def dist(self, y, levels=200):
        """(lo, hi) around dist(y, K): exact, unless y stays in cells for
        the given number of levels, as points of K do."""
        y = Fraction(y)
        scale = Fraction(1)
        for _ in range(levels):
            k = math.floor((y + 1 - self.half) / self.step)
            near = {min(self.n - 1, max(0, j)) for j in (k, k + 1)}
            d, j = min((abs(y - self.center(j)), j) for j in near)
            if d > self.half:
                # the cell ends lie in K and nothing of K lies between
                return scale * (d - self.half), scale * (d - self.half)
            y = (y - self.center(j)) / self.half
            scale *= self.half
        return Fraction(0), scale

    @property
    def tau(self):
        return self.ell / self.g


def _contains(iv, lo, hi):
    """The float enclosure iv holds every value in the exact [lo, hi]."""
    return Fraction(iv.lo) <= lo and hi <= Fraction(iv.hi)


# -- corner families and their images ----------------------------------------------


def _draw_image(draw, sys):
    """(image, scale, shift): sys, a translate, a similarity image or a
    similarity image of a translate of it, whose set is shift + scale times
    the set of sys exactly."""
    d = sys.dimension
    scale, shift = Fraction(1), (Fraction(0),) * d
    kind = draw(st.sampled_from(["family", "translate", "similarity", "chain"]))
    if kind in ("translate", "chain"):
        v = tuple(draw(st.floats(-2.0, 2.0)) for _ in range(d))
        sys = translate(sys, v)
        shift = tuple(Fraction(x) for x in v)
    if kind in ("similarity", "chain"):
        s = draw(st.floats(0.01, 50.0))
        w = tuple(draw(st.floats(-2.0, 2.0)) for _ in range(d))
        sys = similarity_image(sys, s, w)
        scale = Fraction(s) * scale
        shift = tuple(Fraction(s) * a + Fraction(b) for a, b in zip(shift, w))
    return sys, scale, shift


def _exact_corner_dist(ref, scale, shift, x):
    """The exact Linf distance from x to shift + scale * K**d, to within
    _Corner.dist's levels: the largest per-axis distance, each scaled back
    from K's units."""
    parts = [ref.dist((Fraction(xi) - w) / scale) for xi, w in zip(x, shift)]
    return scale * max(p[0] for p in parts), scale * max(p[1] for p in parts)


@st.composite
def _corner_images(draw):
    """(system, ref, scale, shift): a corner family or a similarity image of
    one, whose set is shift + scale * K**d exactly."""
    n = draw(st.integers(2, 12))
    d = draw(st.integers(1, 2))
    ell = draw(st.floats(0.01, 0.99)) * 2 / n
    sys, scale, shift = _draw_image(draw, corner_family(CornerFamilyParams(n, ell, d)))
    return sys, _Corner(n, ell), scale, shift


def _near_set(draw, ref):
    """A canonical coordinate anywhere near [-1, 1], or in or beside a
    cell a few levels down, where the descent runs deepest."""
    if draw(st.booleans()):
        return draw(st.floats(-1.5, 1.5))
    c, r = Fraction(0), Fraction(1)
    for _ in range(draw(st.integers(1, 6))):
        c, r = c + r * ref.center(draw(st.integers(0, ref.n - 1))), r * ref.half
    return float(c + r * Fraction(draw(st.floats(-1.5, 1.5))))


@settings(max_examples=300, deadline=None)
@given(case=_corner_images(), data=st.data())
@example(
    case=(
        corner_family(CornerFamilyParams(6, float.fromhex("0x1.4796a9508e01dp-2"), 1)),
        _Corner(6, float.fromhex("0x1.4796a9508e01dp-2")),
        Fraction(1),
        (Fraction(0),),
    ),
    data=None,
).via("an instance the unpadded corner descent placed above the exact distance")
def test_corner_distance_encloses_the_exact_value(case, data):
    sys, ref, scale, shift = case
    if data is None:
        x = (float.fromhex("-0x1.314028effca64p-2"),)
    else:
        x = tuple(float(w + scale * Fraction(_near_set(data.draw, ref))) for w in shift)
    lo, hi = _exact_corner_dist(ref, scale, shift, x)
    iv = dist_to_set(x, sys, 1e-9)
    assert _contains(iv, lo, hi), (x, iv, float(lo))
    assert iv.converged


@settings(max_examples=200, deadline=None)
@given(case=_corner_images(), data=st.data(), tol=st.sampled_from([1e-3, 1e-9, 1e-12]))
@example(
    case=(
        similarity_image(
            translate(corner_family(CornerFamilyParams(2, 0.9637783263070814, 1)), (-2.0,)),
            43.0,
            (2.0,),
        ),
        _Corner(2, 0.9637783263070814),
        Fraction(43),
        (Fraction(-84),),
    ),
    data=None,
    tol=1e-12,
).via("an image whose chain rounding pad keeps the root hole wider than tol")
def test_corner_hole_encloses_half_the_gap_times_the_radius(case, data, tol):
    sys, ref, scale, _ = case
    m = ref.n ** sys.dimension
    word = () if data is None else tuple(data.draw(st.lists(st.integers(0, m - 1), max_size=3)))
    # the node is the image of the root under len(word) maps of ratio ell/2
    R = scale * ref.half ** len(word)
    h = hole_radius(word, sys, tol)
    assert _contains(h, ref.g / 2 * R, ref.g / 2 * R), (word, h, float(ref.g / 2 * R))
    assert h.width <= max(tol, 1e-13 * float(scale))
    assert h.converged == (h.width <= tol)


@settings(max_examples=200, deadline=None)
@given(case=_corner_images(), tol=st.sampled_from([1e-2, 1e-6, 1e-9]))
@example(
    case=(
        similarity_image(corner_family(CornerFamilyParams(4, 0.4921875, 1)), 1 / 32, (1.0,)),
        _Corner(4, 0.4921875),
        Fraction(1, 32),
        (Fraction(1),),
    ),
    tol=1e-9,
).via("an image whose chain rounding pad kept the ratio wider than tol")
def test_corner_thickness_encloses_ell_over_g(case, tol):
    sys, ref, _, _ = case
    rep = thickness(sys, 3, tol)
    assert _contains(rep.overall, ref.tau, ref.tau), (rep.overall, float(ref.tau))
    assert rep.converged and rep.overall.width <= tol


# -- directional distance certificates ----------------------------------------

# float nodes are rounded copies of the exact family's nodes (ROADMAP item 17
# measured them up to 79 ulp of |center| apart at depth 2, more with depth),
# so a point within the residual of the float set may sit this many ulps of
# the largest coordinate in play farther from the exact set
_NODE_ULPS = 256


@st.composite
def _directional_cases(draw):
    """(system, ref, scale, shift, v, t, tol, r): a corner family in d = 1, 2
    or 3 thick enough for the gap lemma at some r <= 1/3, or an image of one,
    with a Linf unit v, t in the guaranteed interval [0, distance_interval(r)
    * root radius] and tol in [1e-8, 1e-4]."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(6, 12 if d < 3 else 8))
    # ell from the thickness tau = ell / g, since n ell + (n - 1) g = 2
    tau = draw(st.floats(1.5, 30.0))
    ell = 2 * tau / (n * tau + n - 1)
    ref = _Corner(n, ell)
    # denseness needs r at least the dense radius, the thickness product
    # tau**2 >= 1 / (1 - 2r)**2 needs r <= (1 - 1 / tau) / 2
    low, high = corner_dense_radius(n, ell), min(1 / 3, float((1 - 1 / ref.tau) / 2))
    assume(low < high)
    r = min(high, low + draw(st.floats(0.01, 1.0)) * (high - low))
    sys, scale, shift = _draw_image(draw, corner_family(CornerFamilyParams(n, ell, d)))
    v = [draw(st.floats(-1.0, 1.0)) for _ in range(d)]
    v[draw(st.integers(0, d - 1))] = draw(st.sampled_from([-1.0, 1.0]))
    t = draw(st.floats(0.0, 1.0)) * distance_interval(r) * sys.root.radius
    tol = 10 ** draw(st.floats(-8.0, -4.0))
    return sys, ref, scale, shift, tuple(v), t, tol, r


@settings(max_examples=300, deadline=None)
@given(case=_directional_cases())
def test_directional_certificate_points_lie_within_the_residual_of_the_exact_set(case):
    sys, ref, scale, shift, v, t, tol, r = case
    # the gap lemma's hypotheses for the set and its translate by t*v
    assume(check_hypotheses(sys, translate(sys, tuple(t * c for c in v)), r).all_proven)
    try:
        cert = directional_distance_certificate(sys, v, t, tol, r=r)
    except RuntimeError as exc:
        # near r = (1 - 1/tau) / 2 the exact margin of intersect's strict
        # hole check vanishes, and a step can fail although every
        # hypothesis is proven: no certificate, nothing to check; any
        # other failure fails the test
        if "hole bound" not in str(exc):
            raise
        reject()
    residual = Fraction(cert.residual)
    assert residual <= Fraction(tol)
    allowance = _NODE_ULPS * Fraction(math.ulp(float(max(map(abs, shift)) + scale)))
    for e in (cert.e1, cert.e2):
        lo, _ = _exact_corner_dist(ref, scale, shift, e)
        assert lo <= residual + allowance, (e, float(lo), cert.residual)
    gap = max(
        abs(Fraction(a) - Fraction(b) - Fraction(t) * Fraction(c))
        for a, b, c in zip(cert.e1, cert.e2, v)
    )
    assert gap <= residual, (float(gap), cert.residual)


@st.composite
def _corner_params(draw):
    n = draw(st.integers(2, 40))
    # ell above the subnormals, where the cell radius ell / 2 underflows
    ell = draw(st.floats(1e-300, 2 / n, exclude_max=True))
    return n, ell


@settings(max_examples=300, deadline=None)
@given(case=_corner_params())
@example(case=(6, float.fromhex("0x1.4a57a769ab0b0p-2")))  # ell + g/2 in floats falls short
@example(case=(10, 0.19))
@example(case=(4, 0.4))
def test_corner_dense_radius_is_the_least_float_at_or_above_ell_plus_half_g(case):
    n, ell = case
    ref = _Corner(n, ell)
    exact = ref.ell + ref.g / 2
    r = corner_dense_radius(n, ell)
    below = math.nextafter(r, 0.0)
    assert Fraction(below) < exact <= Fraction(r)
    # r is the exact family's threshold: the float tree's verdict at r and
    # below follows the float cells, which can need a few ulps more
    sys = corner_family(CornerFamilyParams(n, ell, 1))
    kids = list(zip(*sys.child_block(())))
    for x in (r, below):
        if 0 < x < 1:
            dense = _ref_dense_at((0.0,), 1.0, kids, Fraction(x)) is None
            assert (denseness_check(sys, x, 1e-3, 3).verdict == "proven") == dense, x


def _corner_as_ifs(n, ell, d):
    """The corner family's maps spelled out as a homothetic IFS."""
    cells = [-1 + ell / 2 + k * (ell + corner_gap(n, ell)) for k in range(n)]
    grid = [()]
    for _ in range(d):
        grid = [t + (c,) for t in grid for c in cells]
    return from_ifs(HomotheticIFS(tuple((ell / 2, t) for t in grid)), NormKind.LINF)


@pytest.mark.parametrize("d", [1, 2])
def test_thick_product_ifs_has_a_bounded_thickness(d):
    # corner n=10, ell=0.19 as 10**d maps of ratio 0.095: the widest gap is
    # narrower than the first, rough hole tolerance R/64
    sys = _corner_as_ifs(10, 0.19, d)
    rep = thickness(sys, 3, 1e-6)
    tau = _Corner(10, 0.19).tau
    assert rep.converged and rep.overall.width <= 1e-6
    assert _contains(rep.overall, tau, tau), rep.overall


# -- the max-norm bench IFS ------------------------------------------------------------


def test_ifs_linf_node_holes_enclose_13_over_35_of_the_radius():
    # maps of ratio 3/10 at +-13/20 per axis: the hull is [-13/14, 13/14]
    # and the gap between the child hulls is 26/35 wide at every node
    sys = parse_set_spec(json.loads((BENCH / "specs" / "ifs_linf.json").read_text()))
    for word in [(), (0,), (3,), (1, 2), (2, 0, 3)]:
        want = Fraction(13, 35) * Fraction(3, 10) ** len(word)
        for tol in (1e-3, 1e-12):
            h = hole_radius(word, sys, tol)
            assert _contains(h, want, want), (word, h)
            assert h.width <= tol


# -- product IFS: the closed-form h0 and distances in every norm ------------------------


@st.composite
def _product_axes(draw, norm=NormKind.LINF):
    """(lam, axes): one ratio and, per axis, 1 to 4 sorted translations
    drawn as arbitrary floats, whose child hulls t + lam * [a, b] are
    disjoint in exact arithmetic. They lie in [-1 + lam, 1 - lam], or a d-th
    of that outside Linf, so that every map keeps the unit ball."""
    lam = draw(st.floats(0.02, 0.4))
    d = draw(st.integers(1, 2))
    reach = (1 - lam) / (1 if norm is NormKind.LINF else d)
    axes = []
    for _ in range(d):
        ts = sorted(draw(st.sets(st.floats(-reach, reach), min_size=1, max_size=4)))
        hulls = _exact_hulls(lam, ts)
        assume(all(e < s for (_, e), (s, _) in zip(hulls, hulls[1:])))
        axes.append(ts)
    return lam, axes


def _exact_hulls(lam, ts):
    """The child hulls t + lam * [a, b] of the attractor K of y -> lam * y
    + t over the sorted ts, whose hull [a, b] has the outer fixed points
    as its ends, so both ends of every child hull lie in K."""
    lam = Fraction(lam)
    a, b = Fraction(ts[0]) / (1 - lam), Fraction(ts[-1]) / (1 - lam)
    return [(Fraction(t) + lam * a, Fraction(t) + lam * b) for t in ts]


def _product_ifs(lam, axes, norm):
    grid = [()]
    for ts in axes:
        grid = [t + (x,) for t in grid for x in ts]
    ifs = HomotheticIFS(tuple((lam, t) for t in grid))
    assume(ifs.axis_factors() is not None)  # the float hulls are disjoint too
    return ifs, from_ifs(ifs, norm)


def _exact_axis_dist(lam, ts, y, levels=80):
    """(lo, hi) around dist(y, K): K lies in its child hulls, whose ends are
    points of K, so outside them the distance is the nearest end's; inside
    one, it is lam times the distance of the hull's preimage point. Exact
    unless y stays in hulls for the given number of levels."""
    hulls = _exact_hulls(lam, ts)
    lam, y, scale = Fraction(lam), Fraction(y), Fraction(1)
    for _ in range(levels):
        inside = [k for k, (a, b) in enumerate(hulls) if a <= y <= b]
        if not inside:
            d = min(max(a - y, y - b) for a, b in hulls)
            return scale * d, scale * d
        y = (y - Fraction(ts[inside[0]])) / lam
        scale *= lam
    return Fraction(0), scale * (hulls[-1][1] - hulls[0][0])


@settings(max_examples=300, deadline=None)
@given(case=_product_axes(), tol=st.sampled_from([1e-3, 1e-9]))
def test_product_h0_encloses_the_widest_half_gap_or_stick_out(case, tol):
    lam, axes = case
    ifs, _ = _product_ifs(lam, axes, NormKind.LINF)
    assert _product_h0(ifs) is not None  # the closed form, not the search
    # the farthest point of [-1, 1] from each axis's child intervals
    # [t - lam, t + lam]: an end of [-1, 1] or the middle of a gap
    lam_q = Fraction(lam)
    widest = 0
    for ts in axes:
        pieces = []
        for lo, hi in sorted((Fraction(t) - lam_q, Fraction(t) + lam_q) for t in ts):
            if pieces and lo <= pieces[-1][1]:
                pieces[-1] = (pieces[-1][0], max(pieces[-1][1], hi))
            else:
                pieces.append((lo, hi))
        widest = max(widest, _exact_hole(pieces, Fraction(-1), Fraction(1)))
    exact = widest / (1 - lam_q)
    assert _contains(homothetic_h0_upper(ifs, tol), exact, exact)


def _near_product_axis(draw, lam, ts):
    """A float anywhere near [-1, 1], or in or beside a child hull a few
    levels down, where the descent runs deepest."""
    if draw(st.booleans()):
        return draw(st.floats(-1.5, 1.5))
    hulls = _exact_hulls(lam, ts)
    c, r = Fraction(0), Fraction(1)
    for _ in range(draw(st.integers(1, 4))):
        a, b = hulls[draw(st.integers(0, len(ts) - 1))]
        c, r = c + r * (a + b) / 2, r * (b - a) / 2
    return float(c + r * Fraction(draw(st.floats(-1.5, 1.5))))


@settings(max_examples=300, deadline=None)
@given(
    norm=st.sampled_from([NormKind.L2, NormKind.L1]),
    data=st.data(),
    tol=st.sampled_from([1e-3, 1e-9]),
)
def test_product_distance_encloses_the_exact_value_in_l2_and_l1(norm, data, tol):
    lam, axes = data.draw(_product_axes(norm))
    _, sys = _product_ifs(lam, axes, norm)
    x = tuple(_near_product_axis(data.draw, lam, ts) for ts in axes)
    parts = [_exact_axis_dist(lam, ts, y) for ts, y in zip(axes, x)]
    iv = dist_to_set(x, sys, tol)
    lo, hi = Fraction(iv.lo), Fraction(iv.hi)
    if norm is NormKind.L1:
        assert lo <= sum(p[0] for p in parts) and sum(p[1] for p in parts) <= hi, (x, iv)
    else:  # squares, which stay rational
        assert lo * lo <= sum(p[0] ** 2 for p in parts), (x, iv)
        assert sum(p[1] ** 2 for p in parts) <= hi * hi, (x, iv)


# -- finite 1-D gap trees -------------------------------------------------------------


@st.composite
def _dyadic_gap_lists(draw):
    """A gap list whose hull and gap ends are k / 2**e with |k| <= 2**20, so
    exact as floats, and so are the node centers and radii derived from
    them; distinct ends keep every piece between two gaps nondegenerate."""
    e = draw(st.integers(0, 40))
    m = draw(st.integers(0, 8))
    ks = draw(st.sets(st.integers(-(2**20), 2**20), min_size=2 * m + 2, max_size=2 * m + 2))
    ends = [math.ldexp(k, -e) for k in sorted(ks)]
    return GapList1D((ends[0], ends[-1]), tuple(zip(ends[1:-1:2], ends[2:-1:2])))


@st.composite
def _far_gap_lists(draw):
    """A gap list of float ends a long way from the origin, whose node
    centers, radii and gap midpoints round."""
    offset = draw(st.floats(1e3, 1e9))
    m = draw(st.integers(1, 6))
    ends = sorted({offset + u for u in draw(st.lists(st.floats(0.0, 2.0), min_size=2 * m + 2))})
    assume(len(ends) >= 2 * m + 2)
    ends = ends[: 2 * m + 1] + ends[-1:]
    return GapList1D((ends[0], ends[-1]), tuple(zip(ends[1:-1:2], ends[2:-1:2])))


def _gap_list_pieces(gl):
    """The closed pieces of the hull between the gaps, exactly: the leaf
    intervals of the gap tree."""
    ends = [gl.hull[0], *itertools.chain.from_iterable(gl.gaps), gl.hull[1]]
    return [(Fraction(a), Fraction(b)) for a, b in zip(ends[::2], ends[1::2])]


def _exact_dist(pieces, x):
    return min(max(a - x, x - b, Fraction(0)) for a, b in pieces)


def _exact_hole(pieces, lo, hi):
    """max over [lo, hi] of the distance to the pieces: taken at an end or
    at the midpoint of a gap between two pieces."""
    mids = [(b + a) / 2 for (_, b), (a, _) in zip(pieces, pieces[1:])]
    return max(_exact_dist(pieces, t) for t in [lo, hi, *(t for t in mids if lo <= t <= hi)])


def _near_gap_list(draw, gl):
    """A float anywhere near the hull, or at or beside a hull end, a gap
    end or a gap midpoint, where the distance turns."""
    a, b = gl.hull
    if draw(st.booleans()):
        return draw(st.floats(2 * a - b, 2 * b - a))
    marks = [a, b, *itertools.chain.from_iterable(gl.gaps), *((lo + hi) / 2 for lo, hi in gl.gaps)]
    x = draw(st.sampled_from(marks))
    for _ in range(draw(st.integers(0, 3))):
        x = math.nextafter(x, draw(st.sampled_from([-math.inf, math.inf])))
    return x


def _check_finite1d(sys, pieces, x, tol):
    """dist_to_set at x and every node's hole_radius hold the exact values:
    the distance to the union of the pieces, sorted and disjoint, and its
    max over the node's ball."""
    exact = _exact_dist(pieces, Fraction(x))
    iv = dist_to_set((x,), sys, tol)
    assert _contains(iv, exact, exact), (x, iv, float(exact))
    for word, ball in sys.walk(1_000_000):
        c, r = Fraction(ball.center[0]), Fraction(ball.radius)
        exact = _exact_hole(pieces, c - r, c + r)
        h = hole_radius(word, sys, tol)
        assert _contains(h, exact, exact), (word, h, float(exact))


@settings(max_examples=300, deadline=None)
@given(gl=_dyadic_gap_lists(), data=st.data(), tol=st.sampled_from([1e-3, 1e-9, 1e-12]))
@example(
    gl=GapList1D((-4.0, 4.0), ((-3.0, -2.0), (-1.0, 1.0), (2.0, 3.0))),
    data=None,
    tol=1e-3,
).via("a point whose distance 1 - x rounded up to 1.0, given as [1.0, 1.0]")
def test_finite1d_distance_and_holes_enclose_the_exact_values(gl, data, tol):
    x = 5.8125628937389095e-154 if data is None else _near_gap_list(data.draw, gl)
    sys, pieces = from_gaps_1d(gl), _gap_list_pieces(gl)
    _check_finite1d(sys, pieces, x, tol)
    # dyadic ends make the root ball the hull, whose hole is half the widest
    # component of the hull minus the pieces: half the widest gap
    half = max([hi - lo for (_, lo), (hi, _) in zip(pieces, pieces[1:])], default=0) / 2
    assert _contains(hole_radius((), sys, tol), half, half)


@settings(max_examples=200, deadline=None)
@given(gl=_far_gap_lists(), data=st.data(), tol=st.sampled_from([1e-3, 1e-9, 1e-12]))
@example(
    gl=GapList1D(
        (2625183.3548202747, 2625185.3548202747), ((2625183.8502553618, 2625183.8507054034),)
    ),
    data=None,
    tol=1e-12,
).via("a gap midpoint whose rounding passed the hole's 1e-12 pad")
def test_finite1d_holes_far_from_the_origin_enclose_the_exact_values(gl, data, tol):
    x = gl.hull[0] if data is None else _near_gap_list(data.draw, gl)
    _check_finite1d(from_gaps_1d(gl), _gap_list_pieces(gl), x, tol)


def _leaf_pieces(sys):
    """The leaves of a finite 1-D tree as the exact intervals [c - r, c + r]
    of their float centers and radii, sorted, overlapping ones merged."""
    ivs = sorted(
        (Fraction(b.center[0]) - Fraction(b.radius), Fraction(b.center[0]) + Fraction(b.radius))
        for w, b in sys.walk(1_000_000)
        if sys.is_leaf(w)
    )
    merged = []
    for a, b in ivs:
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


@st.composite
def _far_trees(draw):
    """An explicit 1-D tree a long way from the origin: a root whose
    children, and maybe the first child's children, are small balls, so
    that their ends c - r and c + r round."""
    c0 = draw(st.floats(1e3, 1e6))
    radius = draw(st.floats(0.5, 2.0))
    entries = [((), Ball((c0,), radius))]
    for j in range(draw(st.integers(1, 4))):
        c = c0 + radius * draw(st.floats(-0.9, 0.9))
        entries.append(((j,), Ball((c,), radius * draw(st.floats(0.01, 0.1)))))
    _, first = entries[1]
    for j in range(draw(st.integers(0, 2))):
        c = first.center[0] + first.radius * draw(st.floats(-0.5, 0.5))
        entries.append(((0, j), Ball((c,), first.radius * draw(st.floats(0.05, 0.4)))))
    return explicit_tree(NormKind.LINF, 1, entries)


@st.composite
def _gap_list_images(draw):
    """A similarity image of a two-piece gap list, whose leaf ends round."""
    a = draw(st.floats(0.05, 0.9))
    b = draw(st.floats(a + 0.01, 0.95))
    gl = GapList1D((0.0, 1.0), ((a, b),))
    return similarity_image(
        from_gaps_1d(gl), draw(st.floats(0.3, 3.0)), (draw(st.floats(-1e4, 1e4)),)
    )


def _near_leaf_end(draw, sys):
    """A float at or just beside the float end c - r or c + r of a leaf, up
    to 1e-9 away, where the end's rounding shows."""
    leaves = [b for w, b in sys.walk(1_000_000) if sys.is_leaf(w)]
    ball = draw(st.sampled_from(leaves))
    x = ball.center[0] + draw(st.sampled_from([-1, 1])) * ball.radius
    if draw(st.booleans()):
        return x + draw(st.floats(-1e-9, 1e-9))
    for _ in range(draw(st.integers(0, 3))):
        x = math.nextafter(x, draw(st.sampled_from([-math.inf, math.inf])))
    return x


def test_finite1d_distance_past_a_rounded_leaf_end_encloses_the_exact_value():
    # c + r rounds to nearest, 2.33e-10 short of x, where the exact gap is
    # 2.56e-10; a one-ulp widening of the rounded distance misses it
    c, r, x = 747603.0557957015, 0.05511589904770413, 747603.1109116008
    sys = explicit_tree(NormKind.LINF, 1, [((), Ball((c,), 1.0)), ((0,), Ball((c,), r))])
    exact = Fraction(x) - Fraction(c) - Fraction(r)
    assert float(exact) == pytest.approx(2.5622389e-10)
    assert _contains(dist_to_set((x,), sys, 1e-9), exact, exact)


@settings(max_examples=300, deadline=None)
@given(
    sys=st.one_of(_far_trees(), _gap_list_images()),
    data=st.data(),
    tol=st.sampled_from([1e-3, 1e-9, 1e-12]),
)
def test_finite1d_rounded_leaf_ends_enclose_the_exact_values(sys, data, tol):
    _check_finite1d(sys, _leaf_pieces(sys), _near_leaf_end(data.draw, sys), tol)


# -- Newhouse thickness ---------------------------------------------------------------


def _bench_cantor_gaps():
    spec = importlib.util.spec_from_file_location("bench_reference", BENCH / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.cantor_gaps(9)


def _newhouse_exact(hull, gaps):
    """Newhouse thickness of the gap list in exact arithmetic: gaps cut in
    decreasing length, leftmost first on ties."""
    intervals = [tuple(map(Fraction, hull))]
    tau = None
    for lo, hi in sorted(
        ((Fraction(a), Fraction(b)) for a, b in gaps), key=lambda g: (g[0] - g[1], g[0])
    ):
        host = next(iv for iv in intervals if iv[0] <= lo and hi <= iv[1])
        ratio = min(lo - host[0], host[1] - hi) / (hi - lo)
        tau = ratio if tau is None else min(tau, ratio)
        intervals.remove(host)
        intervals += [(host[0], lo), (hi, host[1])]
    return tau


def test_newhouse_thickness_of_the_bench_cantor_gaps_is_exact():
    gaps = _bench_cantor_gaps()
    assert len(gaps) == 2**9 - 1
    tau = newhouse_thickness(GapList1D(hull=(0.0, 1.0), gaps=tuple(gaps)))
    assert tau == float(_newhouse_exact((0.0, 1.0), gaps))


# -- denseness by box coverage ---------------------------------------------------------


def _ref_dense_at(center, radius, kids, rho):
    """A center (exact rationals) of a Linf ball of radius rho inside the
    node that holds no child, or None when there is none. The candidates are
    every breakpoint and every mid-breakpoint of each axis, and each
    candidate tests containment child by child; a Linf ball holds a child
    exactly when it does on every axis, so the per-axis tests are kept as
    bitmasks over the children."""
    c, R = [Fraction(x) for x in center], Fraction(radius)
    kids = [([Fraction(x) for x in kc], Fraction(kr)) for kc, kr in kids]
    lo, hi = [x - R + rho for x in c], [x + R - rho for x in c]
    masks = []
    for i in range(len(c)):
        cuts = {lo[i], hi[i]} | {kc[i] + s * (rho - kr) for kc, kr in kids for s in (-1, 1)}
        cuts = sorted(x for x in cuts if lo[i] <= x <= hi[i])
        xs = cuts + [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]
        fits = [
            (x, sum(1 << k for k, (kc, kr) in enumerate(kids) if abs(x - kc[i]) + kr <= rho))
            for x in xs
        ]
        masks.append(fits)
    for combo in itertools.product(*masks):
        if not functools.reduce(operator.and_, (m for _, m in combo)):
            return tuple(x for x, _ in combo)
    return None


def _ref_nodes(sys, depth):
    """The nodes the verdict rests on, as (center, radius, children): the
    root of the similarity core for homothetic systems, else every internal
    node down to depth."""
    if sys.is_homothetic():
        words, sys = [()], sys.core or sys
    else:
        words = [w for w, _ in sys.walk(depth) if sys.child_count(w)]
    out = []
    for w in words:
        b = sys.ball(w)
        out.append((b.center, b.radius, list(zip(*sys.child_block(w)))))
    return out


def _ref_witness_ok(sys, depth, witness, r):
    """The witness lies in some node, has radius at least r times its
    radius and holds none of its children, in exact arithmetic."""
    rho, x = Fraction(witness.radius), [Fraction(v) for v in witness.center]

    def inside(c, s):
        return max(abs(a - Fraction(b)) for a, b in zip(x, c)) <= s

    words = (w for w, _ in sys.walk(depth) if sys.child_count(w))
    for w in words:
        b = sys.ball(w)
        if rho >= Fraction(r) * Fraction(b.radius) and inside(b.center, Fraction(b.radius) - rho):
            kids = zip(*sys.child_block(w))
            if not any(inside(kc, rho - Fraction(kr)) for kc, kr in kids):
                return True
    return False


def _ref_threshold_1d(nodes):
    """The least r at which every 1-D node is dense: per node, the least
    rho among the values where two breakpoints meet at which the reference
    finds no hole (denseness only grows with rho), over the node radius."""
    worst = Fraction(0)
    for (c,), R, kids in nodes:
        c, R = Fraction(c), Fraction(R)
        # breakpoints as a + b * rho
        lines = [(c - R, Fraction(1)), (c + R, Fraction(-1))]
        for (kc,), kr in kids:
            kc, kr = Fraction(kc), Fraction(kr)
            lines += [(kc + kr, Fraction(-1)), (kc - kr, Fraction(1))]
        rhos = {Fraction(kr) for _, kr in kids} | {R}
        for (a1, b1), (a2, b2) in itertools.combinations(lines, 2):
            if b1 != b2 and 0 < (a2 - a1) / (b1 - b2) <= R:
                rhos.add((a2 - a1) / (b1 - b2))
        rhos = sorted(rhos)
        lo, hi = 0, len(rhos) - 1  # rho = R is dense: the ball is the node
        while lo < hi:
            mid = (lo + hi) // 2
            if _ref_dense_at((c,), R, [((kc,), kr) for (kc,), kr in kids], rhos[mid]) is None:
                hi = mid
            else:
                lo = mid + 1
        worst = max(worst, rhos[lo] / R)
    return worst


@st.composite
def _linf_ifs(draw):
    d = draw(st.integers(1, 3))
    if draw(st.booleans()):
        # an axis product: one ratio, a grid of translations
        lam = draw(st.floats(0.05, 0.45))
        values = [
            draw(st.lists(st.floats(-(1 - lam), 1 - lam), min_size=1, max_size=2 if d == 3 else 3))
            for _ in range(d)
        ]
        maps = [(lam, t) for t in itertools.product(*values)]
    else:
        maps = []
        for _ in range(draw(st.integers(1, 8))):
            lam = draw(st.floats(0.05, 0.6))
            maps.append((lam, tuple(draw(st.floats(-(1 - lam), 1 - lam)) for _ in range(d))))
    return from_ifs(HomotheticIFS(tuple(maps)), NormKind.LINF)


@st.composite
def _linf_tree(draw):
    """An explicit Linf tree two levels deep, each child a box inside its parent."""
    d = draw(st.integers(1, 3))
    root = Ball(tuple(draw(st.floats(-2, 2)) for _ in range(d)), draw(st.floats(0.5, 2)))
    entries = [((), root)]
    frontier = [((), root)]
    for _ in range(2):
        nxt = []
        for word, ball in frontier:
            for j in range(draw(st.integers(0, 4))):
                rad = ball.radius * draw(st.floats(0.05, 0.6))
                room = ball.radius - rad
                center = tuple(c + room * draw(st.floats(-1, 1)) for c in ball.center)
                kid = Ball(center, rad)
                if max(abs(a - b) for a, b in zip(center, ball.center)) + rad > ball.radius:
                    break  # rounding pushed it out; keep the indices 0..j-1
                entries.append((word + (j,), kid))
                nxt.append((word + (j,), kid))
        frontier = nxt
    return explicit_tree(NormKind.LINF, d, entries)


@st.composite
def _corner_systems(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, 12 if d < 3 else 5))
    return corner_family(CornerFamilyParams(n, draw(st.floats(0.01, 0.99)) * 2 / n, d))


@st.composite
def _box_systems(draw):
    sys = draw(st.one_of(_linf_ifs(), _linf_tree(), _corner_systems()))
    if draw(st.booleans()):
        d = sys.dimension
        sys = similarity_image(
            sys, draw(st.floats(0.1, 10)), tuple(draw(st.floats(-3, 3)) for _ in range(d))
        )
    return sys


@settings(max_examples=300, deadline=None)
@given(sys=_box_systems(), data=st.data())
def test_box_denseness_matches_a_brute_force_reference(sys, data):
    depth = 2
    nodes = _ref_nodes(sys, depth)
    corner = (sys.core or sys).generator
    if isinstance(corner, CornerFamilyParams) and data.draw(st.booleans()):
        # the exact family's threshold and one float either side
        up = corner_dense_radius(corner.n, corner.ell)
        r = data.draw(st.sampled_from([math.nextafter(up, 0.0), up, math.nextafter(up, 1.0)]))
        assume(0 < r < 1)
    elif sys.dimension == 1 and data.draw(st.booleans()):
        exact = _ref_threshold_1d(nodes)
        up = float(exact)
        up = up if up >= exact else math.nextafter(up, 1.0)
        r = data.draw(st.sampled_from([math.nextafter(up, 0.0), up, math.nextafter(up, 1.0)]))
        assume(0 < r < 1)
    else:
        r = data.draw(st.floats(0.01, 0.99))
    rep = denseness_check(sys, r, 1e-3, depth)
    dense = all(
        _ref_dense_at(c, R, kids, Fraction(r) * Fraction(R)) is None for c, R, kids in nodes
    )
    assert rep.method == "box-exact"
    assert (rep.verdict == "proven") == dense, rep
    if rep.verdict == "refuted":
        assert _ref_witness_ok(sys, depth, rep.witness, r), rep
    if rep.verdict == "unknown":
        assert rep.detail.startswith("witness verification failed"), rep


def test_box_denseness_refuses_the_corner_threshold_on_the_product_ifs():
    # the float maps of corner n=4, ell=0.4 put the exact threshold above
    # the corner family's: a ball of this radius about (8/15, 0) in the
    # root misses the nearest child by about 5.6e-17
    sys = _corner_as_ifs(4, 0.4, 2)
    r = corner_dense_radius(4, 0.4)
    rep = denseness_check(sys, r, 1e-3, 3)
    assert rep.verdict != "proven"
    rho = Fraction(r)
    assert _ref_dense_at((0.0, 0.0), 1.0, list(zip(*sys.child_block(()))), rho) is not None
    if rep.verdict == "refuted":
        assert _ref_witness_ok(sys, 0, rep.witness, r)


def _jittered_grid():
    """A thick max-norm set that is not an axis product: a 6 x 6 grid of
    maps of ratio 0.15, each translation jittered by up to g/16."""
    rng = random.Random(0)
    g, offs = corner_gap(6, 0.3), _corner_axis_offsets(6, 0.3)
    jitter = [(rng.uniform(-g / 16, g / 16), rng.uniform(-g / 16, g / 16)) for _ in range(36)]
    ts = [(0.99 * a + u, 0.99 * b + v) for (a, b), (u, v) in zip(itertools.product(offs, offs), jitter)]
    return from_ifs(HomotheticIFS(tuple((0.15, t) for t in ts)), NormKind.LINF)


@pytest.mark.parametrize(
    "case, r, verdict",
    [("grid", 0.34, "proven"), ("grid", 0.2, "refuted"), ("three", 0.5, "refuted")],
)
def test_box_denseness_decides_non_product_linf_sets(case, r, verdict):
    if case == "grid":
        sys = _jittered_grid()
        assert sys.axis_factors() is None
    else:
        maps = ((0.3, (-0.55, -0.4)), (0.3, (0.55, -0.4)), (0.3, (0.0, 0.65)))
        sys = from_ifs(HomotheticIFS(maps), NormKind.LINF)
    rep = denseness_check(sys, r, 1e-3, 2)
    assert (rep.method, rep.verdict) == ("box-exact", verdict)
    nodes = _ref_nodes(sys, 2)
    assert all(
        (_ref_dense_at(c, R, kids, Fraction(r) * Fraction(R)) is None) == (verdict == "proven")
        for c, R, kids in nodes
    )
    if verdict == "refuted":
        assert _ref_witness_ok(sys, 0, rep.witness, r)
