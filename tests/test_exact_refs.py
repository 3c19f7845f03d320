"""Enclosures checked against exact rational references.

A test-only `fractions.Fraction` oracle computes the exact value of each
quantity that has a closed form: distances to corner families and their
images, corner holes, thickness and denseness radius, the hole of the
max-norm bench IFS and Newhouse thickness. Float parameters are read as the rationals they
are, and every other quantity (the corner gap g, cell centers, node
radii) is derived from them exactly. Every float enclosure must contain
the exact value.
"""

from __future__ import annotations

import importlib.util
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thickgap.ballsystem import (
    CornerFamilyParams,
    GapList1D,
    HomotheticIFS,
    NormKind,
    corner_dense_radius,
    corner_family,
    corner_gap,
    from_ifs,
    newhouse_thickness,
    parse_set_spec,
    similarity_image,
    translate,
)
from thickgap.metrics import denseness_check, dist_to_set, hole_radius, thickness

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


@st.composite
def _corner_images(draw):
    """(system, ref, scale, shift): a corner family or a similarity image of
    one, whose set is shift + scale * K**d exactly."""
    n = draw(st.integers(2, 12))
    d = draw(st.integers(1, 2))
    ell = draw(st.floats(0.01, 0.99)) * 2 / n
    sys = corner_family(CornerFamilyParams(n, ell, d))
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
    # Linf: the largest per-axis distance, each scaled back from K's units
    parts = [ref.dist((Fraction(xi) - w) / scale) for xi, w in zip(x, shift)]
    lo, hi = scale * max(p[0] for p in parts), scale * max(p[1] for p in parts)
    iv = dist_to_set(x, sys, 1e-9)
    assert _contains(iv, lo, hi), (x, iv, float(lo))
    assert iv.converged


@settings(max_examples=200, deadline=None)
@given(case=_corner_images(), data=st.data(), tol=st.sampled_from([1e-3, 1e-9, 1e-12]))
def test_corner_hole_encloses_half_the_gap_times_the_radius(case, data, tol):
    sys, ref, scale, _ = case
    m = ref.n ** sys.dimension
    word = tuple(data.draw(st.lists(st.integers(0, m - 1), max_size=3)))
    # the node is the image of the root under len(word) maps of ratio ell/2
    R = scale * ref.half ** len(word)
    h = hole_radius(word, sys, tol)
    assert _contains(h, ref.g / 2 * R, ref.g / 2 * R), (word, h, float(ref.g / 2 * R))
    assert h.converged and h.width <= max(tol, 1e-13 * float(scale))


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
    # the corner verdict flips there: never proven below the exact threshold
    sys = corner_family(CornerFamilyParams(n, ell, 1))
    if r < 1:
        assert denseness_check(sys, r, 1e-3, 3).verdict == "proven"
    if 0 < below < 1:
        assert denseness_check(sys, below, 1e-3, 3).verdict != "proven"


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
