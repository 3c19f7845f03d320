"""Axis products: systems whose set is a product of 1-D attractors.

Distances, Linf holes, Linf denseness and the closed-form h0 of such
systems are checked against an exact `fractions.Fraction` reference, which
reads every float parameter and query point as the rational it is (dyadic
ones keep the float arithmetic exact, others make it round), and against
the branch-and-bound on the same systems.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thickgap.ballsystem import (
    _UNSET,
    CornerFamilyParams,
    HomotheticIFS,
    NormKind,
    _corner_axis_offsets,
    corner_family,
    from_ifs,
    parse_set_spec,
    perturbed_image,
    similarity_image,
    translate,
)
from thickgap import metrics
from thickgap.metrics import (
    _axis1d_dist,
    _axis_hole,
    _axis_pad,
    _dense_grid,
    _dist_bnb,
    _exact_hole,
    _hole_bnb,
    _oracle,
    denseness_check,
    dist_to_set,
    hole_radius,
    thickness,
)
from thickgap.selfsimilar import _h0_bnb, homothetic_h0_upper

SPECS = Path(__file__).resolve().parents[1] / "bench" / "specs"


def _spec(name):
    return json.loads((SPECS / name).read_text())


# -- exact reference -------------------------------------------------------------


class _Ref1D:
    """The attractor of y -> lam * y + t over rational maps with disjoint
    child hulls, in exact arithmetic."""

    def __init__(self, maps):
        maps = [(Fraction(lam), Fraction(t)) for lam, t in maps]
        fixed = [t / (1 - lam) for lam, t in maps]
        self.a, self.b = min(fixed), max(fixed)
        self.hulls = sorted((t + lam * self.a, t + lam * self.b, t, lam) for lam, t in maps)
        self.half_gap = max(
            [(s - e) / 2 for (_, e, _, _), (s, _, _, _) in zip(self.hulls, self.hulls[1:])],
            default=Fraction(0),
        )

    def dist(self, y):
        """(lo, hi) around dist(y, K): exact, unless y stays in hulls until
        their width is below 2**-80, which then bounds it."""
        y = Fraction(y)
        scale = Fraction(1)
        while True:
            inside = [h for h in self.hulls if h[0] <= y <= h[1]]
            if not inside:
                # every child hull end lies in K and nothing of K lies between
                d = min(abs(y - end) for h in self.hulls for end in h[:2])
                return scale * d, scale * d
            if scale * (self.b - self.a) < Fraction(1, 2**80):
                return Fraction(0), scale * (self.b - self.a)
            _, _, t, lam = inside[0]
            y = (y - t) / lam
            scale *= lam

    def hole(self, p, q):
        """(lo, hi) around the max over [p, q] of dist(y, K): the ends, then
        every copy of K that meets [p, q] and could still beat the best
        value, down to copies whose gaps are below 2**-80."""
        p, q = Fraction(p), Fraction(q)
        ends = [self.dist(p), self.dist(q)]
        best = max(end[0] for end in ends)
        top = max(end[1] for end in ends)
        cells = [(Fraction(0), Fraction(1))]  # the copy offset + scale * K
        while cells:
            offset, scale = cells.pop()
            if scale * self.half_gap <= best:
                continue
            if scale * self.half_gap < Fraction(1, 2**80):
                top = max(top, scale * self.half_gap)
                continue
            for (_, e, _, _), (s, _, _, _) in zip(self.hulls, self.hulls[1:]):
                lo, hi = offset + scale * e, offset + scale * s
                if lo < q and hi > p:
                    mid = min(max((lo + hi) / 2, p), q)
                    best = max(best, min(mid - lo, hi - mid))
            for s, e, t, lam in self.hulls:
                if offset + scale * s <= q and offset + scale * e >= p:
                    cells.append((offset + scale * t, scale * lam))
        return best, max(best, top)


def _dyadic(num, bits):
    return num / 2**bits


def _number(draw, lo, hi, bits):
    """A float in [lo, hi]: a dyadic one of the given bits, or any."""
    if draw(st.booleans()):
        return _dyadic(draw(st.integers(math.ceil(lo * 2**bits), math.floor(hi * 2**bits))), bits)
    return draw(st.floats(lo, hi))


@st.composite
def _maps_1d(draw):
    """1-D maps, child hulls disjoint."""
    m = draw(st.integers(1, 4))
    maps = []
    for _ in range(m):
        lam = _number(draw, 1 / 128, 0.25, 7)
        t = _number(draw, -0.75, 0.75, 8)
        maps.append((lam, (t,)))
    ifs = HomotheticIFS(tuple(maps))
    assume(ifs.axis_factors() is not None)
    return ifs


@st.composite
def _product_2d(draw):
    """2-D product maps: one ratio, a grid of translations."""
    lam = _number(draw, 1 / 128, 0.25, 7)
    axes = [
        sorted({_number(draw, -0.375, 0.375, 8) for _ in range(draw(st.integers(1, 3)))})
        for _ in range(2)
    ]
    maps = tuple((lam, (u, v)) for u in axes[0] for v in axes[1])
    ifs = HomotheticIFS(maps)
    assume(ifs.axis_factors() is not None)
    return ifs


def _refs(ifs):
    # each axis value once: a 2-D grid repeats it once per value of the other axis
    return [_Ref1D(sorted({(lam, t[i]) for lam, t in ifs.maps})) for i in range(ifs.dimension)]


def _image(draw, f, y, levels):
    """y under a few of the factor's maps, innermost first."""
    for _ in range(draw(st.integers(0, levels))):
        j = draw(st.integers(0, len(f.ts) - 1))
        y = f.ts[j] + f.lams[j] * y
    return y


def _points(draw, ifs):
    """Query points: anywhere near the root; images of the hull ends of one
    axis under a few maps (points of the set, up to rounding); or images
    of a gap's midpoint (as far from the set as that copy allows)."""
    out = []
    for i in range(ifs.dimension):
        f = ifs.axis_factors()[i]
        kind = draw(st.sampled_from(["any", "end", "gap"]))
        if kind == "gap" and len(f.ts) > 1:
            k = draw(st.integers(0, len(f.ts) - 2))
            out.append(_image(draw, f, 0.5 * (f.ends[k] + f.starts[k + 1]), 6))
        elif kind == "end":
            out.append(_image(draw, f, draw(st.sampled_from([f.a, f.b])), 3))
        else:
            out.append(_number(draw, -1.5, 1.5, 10))
    return tuple(out)


def _contains(iv, lo, hi):
    """The float enclosure iv holds every value in the exact [lo, hi]."""
    return Fraction(iv[0]) <= lo and hi <= Fraction(iv[1])


# -- 1-D descent and distances ----------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(ifs=_maps_1d(), data=st.data())
def test_1d_descent_and_distance_enclose_the_exact_value(ifs, data):
    (factor,) = ifs.axis_factors()
    (ref,) = _refs(ifs)
    y = _points(data.draw, ifs)[0]
    lo, hi = ref.dist(y)
    tol = data.draw(st.sampled_from([1e-3, 1e-9, 1e-15]))
    raw = _axis1d_dist(factor, y, tol)
    # unpadded, the descent is within its rounding pad of the exact value
    pad = Fraction(_axis_pad(factor, y, y))
    assert Fraction(raw[0]) - pad <= lo and hi <= Fraction(raw[1]) + pad
    assert raw[1] - raw[0] <= tol
    iv = dist_to_set((y,), from_ifs(ifs, NormKind.LINF), tol)
    assert _contains((iv.lo, iv.hi), lo, hi)
    assert iv.converged == (not iv.hi - iv.lo > tol) and iv.width <= tol + 1e-13


@settings(max_examples=120, deadline=None)
@given(ifs=_product_2d(), norm=st.sampled_from(list(NormKind)), data=st.data())
def test_2d_product_distance_encloses_the_exact_value(ifs, norm, data):
    sys = from_ifs(ifs, norm)
    assert _oracle(sys).mode == "product"
    x = _points(data.draw, ifs)
    parts = [ref.dist(xi) for ref, xi in zip(_refs(ifs), x)]
    iv = dist_to_set(x, sys, 1e-9)
    if norm is NormKind.LINF:
        lo, hi = max(p[0] for p in parts), max(p[1] for p in parts)
    elif norm is NormKind.L1:
        lo, hi = sum(p[0] for p in parts), sum(p[1] for p in parts)
    else:
        # compare squares: the exact L2 distance is a square root
        lo, hi = sum(p[0] ** 2 for p in parts), sum(p[1] ** 2 for p in parts)
        assert Fraction(iv.lo) ** 2 <= lo and hi <= Fraction(iv.hi) ** 2
        return
    assert _contains((iv.lo, iv.hi), lo, hi)


@settings(max_examples=80, deadline=None)
@given(ifs=_product_2d(), data=st.data())
def test_similarity_image_distance_encloses_the_exact_value(ifs, data):
    scale = _number(data.draw, 1 / 16, 4.0, 4)
    shift = tuple(_number(data.draw, -2.0, 2.0, 5) for _ in range(2))
    sys = similarity_image(translate(from_ifs(ifs, NormKind.LINF), shift), scale, shift)
    # x -> scale * (x + shift) + shift
    w = tuple(Fraction(scale) * Fraction(v) + Fraction(v) for v in shift)
    x = tuple(
        float(Fraction(scale) * Fraction(xi) + wi)
        for xi, wi in zip(_points(data.draw, ifs), w)
    )
    parts = [
        ref.dist((Fraction(xi) - wi) / Fraction(scale)) for ref, xi, wi in zip(_refs(ifs), x, w)
    ]
    lo = Fraction(scale) * max(p[0] for p in parts)
    hi = Fraction(scale) * max(p[1] for p in parts)
    iv = dist_to_set(x, sys, 1e-9)
    assert _contains((iv.lo, iv.hi), lo, hi)


# -- Linf holes ---------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(ifs=_maps_1d(), data=st.data())
def test_1d_hole_on_any_interval_encloses_the_exact_value(ifs, data):
    (factor,) = ifs.axis_factors()
    (ref,) = _refs(ifs)
    if data.draw(st.booleans()):
        p, q = sorted(_number(data.draw, -1.5, 1.5, 10) for _ in range(2))
    else:
        # one copy's hull: its widest gap is the answer
        p, q = factor.a, factor.b
        for _ in range(data.draw(st.integers(1, 3))):
            j = data.draw(st.integers(0, len(factor.ts) - 1))
            p, q = factor.ts[j] + factor.lams[j] * p, factor.ts[j] + factor.lams[j] * q
    want = ref.hole(p, q)
    tol = data.draw(st.sampled_from([1e-2, 1e-6, 1e-12]))
    lo, hi = _axis_hole(factor, p, q, tol)
    assert _contains((lo, hi), *want)
    assert hi - lo <= tol + 2 * _axis_pad(factor, max(abs(p), abs(q)), 0.0)


@settings(max_examples=120, deadline=None)
@given(
    ifs=st.one_of(_maps_1d(), _product_2d()),
    word=st.lists(st.integers(0, 8), max_size=3),
)
def test_linf_hole_encloses_the_exact_value(ifs, word):
    sys = from_ifs(ifs, NormKind.LINF)
    word = tuple(j % len(ifs.maps) for j in word)
    ball = sys.ball(word)
    R = Fraction(ball.radius)
    parts = [ref.hole(Fraction(c) - R, Fraction(c) + R) for ref, c in zip(_refs(ifs), ball.center)]
    want = (max(part[0] for part in parts), max(part[1] for part in parts))
    h = _exact_hole(sys, word, 1e-12)
    assert _contains((h.lo, h.hi), *want)
    assert h.width <= 1e-12
    h = hole_radius(word, sys, 1e-6)
    assert _contains((h.lo, h.hi), *want) and h.width <= 1e-6


def test_ifs_linf_root_hole_is_13_over_35():
    sys = parse_set_spec(_spec("ifs_linf.json"))
    h = hole_radius((), sys, 1e-12)
    assert _contains((h.lo, h.hi), Fraction(13, 35), Fraction(13, 35))
    assert h.width < 1e-13
    rep = thickness(sys, 5, 1e-9)
    assert rep.method == "homothetic-promotion" and rep.converged
    # min child radius 0.3 over the hole 13/35
    assert _contains((rep.overall.lo, rep.overall.hi), Fraction(21, 26), Fraction(21, 26))


# -- against the branch-and-bound ---------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    ifs=_product_2d(),
    norm=st.sampled_from(list(NormKind)),
    image=st.sampled_from(["none", "similarity"]),
    data=st.data(),
)
def test_product_enclosures_meet_the_branch_and_bound(ifs, norm, image, data):
    sys = from_ifs(ifs, norm)
    if image == "similarity":
        scale = data.draw(st.floats(0.3, 3.0))
        shift = tuple(data.draw(st.floats(-0.5, 0.5)) for _ in range(2))
        sys = similarity_image(sys, scale, shift)
    assert _oracle(sys).mode == "product"
    c, R = sys.root.center, sys.root.radius
    x = tuple(ci + R * data.draw(st.floats(-1.3, 1.3)) for ci in c)
    fast = dist_to_set(x, sys, 1e-9)
    slow = _dist_bnb(sys, x, 1e-4 * R)
    assert fast.lo <= slow.hi and slow.lo <= fast.hi
    if norm is NormKind.LINF:
        h = hole_radius((), sys, 1e-9)
        hb = _hole_bnb(sys, (), 1e-3 * R)
        assert h.lo <= hb.hi and hb.lo <= h.hi


def test_hole_search_on_the_l2_product_board_converges_at_1e_13(monkeypatch):
    # the per-axis pad is a few ulps: a fixed 1e-12 pad would keep every
    # box of the hole search apart by more than 1e-13, and it would never stop
    sys = parse_set_spec(_spec("ifs_l2.json"))
    assert _oracle(sys).mode == "product"
    # the L2 hole of a product is not a per-axis one: it is searched
    assert _exact_hole(sys, (), 1e-9) is None
    monkeypatch.setattr(metrics, "NODE_BUDGET", 2_000)
    for word in [(), (0,), (3, 1), (1, 3, 0, 2, 1)]:
        h = _hole_bnb(sys, word, 1e-13)
        assert h.converged and h.width <= 1e-13, word


# -- what qualifies -----------------------------------------------------------------


def test_capability_is_detected_lazily_and_once(monkeypatch):
    # parse_set_spec leaves the detection to the first query
    sys = parse_set_spec(_spec("ifs_linf.json"))
    assert sys._axis_factors is _UNSET
    calls = []
    make = sys._make_axis_factors
    monkeypatch.setattr(sys, "_make_axis_factors", lambda: calls.append(1) or make())
    first = sys.axis_factors()
    assert sys.axis_factors() is first and len(calls) == 1
    assert [f.ts for f in first] == [(-0.65, 0.65)] * 2


def test_similarity_chain_composes_into_the_factors():
    base = parse_set_spec(_spec("ifs_linf.json"))
    image = similarity_image(translate(base, (0.25, -0.5)), 2.0, (1.0, 0.0))
    factors = image.axis_factors()
    assert [(f.offset, f.scale, f.chain) for f in factors] == [(1.5, 2.0, 2), (-1.0, 2.0, 2)]
    assert _oracle(image).mode == "product"


def test_images_read_the_core_factors(monkeypatch):
    base = parse_set_spec(_spec("ifs_linf.json"))
    want = similarity_image(translate(base, (0.25, -0.5)), 2.0, (1.0, 0.0)).axis_factors()
    calls = []
    real = HomotheticIFS.axis_factors
    monkeypatch.setattr(
        HomotheticIFS, "axis_factors", lambda self: calls.append(self) or real(self)
    )
    base = parse_set_spec(_spec("ifs_linf.json"))
    for _ in range(3):
        image = similarity_image(translate(base, (0.25, -0.5)), 2.0, (1.0, 0.0))
        assert image.axis_factors() == want
    # the core computes its factors once; every image composes onto them
    assert len(calls) == 1


@pytest.mark.parametrize(
    "maps",
    [
        # overlapping child hulls in 1-D
        ((0.5, (-0.25,)), (0.5, (0.25,))),
        # the same map twice
        ((0.25, (0.5,)), (0.25, (0.5,))),
        # two maps on a diagonal: not the product of their coordinates
        ((0.3, (-0.45, -0.45)), (0.3, (0.45, 0.45))),
        # a product grid with unequal ratios
        ((0.3, (-0.5, 0.0)), (0.2, (0.5, 0.0))),
        # a grid whose axis-0 hulls touch
        tuple((0.5, (u, v)) for u in (-0.5, 0.5) for v in (-0.5, 0.5)),
    ],
)
def test_systems_the_capability_declines(maps):
    ifs = HomotheticIFS(maps)
    assert ifs.axis_factors() is None
    assert from_ifs(ifs, NormKind.LINF).axis_factors() is None


def test_perturbed_images_decline_and_corner_families_factor():
    base = parse_set_spec(_spec("ifs_linf.json"))
    bumped = perturbed_image(base, lambda p: (p[0] + 1e-3 * math.sin(p[1]), p[1]), eps=0.01)
    assert bumped.axis_factors() is None and _oracle(bumped).mode == "bnb"
    # a corner family is d copies of its n-map axis, hull [-1, 1]
    corner = corner_family(CornerFamilyParams(n=3, ell=0.5, d=2))
    factors = corner.axis_factors()
    assert _oracle(corner).mode == "product"
    assert [(f.ts, f.lams, f.a, f.b) for f in factors] == [
        (_corner_axis_offsets(3, 0.5), (0.25,) * 3, -1.0, 1.0)
    ] * 2
    # and its similarity images compose their chain, as the IFS ones do
    image = similarity_image(translate(corner, (0.25, -0.5)), 2.0, (1.0, 0.0))
    assert [(f.offset, f.scale, f.chain) for f in image.axis_factors()] == [
        (1.5, 2.0, 2),
        (-1.0, 2.0, 2),
    ]


# -- denseness and h0 ---------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(ifs=_product_2d(), r=st.floats(0.05, 0.95))
def test_product_denseness_agrees_with_the_grid(ifs, r):
    sys = from_ifs(ifs, NormKind.LINF)
    exact = denseness_check(sys, r, 1e-2, 2)
    assert exact.method == "box-exact"
    grid = _dense_grid(from_ifs(ifs, NormKind.LINF), r, 1e-2, 2)
    if grid.verdict != "unknown":
        assert exact.verdict == grid.verdict
    if exact.verdict == "refuted":
        w = exact.witness
        assert w.radius == r * sys.root.radius
        assert all(abs(c) + w.radius <= 1 for c in w.center)
        centers, radii = sys.child_block(())
        assert not any(
            max(abs(a - b) for a, b in zip(w.center, c)) + rk <= w.radius
            for c, rk in zip(centers, radii)
        )


def test_ifs_linf_denseness_is_refuted_exactly():
    sys = parse_set_spec(_spec("ifs_linf.json"))
    rep = denseness_check(sys, 0.5, 1e-3, 3)
    assert (rep.verdict, rep.method) == ("refuted", "box-exact")
    assert rep.witness.center == (0.0, 0.0) and rep.witness.radius == 0.5


def _maps_of(name):
    spec = _spec(name)
    return HomotheticIFS(tuple((m["lambda"], tuple(m["t"])) for m in spec["generator"]["maps"]))


@pytest.mark.parametrize("name,exact", [("ifs_l2.json", Fraction(5, 14)), ("ifs_linf.json", Fraction(1, 2))])
def test_h0_closed_form_on_the_bench_maps(name, exact):
    h0 = homothetic_h0_upper(_maps_of(name), 1e-9, norm=NormKind.LINF)
    assert _contains((h0.lo, h0.hi), exact, exact)
    assert h0.converged and h0.width < 1e-13
    slow = _h0_bnb(_maps_of(name), 1e-3, NormKind.LINF)
    assert slow.lo <= h0.hi and h0.lo <= slow.hi


@settings(max_examples=60, deadline=None)
@given(ifs=_product_2d())
def test_h0_closed_form_meets_the_branch_and_bound(ifs):
    closed = homothetic_h0_upper(ifs, 1e-9, norm=NormKind.LINF)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "NODE_BUDGET", 50_000)
        slow = _h0_bnb(ifs, 1e-2, NormKind.LINF)
    assert closed.lo <= slow.hi and slow.lo <= closed.hi
