"""The tree walks checked against the frontier loops they replaced.

newhouse_thickness reads the gap tree's splits, and Alice's finite-tree
check and natural_measure read BallSystem.meeting's levels. The references
below are the earlier implementations: Newhouse with an interval list
searched for each gap's host, and the two level checks with a frontier of
their own. Each output must equal the reference's bit for bit, and each
error its message.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path
from typing import Dict, List, Tuple

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from thickgap.ballsystem import (
    ROOT,
    CornerFamilyParams,
    GapList1D,
    NormKind,
    corner_family,
    explicit_tree,
    from_gaps_1d,
    newhouse_thickness,
    parse_set_spec,
    similarity_image,
    translate,
)
from thickgap.dimension import _child_weights, natural_measure
from thickgap.game import AliceStrategy
from thickgap.geometry import Ball, balls_disjoint, trusted_ball

SPECS = Path(__file__).resolve().parents[1] / "bench" / "specs"


# -- references ------------------------------------------------------------------


def _ref_newhouse(gl):
    """inf over listed gaps, taken in decreasing length (leftmost on ties), of
    min(left bridge, right bridge) / gap length."""
    intervals = [gl.hull]
    tau = math.inf
    for lo, hi in sorted(gl.gaps, key=lambda g: (-(g[1] - g[0]), g[0])):
        host = None
        for iv in intervals:
            if iv[0] <= lo and hi <= iv[1]:
                host = iv
                break
        if host is None:
            raise ValueError(f"gap ({lo}, {hi}) is not inside a remaining interval")
        left = lo - host[0]
        right = host[1] - hi
        tau = min(tau, min(left, right) / (hi - lo))
        intervals.remove(host)
        intervals.extend([(host[0], lo), (hi, host[1])])
    return tau


def _ref_finite_levels(sys):
    """Alice's finite-tree check over a frontier of Balls: (sup, n0, level radii)."""
    n0 = 1
    radii: List[float] = []
    frontier: List[Tuple[Tuple[int, ...], Ball]] = [(ROOT, sys.root)]
    depth = 0
    while frontier:
        level = [ball for _, ball in frontier]
        top = max(ball.radius for ball in level)
        if top - min(ball.radius for ball in level) > 1e-12 * top:
            raise ValueError(f"level {depth} has unequal radii")
        if depth > 0 and not all(
            balls_disjoint(a, b, sys.norm) for a, b in itertools.combinations(level, 2)
        ):
            raise ValueError(f"level {depth} balls overlap")
        radii.append(top)
        grown = []
        for word, _ in frontier:
            centers, kid_radii = sys.child_block(word)
            n0 = max(n0, len(kid_radii))
            kids = map(trusted_ball, centers, kid_radii)
            grown.extend((word + (j,), kid) for j, kid in enumerate(kids))
        frontier = grown
        depth += 1
    ratios = [b / a for a, b in zip(radii, radii[1:])]
    sup = max(ratios) if ratios else 0.0
    if not sup < 1:
        raise ValueError("levels do not shrink")
    return sup, n0, radii


def _ref_natural_masses(sys, depth):
    """natural_measure's masses over a frontier of (word, radius)."""
    masses: Dict[Tuple[int, ...], float] = {ROOT: 1.0}
    frontier = [(ROOT, sys.root.radius)]
    for _ in range(depth):
        nxt = []
        for word, radius in frontier:
            radii = sys.child_block(word)[1]
            if not radii:
                continue
            weights = _child_weights(radius, radii, sys.dimension)
            parent_mass = masses[word]
            for j, r in enumerate(radii):
                child = word + (j,)
                masses[child] = parent_mass * weights[j]
                nxt.append((child, r))
        frontier = nxt
    return masses


def _outcome(f, *args):
    """f(*args)'s value, or the message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _alice_levels(sys):
    """AliceStrategy's finite-tree check in any norm: the constructor also
    wants a packing count, which only Linf has."""
    alice = object.__new__(AliceStrategy)
    alice.sys, alice.n0 = sys, 1
    sup = alice._verify_finite_levels()
    return sup, alice.n0, alice._level_radii


# -- drawn trees ------------------------------------------------------------------


def _cantor_gaps(depth, hull=(0.0, 1.0)):
    gaps, pieces = [], [hull]
    for _ in range(depth):
        grown = []
        for a, b in pieces:
            third = (b - a) / 3.0
            gaps.append((a + third, b - third))
            grown.extend(((a, a + third), (b - third, b)))
        pieces = grown
    return tuple(gaps)


@st.composite
def _grid_gap_lists(draw):
    """Gaps between points of an n-step grid over the hull: touching gaps,
    gaps at a hull end, equal widths and the empty list all come often."""
    n = draw(st.integers(1, 24))
    a = draw(st.sampled_from([0.0, -1.0, 0.1, 1e6 / 3]))
    step = draw(st.sampled_from([1.0, 0.1, 1 / 3, 2.0**-20]))
    cuts = sorted(draw(st.lists(st.integers(0, n), unique=True, max_size=n + 1)))
    keep = draw(st.lists(st.booleans(), min_size=len(cuts), max_size=len(cuts)))
    pairs = [(a + i * step, a + j * step) for (i, j), k in zip(zip(cuts, cuts[1:]), keep) if k]
    return GapList1D(hull=(a, a + n * step), gaps=tuple(pairs))


@st.composite
def _float_gap_lists(draw):
    """Gaps between drawn floats of [0, 1], touching where two ends repeat."""
    ends = draw(st.lists(st.floats(0.0, 1.0), max_size=40).map(sorted))
    pairs = [(lo, hi) for lo, hi in zip(ends[::2], ends[1::2]) if lo < hi]
    return GapList1D(hull=(0.0, 1.0), gaps=tuple(pairs))


_GAP_LISTS = st.one_of(_grid_gap_lists(), _float_gap_lists())

_TOUCHING = GapList1D(hull=(0.0, 1.0), gaps=((0.2, 0.4), (0.4, 0.5)))
_AT_HULL_END = GapList1D(hull=(0.0, 1.0), gaps=((0.0, 0.25), (0.5, 0.6)))
_EQUAL_WIDTHS = GapList1D(hull=(0.0, 1.0), gaps=((0.25, 0.375), (0.625, 0.75)))


@st.composite
def _explicit_tables(draw):
    """Explicit trees down to depth 3 in d = 1 or 2, every norm: each level
    mostly shares one radius, which may match the level above, and children
    sit on a coarse grid around their parent, so that unequal radii,
    overlapping balls and levels that do not shrink all come up."""
    d = draw(st.integers(1, 2))
    norm = draw(st.sampled_from(list(NormKind)))
    root = Ball(tuple(draw(st.sampled_from([0.0, 0.5, -1.0])) for _ in range(d)), 1.0)
    entries = [(ROOT, root)]
    level = [(ROOT, root)]
    for _ in range(draw(st.integers(0, 3))):
        radius = level[0][1].radius * draw(st.sampled_from([0.25, 0.3, 0.5, 1.0]))
        grown = []
        for word, ball in level:
            for j in range(draw(st.integers(0, 3))):
                r = draw(st.sampled_from([radius] * 4 + [radius * 0.75]))
                offset = [ball.radius * draw(st.sampled_from([-0.75, -0.5, 0.0, 0.5, 0.75]))]
                offset += [ball.radius * draw(st.sampled_from([-0.5, 0.5])) for _ in range(d - 1)]
                kid = Ball(tuple(c + o for c, o in zip(ball.center, offset)), r)
                grown.append((word + (j,), kid))
        entries.extend(grown)
        level = grown
        if not level:
            break
    return explicit_tree(norm, d, entries)


@st.composite
def _finite_trees(draw):
    """Gap-list trees, explicit tables, and either under a drawn translate."""
    if draw(st.booleans()):
        gl = draw(st.one_of(_GAP_LISTS, st.just(GapList1D((0.0, 1.0), _cantor_gaps(4)))))
        try:
            sys = from_gaps_1d(gl)
        except ValueError:  # a degenerate piece: touching gaps or one at a hull end
            assume(False)
    else:
        sys = draw(_explicit_tables())
    if draw(st.booleans()):
        shift = draw(st.sampled_from([0.1, 1 / 3, -2.5, 1e5 / 7]))
        sys = translate(sys, (shift,) * sys.dimension)
    return sys


# -- Newhouse thickness -------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(gl=_GAP_LISTS)
@example(gl=_TOUCHING)
@example(gl=_AT_HULL_END)
@example(gl=_EQUAL_WIDTHS)
@example(gl=GapList1D(hull=(0.0, 1.0), gaps=()))
def test_newhouse_thickness_matches_the_interval_list(gl):
    assert repr(newhouse_thickness(gl)) == repr(_ref_newhouse(gl))


@pytest.mark.parametrize("gl", [_TOUCHING, _AT_HULL_END], ids=["touching", "hull-end"])
def test_newhouse_thickness_is_zero_where_the_tree_is_refused(gl):
    # the split walk checks nothing: only the tree builder refuses a
    # degenerate piece
    assert newhouse_thickness(gl) == 0.0
    with pytest.raises(ValueError, match="degenerate piece"):
        from_gaps_1d(gl)


def test_newhouse_thickness_of_a_deep_cantor_list_matches():
    gl = GapList1D(hull=(0.0, 1.0), gaps=_cantor_gaps(10))
    assert repr(newhouse_thickness(gl)) == repr(_ref_newhouse(gl))


# -- Alice's finite-tree check ----------------------------------------------------------


def _check_alice(sys):
    want = _outcome(_ref_finite_levels, sys)
    assert _outcome(_alice_levels, sys) == want
    if sys.norm is NormKind.LINF:
        # the public constructor raises the same message or keeps the same levels
        if isinstance(want[0], str):
            with pytest.raises(ValueError) as exc:
                AliceStrategy(sys, 3.0, 0.999)
            assert str(exc.value) == want[1]
        else:
            alice = AliceStrategy(sys, 3.0, max(want[0], 0.5))
            assert (alice.n0, alice._level_radii) == want[1:]


@settings(max_examples=300, deadline=None)
@given(sys=_finite_trees())
def test_alice_finite_levels_match_the_frontier_loop(sys):
    _check_alice(sys)


def _table(norm, d, rows):
    return explicit_tree(norm, d, [(w, Ball(c, r)) for w, c, r in rows])


# each tree with the error its check raises, None where it passes
_ALICE_CASES = {
    "cantor": (lambda: from_gaps_1d(GapList1D((0.0, 1.0), _cantor_gaps(6))), None),
    "cantor-translate": (
        lambda: translate(
            from_gaps_1d(GapList1D((-1.0, 1.0), _cantor_gaps(5, (-1.0, 1.0)))), (0.1,)
        ),
        None,
    ),
    "unequal-radii": (
        lambda: from_gaps_1d(GapList1D((0.0, 1.0), ((0.2, 0.3),))),
        "level 1 has unequal radii",
    ),
    "overlap-l2": (
        lambda: _table(
            NormKind.L2,
            2,
            [((), (0.0, 0.0), 1.0), ((0,), (-0.3, -0.3), 0.3), ((1,), (0.12, 0.12), 0.3)],
        ),
        "level 1 balls overlap",
    ),
    "touching-linf": (
        lambda: _table(
            NormKind.LINF, 1, [((), (0.0,), 1.0), ((0,), (-0.5,), 0.5), ((1,), (0.5,), 0.5)]
        ),
        "level 1 balls overlap",
    ),
    "no-shrink": (
        lambda: _table(NormKind.L1, 2, [((), (0.0, 0.0), 1.0), ((0,), (0.0, 0.0), 1.0)]),
        "levels do not shrink",
    ),
}


@pytest.mark.parametrize("name", sorted(_ALICE_CASES))
def test_alice_finite_levels_reach_each_outcome(name):
    make, error = _ALICE_CASES[name]
    got = _outcome(_alice_levels, make())
    if error:
        assert got == ("ValueError", error)
    else:
        assert got[0] < 1  # the levels' sup ratio
    _check_alice(make())


# -- natural measure ---------------------------------------------------------------


def _spec(name):
    return lambda: parse_set_spec(json.loads((SPECS / name).read_text()))


_MEASURED = {
    "corner4-d2": (lambda: corner_family(CornerFamilyParams(n=4, ell=0.4, d=2)), 4),
    "corner10-translate": (
        lambda: translate(corner_family(CornerFamilyParams(n=10, ell=0.19, d=2)), (0.05, 0.02)),
        2,
    ),
    "mid3-similarity": (
        lambda: similarity_image(corner_family(CornerFamilyParams(2, 2 / 3, 1)), 0.7, (1.5,)),
        8,
    ),
    "ifs-linf": (_spec("ifs_linf.json"), 5),
    "ifs-l2": (_spec("ifs_l2.json"), 5),
    "cantor-9": (lambda: from_gaps_1d(GapList1D((0.0, 1.0), _cantor_gaps(9))), 10),
    "uneven-gaps": (
        lambda: from_gaps_1d(GapList1D((0.0, 1.0), ((0.1, 0.15), (0.3, 0.5), (0.7, 0.71)))),
        4,
    ),
}


@pytest.mark.parametrize("name", sorted(_MEASURED))
def test_natural_measure_matches_the_frontier_loop(name):
    make, depth = _MEASURED[name]
    got = natural_measure(make(), depth).masses
    # the same words in the same order, and the same floats
    assert repr(list(got.items())) == repr(list(_ref_natural_masses(make(), depth).items()))


@settings(max_examples=150, deadline=None)
@given(sys=_finite_trees(), depth=st.integers(0, 4))
def test_natural_measure_of_finite_trees_matches_the_frontier_loop(sys, depth):
    got = _outcome(lambda: list(natural_measure(sys, depth).masses.items()))
    want = _outcome(lambda: list(_ref_natural_masses(sys, depth).items()))
    assert repr(got) == repr(want)
