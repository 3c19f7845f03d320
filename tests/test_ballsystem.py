"""Tree construction, generators, transforms, and the wire format."""

from __future__ import annotations

import itertools
import math
import sys as pysys
import threading
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thickgap.geometry import balls_disjoint, norm_distance
from thickgap import dimension
from thickgap.metrics import dist_to_set, thickness
from thickgap.ballsystem import (
    Ball,
    CornerFamilyParams,
    GapList1D,
    HomotheticIFS,
    NormKind,
    SpecError,
    corner_family,
    explicit_tree,
    from_gaps_1d,
    from_ifs,
    newhouse_thickness,
    parse_set_spec,
    perturbed_image,
    similarity_image,
    translate,
    word_str,
)
from thickgap.ballsystem import _checked_block, _corner_axis_offsets, _corner_block


@settings(max_examples=300, deadline=None)
@given(
    norm=st.sampled_from(list(NormKind)),
    lam=st.floats(0.01, 0.99),
    t=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3).filter(
        lambda v: max(map(abs, v)) > 1e-3
    ),
    stretch=st.floats(1 - 4e-12, 1 + 4e-12),
)
def test_from_ifs_reach_check_matches_the_distance_form(norm, lam, t, stretch):
    # put the map within a few ulps of the check's 1e-12 slack
    size = norm_distance(t, (0.0,) * len(t), norm)
    t = tuple(x / size * (1 - lam) * stretch for x in t)
    reach = norm_distance(t, (0.0,) * len(t), norm) + lam
    try:
        from_ifs(HomotheticIFS(((lam, t),)), norm)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == (reach <= 1 + 1e-12)


def test_corner_axis_centers_n4():
    sys = corner_family(CornerFamilyParams(n=4, ell=0.4, d=1))
    kids = sys.children(())
    centers = [b.center[0] for b in kids]
    expected = [-0.8, -0.8 + 0.4 + 2 / 15, 0.8 - 0.4 - 2 / 15, 0.8]
    assert centers == pytest.approx(expected, abs=1e-15)
    assert all(b.radius == pytest.approx(0.2) for b in kids)


def test_corner_2d_child_count_and_digit_order():
    sys = corner_family(CornerFamilyParams(n=4, ell=0.4, d=2))
    kids = sys.children(())
    assert len(kids) == 16
    # child index k has axis-0 digit k % 4 and axis-1 digit k // 4
    assert kids[0].center == pytest.approx((-0.8, -0.8))
    assert kids[1].center == pytest.approx((-0.8 + 0.4 + 2 / 15, -0.8))
    assert kids[4].center == pytest.approx((-0.8, -0.8 + 0.4 + 2 / 15))
    assert kids[15].center == pytest.approx((0.8, 0.8))


def test_corner_gap_value():
    p = CornerFamilyParams(n=4, ell=0.4, d=1)
    assert p.g == pytest.approx(2 / 15, abs=1e-16)
    p2 = CornerFamilyParams(n=2, ell=2 / 3, d=1)
    assert p2.g == pytest.approx(2 / 3)


def test_corner_rejects_bad_params():
    with pytest.raises(ValueError):
        CornerFamilyParams(n=1, ell=0.4, d=1)
    with pytest.raises(ValueError):
        CornerFamilyParams(n=4, ell=0.5, d=1)  # 0.5 == 2/n
    with pytest.raises(ValueError):
        CornerFamilyParams(n=4, ell=0.0, d=1)


def test_corner_validate_depth3():
    sys = corner_family(CornerFamilyParams(n=4, ell=0.4, d=2))
    sys.validate(3)


def test_ball_by_word_matches_children():
    sys = corner_family(CornerFamilyParams(n=3, ell=0.3, d=2))
    w = (2, 5, 1)
    b = sys.ball(w)
    assert b == sys.children((2, 5))[1]
    assert b.radius == pytest.approx(0.15**3)
    with pytest.raises(KeyError):
        sys.ball((99,))


def test_walk_counts_nodes():
    sys = corner_family(CornerFamilyParams(n=2, ell=0.5, d=2))
    words = [w for w, _ in sys.walk(2)]
    assert len(words) == 1 + 4 + 16
    assert sorted(set(map(len, words))) == [0, 1, 2]


def test_ifs_nodes_compose_maps():
    ifs = HomotheticIFS(((0.5, (-0.5,)), (0.5, (0.5,))))
    sys = from_ifs(ifs, NormKind.LINF)
    kids = sys.children(())
    assert kids[0] == Ball((-0.5,), 0.5)
    assert kids[1] == Ball((0.5,), 0.5)
    # word (0, 1): f0(f1(B)) = f0(B[0.5, 0.5]) = B[-0.25, 0.25]
    assert sys.ball((0, 1)) == Ball((-0.25,), 0.25)
    sys.validate(4)


def test_ifs_rejects_escaping_map():
    with pytest.raises(ValueError):
        from_ifs(HomotheticIFS(((0.6, (0.5,)),)), NormKind.LINF)
    with pytest.raises(ValueError):
        HomotheticIFS(((1.0, (0.0,)),))


def test_middle_thirds_ifs():
    ifs = HomotheticIFS(((1 / 3, (-2 / 3,)), (1 / 3, (2 / 3,))))
    sys = from_ifs(ifs, NormKind.LINF)
    kids = sys.children(())
    assert kids[0].center[0] == pytest.approx(-2 / 3)
    assert kids[0].radius == pytest.approx(1 / 3)
    assert sys.child_ratios() == (1 / 3, 1 / 3)
    assert sys.is_homothetic()


def _split_at(sys, word):
    """The gap a gap-tree node splits at, read from its two children's
    ends; None at a leaf."""
    kids = sys.children(word)
    if not kids:
        return None
    left, right = kids
    return left.center[0] + left.radius, right.center[0] - right.radius


def test_gap_tree_structure():
    gl = GapList1D(hull=(0.0, 1.0), gaps=((1 / 3, 2 / 3),))
    sys = from_gaps_1d(gl)
    assert sys.is_finite
    assert sys.root == Ball((0.5,), 0.5)
    kids = sys.children(())
    assert kids[0].center[0] == pytest.approx(1 / 6)
    assert kids[0].radius == pytest.approx(1 / 6)
    assert kids[1].center[0] == pytest.approx(5 / 6)
    assert kids[1].radius == pytest.approx(1 / 6)
    assert sys.children((0,)) == ()
    # leaf endpoints keep the exact input floats
    assert sys.leaf_intervals() == ((0.0, 1 / 3), (2 / 3, 1.0))
    assert _split_at(sys, ()) == pytest.approx((1 / 3, 2 / 3))
    assert _split_at(sys, (0,)) is None


def test_gap_tree_split_order_longest_first():
    gl = GapList1D(hull=(0.0, 1.0), gaps=((0.1, 0.2), (0.4, 0.7)))
    sys = from_gaps_1d(gl)
    assert _split_at(sys, ()) == pytest.approx((0.4, 0.7))
    assert _split_at(sys, (0,)) == pytest.approx((0.1, 0.2))
    assert sys.leaf_intervals() == ((0.0, 0.1), (0.2, 0.4), (0.7, 1.0))


def test_gap_tree_tie_breaks_leftmost():
    gl = GapList1D(hull=(0.0, 1.0), gaps=((0.6, 0.7), (0.2, 0.3)))
    assert _split_at(from_gaps_1d(gl), ()) == pytest.approx((0.2, 0.3))


def test_gap_list_rejects_bad_input():
    with pytest.raises(ValueError):
        GapList1D(hull=(0.0, 1.0), gaps=((0.5, 0.5),))
    with pytest.raises(ValueError):
        GapList1D(hull=(0.0, 1.0), gaps=((0.9, 1.1),))
    with pytest.raises(ValueError):
        GapList1D(hull=(0.0, 1.0), gaps=((0.1, 0.4), (0.3, 0.6)))
    # gap touching the hull edge leaves a zero-length piece
    with pytest.raises(ValueError):
        from_gaps_1d(GapList1D(hull=(0.0, 1.0), gaps=((0.0, 0.3),)))


def test_newhouse_thickness_values():
    assert newhouse_thickness(
        GapList1D(hull=(0.0, 1.0), gaps=((1 / 3, 2 / 3),))
    ) == pytest.approx(1.0)
    assert newhouse_thickness(
        GapList1D(hull=(0.0, 1.0), gaps=((0.4, 0.6),))
    ) == pytest.approx(2.0)
    assert newhouse_thickness(
        GapList1D(hull=(0.0, 1.0), gaps=((0.45, 0.55), (0.15, 0.25)))
    ) == pytest.approx(1.5)


def test_newhouse_empty_gap_list_is_infinite():
    assert newhouse_thickness(GapList1D(hull=(0.0, 1.0), gaps=())) == math.inf


def test_translate_moves_every_node():
    base = corner_family(CornerFamilyParams(n=4, ell=0.4, d=2))
    moved = translate(base, (0.05, 0.02))
    assert moved.root.center == pytest.approx((0.05, 0.02))
    assert moved.root.radius == 1.0
    b = moved.ball((3, 7))
    b0 = base.ball((3, 7))
    assert b.center == pytest.approx(tuple(c + v for c, v in zip(b0.center, (0.05, 0.02))))
    assert b.radius == b0.radius
    moved.validate(2)


def test_similarity_image_scales_and_shifts():
    base = corner_family(CornerFamilyParams(n=4, ell=0.4, d=1))
    img = similarity_image(base, 0.5, (2.0,))
    assert img.root == Ball((2.0,), 0.5)
    assert img.ball((0,)).center[0] == pytest.approx(2.0 + 0.5 * -0.8)
    assert img.ball((0,)).radius == pytest.approx(0.1)
    with pytest.raises(ValueError):
        similarity_image(base, 0.0, (0.0,))


def test_corner_params_and_factors_through_transform_chain():
    base = corner_family(CornerFamilyParams(n=4, ell=0.4, d=2))
    chained = translate(similarity_image(base, 0.5, (1.0, 0.0)), (0.25, -0.5))
    assert chained.corner_grid.params == CornerFamilyParams(4, 0.4, 2)
    factors = chained.axis_factors()
    assert [f.offset for f in factors] == pytest.approx([1.25, -0.5])
    assert all(f.scale == pytest.approx(0.5) for f in factors)
    # no corner family under an IFS or past a perturbed image
    assert from_ifs(HomotheticIFS(_IFS_MAPS), NormKind.LINF).corner_grid is None
    assert perturbed_image(base, _warp, eps=0.05).corner_grid is None
    # reconstructed child center along axis 0: offset + scale * (-0.8)
    assert chained.ball((0,)).center[0] == pytest.approx(1.25 + 0.5 * -0.8)


def test_perturbed_image_inflates_radii():
    base = corner_family(CornerFamilyParams(n=4, ell=0.4, d=2))

    def f(p):
        x, y = p
        return (x + 0.01 * math.sin(y), y)

    img = perturbed_image(base, f, eps=0.02)
    assert img.root.radius == pytest.approx(1.02)
    b = img.ball((5,))
    b0 = base.ball((5,))
    assert b.radius == pytest.approx(b0.radius * 1.02)
    assert b.center[0] == pytest.approx(b0.center[0] + 0.01 * math.sin(b0.center[1]))
    assert not img.is_homothetic()
    assert img.child_ratios() == (0.2,) * 16
    with pytest.raises(ValueError):
        perturbed_image(base, f, eps=0.0)


def test_explicit_tree_roundtrip():
    entries = [
        ((), Ball((0.0,), 1.0)),
        ((0,), Ball((-0.5,), 0.25)),
        ((1,), Ball((0.5,), 0.25)),
        ((0, 0), Ball((-0.5,), 0.1)),
    ]
    sys = explicit_tree(NormKind.LINF, 1, entries)
    assert sys.is_finite
    assert len(sys.children(())) == 2
    assert sys.children((1,)) == ()
    assert sys.ball((0, 0)).radius == 0.1
    with pytest.raises(ValueError):
        explicit_tree(NormKind.LINF, 1, [((0,), Ball((0.0,), 1.0))])
    with pytest.raises(ValueError):
        explicit_tree(
            NormKind.LINF,
            1,
            [((), Ball((0.0,), 1.0)), ((1,), Ball((0.5,), 0.25))],
        )


def test_siblings_disjoint_probe():
    assert corner_family(CornerFamilyParams(n=4, ell=0.4, d=2)).siblings_disjoint_at_root()
    overlapping = from_ifs(
        HomotheticIFS(((0.6, (-0.4,)), (0.6, (0.4,)))), NormKind.LINF
    )
    assert not overlapping.siblings_disjoint_at_root()


def test_word_string_roundtrip():
    assert word_str(()) == ""
    assert word_str((3, 0, 12)) == "3.0.12"


def test_parse_set_spec_corner():
    sys = parse_set_spec(
        {"norm": "linf", "dimension": 2, "generator": {"type": "corner", "n": 4, "ell": 0.4}}
    )
    assert sys.dimension == 2
    assert len(sys.children(())) == 16


def test_parse_set_spec_ifs_and_gaps():
    sys = parse_set_spec(
        {
            "norm": "l2",
            "dimension": 2,
            "generator": {
                "type": "ifs",
                "maps": [
                    {"lambda": 0.4, "t": [-0.5, 0.0]},
                    {"lambda": 0.4, "t": [0.5, 0.0]},
                ],
            },
        }
    )
    assert sys.norm is NormKind.L2
    gaps = parse_set_spec(
        {
            "norm": "linf",
            "dimension": 1,
            "generator": {"type": "gaps1d", "hull": [0, 1], "gaps": [[0.4, 0.6]]},
        }
    )
    assert gaps.is_finite


@pytest.mark.parametrize(
    "bad",
    [
        {"norm": "linf", "dimension": 2},
        {"norm": "l3", "dimension": 1, "generator": {"type": "corner", "n": 4, "ell": 0.4}},
        {"norm": "l2", "dimension": 2, "generator": {"type": "corner", "n": 4, "ell": 0.4}},
        {"norm": "linf", "dimension": 0, "generator": {"type": "corner", "n": 4, "ell": 0.4}},
        {"norm": "linf", "dimension": 1, "generator": {"type": "mystery"}},
        {"norm": "linf", "dimension": 2, "generator": {"type": "gaps1d", "hull": [0, 1], "gaps": []}},
        {"norm": "linf", "dimension": 1, "generator": {"type": "corner", "n": 4}},
        [1, 2, 3],
    ],
)
def test_parse_set_spec_rejects(bad):
    with pytest.raises(SpecError):
        parse_set_spec(bad)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 6),
    ell_frac=st.floats(0.05, 0.95),
    d=st.integers(1, 2),
    depth=st.integers(1, 2),
)
def test_corner_children_always_nest(n, ell_frac, d, depth):
    ell = ell_frac * 2 / n
    try:
        params = CornerFamilyParams(n=n, ell=ell, d=d)
    except ValueError:
        return
    corner_family(params).validate(depth)


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.floats(0.01, 0.99), st.floats(0.001, 0.2)), min_size=1, max_size=5
    )
)
def test_gap_tree_leaves_partition_hull(data):
    gaps = []
    for pos, length in data:
        lo, hi = pos, min(pos + length, 0.999)
        if hi <= lo:
            continue
        if all(hi <= a or b <= lo for a, b in gaps):
            gaps.append((lo, hi))
    if not gaps:
        return
    gl = GapList1D(hull=(0.0, 1.0), gaps=tuple(gaps))
    try:
        sys = from_gaps_1d(gl)
    except ValueError:
        return  # adjacent gaps can leave a zero-length piece
    leaves = sys.leaf_intervals()
    total = sum(b - a for a, b in leaves)
    gap_total = sum(b - a for a, b in gaps)
    assert total == pytest.approx(1.0 - gap_total, abs=1e-12)
    for (a1, b1), (a2, b2) in zip(leaves, leaves[1:]):
        assert b1 < a2


# -- single nodes against full expansion ----------------------------------------


def _nested_gaps_system():
    return from_gaps_1d(
        GapList1D(hull=(-1.0, 1.0), gaps=((-0.2, 0.3), (-0.9, -0.6), (0.5, 0.55), (-0.5, -0.45)))
    )


def _explicit_system():
    return explicit_tree(
        NormKind.L2,
        2,
        [
            ((), Ball((0.0, 0.0), 1.0)),
            ((0,), Ball((-0.5, 0.0), 0.4)),
            ((1,), Ball((0.5, 0.1), 0.3)),
            ((0, 0), Ball((-0.6, 0.1), 0.1)),
            ((0, 1), Ball((-0.3, -0.1), 0.1)),
            ((1, 0), Ball((0.5, 0.1), 0.2)),
        ],
    )


def _warp(p):
    return tuple(x + 0.01 * math.sin(3 * x + k) for k, x in enumerate(p))


def _corner():
    return corner_family(CornerFamilyParams(n=3, ell=0.3, d=2))


_IFS_MAPS = ((0.3, (-0.5, -0.4)), (0.3, (0.5, -0.4)), (0.25, (0.0, 0.6)))

GENERATORS = {
    "corner": _corner,
    "ifs_l2": lambda: from_ifs(HomotheticIFS(_IFS_MAPS), NormKind.L2),
    "ifs_linf": lambda: from_ifs(HomotheticIFS(_IFS_MAPS), NormKind.LINF),
    "gaps1d": _nested_gaps_system,
    "explicit": _explicit_system,
    "translate": lambda: translate(_corner(), (0.05, -0.02)),
    "similarity": lambda: similarity_image(
        from_ifs(HomotheticIFS(_IFS_MAPS), NormKind.L2), 0.7, (0.1, 0.2)
    ),
    "chain": lambda: translate(similarity_image(_corner(), 0.5, (0.3, -0.1)), (1e-3, 0.2)),
    "perturbed": lambda: perturbed_image(_corner(), _warp, eps=0.05),
    "translate_gaps1d": lambda: translate(_nested_gaps_system(), (0.25,)),
    "perturbed_gaps1d": lambda: perturbed_image(_nested_gaps_system(), _warp, eps=0.05),
}


def _bits(b):
    return repr((b.center, b.radius))


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_single_ball_matches_children(name):
    make = GENERATORS[name]
    full = make()
    words = [w for w, _ in full.walk(3) if w]
    assert words
    for word in words:
        single = make()
        b = single.ball(word)
        assert _bits(b) == _bits(full.children(word[:-1])[word[-1]]), word
        assert _bits(single.ball(word)) == _bits(b)
    # one past the last child of a node is no node
    for word in words[:5]:
        past = word[:-1] + (len(full.children(word[:-1])),)
        with pytest.raises(KeyError):
            make().ball(past)
    with pytest.raises(KeyError):
        make().ball((-1,))


def test_single_ball_builds_only_its_path():
    base = _corner()
    moved = translate(base, (0.05, -0.02))
    word = (4, 0, 8, 2)
    moved.ball(word)
    # the path is walked, not stored: neither system gains a child block
    assert not base._blocks and not moved._blocks
    # a second image of the same base walks the base's path too
    again = translate(base, (0.1, 0.1))
    again.ball(word[:3])
    assert not base._blocks and not again._blocks


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_ball_stores_nothing(name):
    make = GENERATORS[name]
    for word, _ in make().walk(3):
        fresh = make()
        systems = [s for s in (fresh, fresh.base) if s is not None]
        # a finite tree holds its blocks from construction
        before = [dict(s._blocks) for s in systems]
        fresh.ball(word)
        assert [s._blocks for s in systems] == before, word


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_path_matches_ball_and_builds_none(name):
    make = GENERATORS[name]
    full = make()
    words = [w for w, _ in full.walk(3)]
    for word in words:
        single = make()
        # a finite tree holds its blocks from construction
        before = dict(single._blocks)
        path = list(single.path(word))
        assert [repr(node) for node in path] == [
            _bits(full.ball(word[:i])) for i in range(len(word) + 1)
        ], word
        assert single._blocks == before and (single.is_finite or not before)
    for word in [w for w in words if w][:5]:
        past = word[:-1] + (len(full.children(word[:-1])),)
        with pytest.raises(KeyError):
            list(make().path(past))


@pytest.mark.parametrize("name", ["corner", "translate", "chain"])
def test_corner_grid_matches_child_blocks(name):
    make = GENERATORS[name]
    full = make()
    sys = make()
    grid = sys.corner_grid
    n = grid.params.n
    for word in [(), (4,), (4, 0), (4, 0, 8)]:
        *_, core = (sys.core or sys).path(word)
        assert repr(grid.node(*core)) == _bits(full.ball(word))
        centers, radii = full.child_block(word)
        rows, core_radius, radius = grid.axes(*core)
        assert repr(radius) == repr(radii[0])
        for j, c in enumerate(centers):
            assert repr(tuple([row[j // n**i % n] for i, row in enumerate(rows)])) == repr(c)
        for point in [(0.123, -0.456), full.ball(word).center, centers[5]]:
            devs, core_radius, radius = grid.deviations(*core, point)
            assert repr(radius) == repr(radii[0])
            for j, (c, r) in enumerate(zip(centers, radii)):
                kid = grid.params.child(*core, j)
                assert repr(kid[1]) == repr(core_radius)
                assert repr(grid.node(*kid)) == repr((c, r))
                # child j's deviation on axis i is that of its axis-i digit
                got = [row[j // n**i % n] for i, row in enumerate(devs)]
                assert repr(got) == repr([abs(x - p) for x, p in zip(c, point)])
    assert GENERATORS["perturbed"]().corner_grid is None
    assert GENERATORS["ifs_linf"]().corner_grid is None


def _block_bits(block):
    return repr(block)


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_child_block_matches_children_and_ball(name):
    make = GENERATORS[name]
    words = [w for w, _ in make().walk(2)]
    top_down = make()  # each block's parent read from the block above it
    for word in words:
        block = make().child_block(word)
        assert _block_bits(top_down.child_block(word)) == _block_bits(block), word
        centers, radii = block
        kids = make().children(word)
        assert [_bits(k) for k in kids] == [repr((c, r)) for c, r in zip(centers, radii)], word
        single = [make().ball(word + (j,)) for j in range(len(radii))]
        assert [_bits(b) for b in single] == [_bits(k) for k in kids], word
        assert make().child_count(word) == len(radii)


def test_child_block_is_memoized_and_shared_by_images():
    base = _corner()
    moved = translate(base, (0.05, -0.02))
    block = moved.child_block((4,))
    assert moved.child_block((4,)) is block
    assert list(base._blocks) == [(4,)]
    # the image stores its own block of the node and nothing else
    assert list(moved._blocks) == [(4,)]
    assert translate(base, (0.1, 0.1)).child_block((4,))[1] == base._blocks[(4,)][1]
    assert len(base._blocks) == 1
    # children() wraps the block's own floats
    kids = moved.children((4,))
    assert all(k.center is c for k, c in zip(kids, block[0]))


def test_child_block_past_the_tree_raises():
    sys = from_ifs(HomotheticIFS(_IFS_MAPS), NormKind.L2)
    with pytest.raises(KeyError):
        sys.child_block((3,))
    sys.child_block(())
    with pytest.raises(KeyError):
        sys.child_block((-1,))
    assert _nested_gaps_system().child_block((7, 7)) == ((), ())


def test_memo_fills_from_threads_agree():
    system = from_ifs(HomotheticIFS(_IFS_MAPS), NormKind.L2)
    words = [w for w, _ in from_ifs(HomotheticIFS(_IFS_MAPS), NormKind.L2).walk(4)]
    results = {}

    def work(k):
        results[k] = [(system.child_block(w), system.children(w)) for w in words]

    interval = pysys.getswitchinterval()
    pysys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        pysys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers) and len(results) == 4
    # every reader gets the one block stored first, and Balls of its own floats
    for k in range(1, 4):
        assert all(a[0] is b[0] for a, b in zip(results[k], results[0]))
    for k in range(4):
        for (centers, radii), kids in results[k]:
            assert all(b.center is c and b.radius == r for b, c, r in zip(kids, centers, radii))
    fresh = from_ifs(HomotheticIFS(_IFS_MAPS), NormKind.L2)
    assert [repr(fresh.child_block(w)) for w in words] == [repr(r[0]) for r in results[0]]


def test_underflowing_radius_raises_at_its_depth():
    ifs = HomotheticIFS(((1e-170, (-0.5,)), (1e-170, (0.5,))))
    sys = from_ifs(ifs, NormKind.LINF)
    # depth-1 radii are 1e-170; depth-2 ones, 1e-340, underflow to 0
    assert sys.child_block(())[1] == (1e-170, 1e-170)
    assert sys.ball((1,)).radius == 1e-170
    for build in (sys.child_block, sys.children):
        with pytest.raises(ValueError, match="ball radius must be positive and finite"):
            build((1,))
    with pytest.raises(ValueError, match="ball radius must be positive and finite"):
        from_ifs(ifs, NormKind.LINF).ball((1, 0))
    with pytest.raises(ValueError, match="ball radius must be positive and finite"):
        similarity_image(sys, 2.0, (0.0,)).child_block((0,))
    # a 1-D system with disjoint child hulls is an axis product: its distance
    # is a descent that builds no block, and the set is still well defined.
    # 0.5 is the center of child 1's hull, so it lies midway across a level-2
    # gap, 1e-170 * 0.5 from the set, inside the rounding pad
    product = dist_to_set((0.5,), from_ifs(ifs, NormKind.LINF), 1e-200)
    assert product.lo == 0.0 and 5e-171 < product.hi < 1e-14
    assert product.converged == (not product.hi - product.lo > 1e-200)
    # unequal ratios in 2-D are no product, so the search builds the blocks
    unequal = HomotheticIFS(((1e-170, (-0.5, 0.0)), (2e-170, (0.5, 0.0))))
    assert from_ifs(unequal, NormKind.LINF).axis_factors() is None
    with pytest.raises(ValueError, match="ball radius must be positive and finite"):
        dist_to_set((0.5, 0.0), from_ifs(unequal, NormKind.LINF), 1e-200)


def test_child_block_non_finite_image_raises():
    # the root maps to B[(1e308, 0), 1e308]; children right of its center overflow
    sys = similarity_image(_corner(), 1e308, (1e308, 0.0))
    with pytest.raises(ValueError, match="point coordinates must be finite"):
        sys.child_block(())
    # the sibling check reads the same floats per axis, and raises alike
    with pytest.raises(ValueError, match="point coordinates must be finite"):
        sys.siblings_disjoint_at_root()


# -- sibling disjointness on corner grids ------------------------------------------


def _pairwise_disjoint(sys):
    kids = sys.children(())
    return all(
        balls_disjoint(kids[i], kids[j], sys.norm)
        for i in range(len(kids))
        for j in range(i + 1, len(kids))
    )


def _corner_images(params):
    base = corner_family(params)
    shift = tuple(0.1 * (k + 1) for k in range(params.d))
    return [
        base,
        translate(corner_family(params), shift),
        similarity_image(corner_family(params), 0.3, shift),
        translate(similarity_image(corner_family(params), 1.7, shift), shift[::-1]),
    ]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(2, 12), d=st.integers(1, 3))
def test_corner_sibling_check_matches_pairwise(data, n, d):
    top = math.nextafter(2 / n, 0)
    ell = data.draw(
        st.one_of(
            st.just(top),
            st.floats(top * (1 - 1e-12), top),
            st.floats(1e-3, top),
        )
    )
    if n**d > 400:
        d = 2  # keeps the m^2 reference loop fast; 3-D cases follow below
    for sys in _corner_images(CornerFamilyParams(n=n, ell=ell, d=d)):
        assert sys.siblings_disjoint_at_root() == _pairwise_disjoint(sys)


@pytest.mark.parametrize(
    "n, ell, disjoint",
    [(12, math.nextafter(2 / 12, 0), False), (6, 0.2, True), (9, math.nextafter(2 / 9, 0), False)],
)
def test_corner_sibling_check_matches_pairwise_3d(n, ell, disjoint):
    for sys in _corner_images(CornerFamilyParams(n=n, ell=ell, d=3)):
        assert sys.siblings_disjoint_at_root() == _pairwise_disjoint(sys) == disjoint


# -- root sibling separation on every axis product ----------------------------------


def _least_gap(sys):
    """The least gap between two root children, pair by pair."""
    centers, radii = sys.child_block(())
    return min(
        (
            norm_distance(centers[i], centers[j], sys.norm) - radii[i] - radii[j]
            for i in range(len(radii))
            for j in range(i + 1, len(radii))
        ),
        default=math.inf,
    )


@st.composite
def _axis_products(draw):
    """A corner family, or a product IFS in any norm, in dimension 1 to 3,
    possibly under a similarity image or a translate. The IFS's
    neighbouring translations on an axis lie twice the child radius apart,
    one ulp either side of that, or farther or nearer."""
    d = draw(st.integers(1, 3))
    if draw(st.booleans()):
        n = draw(st.integers(2, 6))
        top = math.nextafter(2 / n, 0)
        ell = draw(st.one_of(st.just(top), st.floats(top * (1 - 1e-12), top), st.floats(1e-3, top)))
        sys = corner_family(CornerFamilyParams(n=n, ell=ell, d=d))
    else:
        lam = draw(st.sampled_from([1 / 16, 1 / 32, 3 / 64]) | st.floats(0.005, 1 / 16))
        axes = []
        for _ in range(d):
            values = [-0.25]
            for _ in range(draw(st.integers(0, 3))):
                factor = draw(st.sampled_from([1.0, 1.0, 1.5]) | st.floats(0.5, 1.5))
                t = values[-1] + 2 * lam * factor
                step = draw(st.sampled_from([-1, 0, 1]))
                values.append(math.nextafter(t, step * math.inf) if step else t)
            axes.append(values)
        maps = tuple((lam, t) for t in itertools.product(*axes))
        sys = from_ifs(HomotheticIFS(maps), draw(st.sampled_from(list(NormKind))))
    shift = tuple(draw(st.floats(-0.7, 0.7)) for _ in range(d))
    wrap = draw(st.integers(0, 3))
    if wrap & 1:
        sys = similarity_image(sys, draw(st.floats(0.1, 3.0)), shift)
    if wrap & 2:
        sys = translate(sys, shift[::-1])
    return sys


_TOUCHING = HomotheticIFS(((0.125, (-0.25,)), (0.125, (0.0,)), (0.125, (0.25,))))


@settings(max_examples=300, deadline=None)
@example(sys=from_ifs(_TOUCHING, NormKind.L2), pick=0).via("touching children")
# the squared gap is subnormal, so the L2 distance is not the coordinate gap
@example(sys=similarity_image(from_ifs(_TOUCHING, NormKind.L2), 1e-155, (0.0,)), pick=0).via(
    "an L2 distance rounded through a subnormal square"
)
@given(sys=_axis_products(), pick=st.integers(0, 3))
def test_sibling_pair_reader_matches_pairwise(sys, pick):
    assert sys.axis_factors() is not None
    assert sys.siblings_disjoint_at_root() == _pairwise_disjoint(sys)
    # the separation constant at the least gap and one ulp either side
    R, gap = sys.root.radius, _least_gap(sys)
    edge = (gap + 1e-12 * R) / R
    c = [edge, math.nextafter(edge, 0), math.nextafter(edge, 1), 0.01][pick]
    if not 0 < c < math.inf:
        c = 0.01
    with mock.patch.object(dimension, "_mass_in_ball", return_value=0.0):
        if not gap < c * R - 1e-12 * R:  # the pairwise separation reference
            dimension.measure_ball_bound_check(sys, c, 0.5, 1)
        else:
            with pytest.raises(ValueError, match="separation hypothesis fails"):
                dimension.measure_ball_bound_check(sys, c, 0.5, 1)


def test_product_ifs_sibling_check_takes_no_pairwise_loop():
    # 6,400 children: a pairwise loop would visit 20 million pairs
    ts = _corner_axis_offsets(80, 0.0125)
    maps = tuple((0.00625, (u, v)) for u in ts for v in ts)
    sys = from_ifs(HomotheticIFS(maps), NormKind.LINF)
    start = time.perf_counter()
    report = thickness(sys, 2, 1e-3)
    assert time.perf_counter() - start < 2.0
    assert report.valid_all_depths


# -- gap trees against the recursive construction ------------------------------------


def _recursive_gap_tree(gl):
    """The depth-first construction from_gaps_1d makes, written recursively."""
    order = sorted(gl.gaps, key=lambda g: (-(g[1] - g[0]), g[0]))
    balls, children, leaf_ivs = {}, {}, []

    def build(word, a, b, inside):
        if not b > a:
            raise ValueError("degenerate piece")
        balls[word] = Ball(((a + b) / 2,), (b - a) / 2)
        if not inside:
            children[word] = ()
            leaf_ivs.append((a, b))
            return
        lo, hi = min(inside, key=lambda g: (-(g[1] - g[0]), g[0]))
        children[word] = (word + (0,), word + (1,))
        build(word + (0,), a, lo, [g for g in inside if g[1] <= lo])
        build(word + (1,), hi, b, [g for g in inside if g[0] >= hi])

    build((), gl.hull[0], gl.hull[1], order)
    return balls, children, tuple(sorted(leaf_ivs))


@settings(max_examples=80, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.floats(0.01, 0.99), st.floats(0.001, 0.2)), min_size=1, max_size=12
    )
)
# gaps of exactly equal length, where the split order rests on the sort's
# leftmost-first tie break at the root and again inside each piece
@example(data=[(0.75, 0.125), (0.25, 0.125), (0.5, 0.125)])
@example(data=[(0.8125, 0.0625), (0.25, 0.0625), (0.4375, 0.125), (0.625, 0.0625), (0.0625, 0.0625)])
def test_gap_tree_matches_recursive_construction(data):
    gaps = []
    for pos, length in data:
        lo, hi = pos, min(pos + length, 0.999)
        if hi > lo and all(hi <= a or b <= lo for a, b in gaps):
            gaps.append((lo, hi))
    gl = GapList1D(hull=(0.0, 1.0), gaps=tuple(gaps))
    try:
        expected = _recursive_gap_tree(gl)
    except ValueError:
        with pytest.raises(ValueError):
            from_gaps_1d(gl)
        return
    sys = from_gaps_1d(gl)
    balls, children, leaf_ivs = expected
    # the root and every node's block, its children's balls bit for bit, in
    # the same preorder
    assert _bits(sys.root) == _bits(balls[()])
    assert list(sys._blocks) == list(balls)
    for w, kids in children.items():
        want = tuple(balls[k].center for k in kids), tuple(balls[k].radius for k in kids)
        assert repr(sys._blocks[w]) == repr(want), w
    # the node table is the adjacency: word + (j,) for j below the child count
    assert {w: tuple(w + (j,) for j in range(sys.child_count(w))) for w in balls} == children
    assert sys.leaf_intervals() == leaf_ivs


# -- corner blocks built axis by axis -------------------------------------------------


def _per_child_block(sys, word):
    """The corner block as the per-child formula gives it, child by child."""
    gen = sys.generator
    parent = sys.ball(word)
    return _checked_block(
        [gen.child(parent.center, parent.radius, j) for j in range(gen.child_count)]
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(2, 12), d=st.integers(1, 3))
def test_corner_block_equals_the_per_child_formula(data, n, d):
    top = math.nextafter(2 / n, 0)
    ell = data.draw(
        st.one_of(st.just(top), st.floats(top * (1 - 1e-12), top), st.floats(1e-3, top))
    )
    if n**d > 400:
        d = 2
    sys = corner_family(CornerFamilyParams(n=n, ell=ell, d=d))
    word = ()
    for _ in range(data.draw(st.integers(0, 4))):
        word = word + (data.draw(st.integers(0, n**d - 1)),)
    assert repr(sys.child_block(word)) == repr(_per_child_block(sys, word))
    # read top-down: each parent taken from the block above it
    top_down = corner_family(CornerFamilyParams(n=n, ell=ell, d=d))
    for k in range(len(word) + 1):
        top_down.child_block(word[:k])
    assert repr(top_down.child_block(word)) == repr(sys.child_block(word))


@pytest.mark.parametrize("ell", [1e-100, 1e-160, 1e-200, 5e-324])
@pytest.mark.parametrize("n, d", [(2, 1), (3, 2), (5, 3)])
def test_corner_block_underflow_errors_equal_the_per_child_formula(n, d, ell):
    if ell / 2 == 0:
        # the unit root's first children would have radius 0: refused up front
        with pytest.raises(ValueError, match=r"ell = 5e-324 is too small"):
            CornerFamilyParams(n=n, ell=ell, d=d)
        return
    sys = corner_family(CornerFamilyParams(n=n, ell=ell, d=d))
    word = ()
    for depth in range(6):
        try:
            want = repr(_per_child_block(sys, word))
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                sys.child_block(word)
            assert str(got.value) == str(exc) == "ball radius must be positive and finite"
            break
        assert repr(sys.child_block(word)) == want
        word = word + (n**d - 1,)
    else:
        pytest.fail("the radius never underflowed")


@pytest.mark.parametrize(
    "axes, radius",
    [
        (((math.inf, 0.5), (0.0, 1.0)), 0.0),  # child 0's coordinate and the radius
        (((0.0, math.inf), (0.0, 1.0)), 0.0),  # the radius, at child 0
        (((0.0, 0.5), (0.0, math.nan)), 0.25),  # a later child's coordinate
        (((0.0, 0.5), (0.0, 1.0)), math.inf),
        (((0.0, 0.5), (0.0, 1.0)), -1.0),
    ],
)
def test_corner_block_errors_take_the_per_child_precedence(axes, radius):
    kids = []
    for j in range(4):
        kids.append(((axes[0][j % 2], axes[1][j // 2]), radius))
    with pytest.raises(ValueError) as want:
        _checked_block(kids)
    with pytest.raises(ValueError) as got:
        _corner_block(axes, radius)
    assert str(got.value) == str(want.value)
    good = ((0.0, 0.5), (0.0, 1.0))
    assert _corner_block(good, 0.25) == _checked_block(
        [((good[0][j % 2], good[1][j // 2]), 0.25) for j in range(4)]
    )
