"""Tests for the erase-and-shrink game: referee, strategies, bounds, patterns."""

import itertools
import json
import math
import random
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from pytest import approx

from thickgap.ballsystem import (
    ROOT,
    CornerFamilyParams,
    GapList1D,
    HomotheticIFS,
    corner_family,
    explicit_tree,
    from_gaps_1d,
    from_ifs,
    parse_set_spec,
    similarity_image,
    translate,
)
from thickgap.game import (
    AliceMove,
    AliceStrategy,
    BfsConstants,
    BobMove,
    Erasure,
    GameParams,
    PatternQuery,
    alice_h_sets,
    alice_strategy,
    best_intersection_dim_bound,
    corner_seeking_bob,
    hole_seeking_bob,
    intersection_dim_bound,
    kappa,
    map_transcript,
    pattern_capacity,
    pattern_lambda_limit,
    pattern_search_oracle,
    play,
    play_batch,
    proposition_params,
    random_legal_bob,
    referee,
    transcript_to_jsonl,
    winning_dim_bound,
)
from thickgap import game
from thickgap.game import (
    Verdict,
    _axis_upper_dist,
    _cover_upper_dist,
    _hole_enclosure,
)
from thickgap.geometry import (
    Ball,
    NormKind,
    Sphere,
    SphereUnion,
    distance_kernel,
    norm_distance,
    row_norms,
    vector_size,
)
from thickgap.metrics import _axis1d_dist, _corner1d_dist_batch, dist_to_set

# 2-D L1 IFS: four maps of ratio 0.3 pushed 0.65 along each half-axis
_IFS_L1 = HomotheticIFS(
    ((0.3, (0.65, 0.0)), (0.3, (-0.65, 0.0)), (0.3, (0.0, 0.65)), (0.3, (0.0, -0.65)))
)


def quarter_corner(d: int):
    return corner_family(CornerFamilyParams(4, 2.0 / 5.0, d))


def ten_corner(d: int):
    return corner_family(CornerFamilyParams(10, 0.19, d))


def single_child_tree():
    entries = [(ROOT, Ball((0.0,), 1.0)), ((0,), Ball((0.0,), 0.5))]
    return explicit_tree(NormKind.LINF, 1, entries)


def erase_move(rho: float, count: int = 1) -> AliceMove:
    spheres = tuple(Sphere((0.1 * (i + 1),), 0.05) for i in range(count))
    return AliceMove((Erasure(SphereUnion(spheres, count), rho),))


BASE = GameParams(alpha=1 / 3, beta=0.5, c=0.0, rho=0.3, M=5, dimension=1)


class TestParams:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            GameParams(0.0, 0.5, 0.0, 0.3, 5, 1)
        with pytest.raises(ValueError):
            GameParams(0.5, 1.0, 0.0, 0.3, 5, 1)
        for c in (-0.1, math.inf, math.nan):
            with pytest.raises(ValueError, match="c must be nonnegative and finite"):
                GameParams(0.5, 0.5, c, 0.3, 5, 1)
        with pytest.raises(ValueError):
            GameParams(0.5, 0.5, 0.0, 0.0, 5, 1)
        with pytest.raises(ValueError):
            GameParams(0.5, 0.5, 0.0, 0.3, 0, 1)
        with pytest.raises(ValueError):
            GameParams(0.5, 0.5, 0.0, 0.3, 5, 0)


class TestReferee:
    def test_single_erase_within_budget_is_legal(self):
        history = [BobMove(Ball((0.0,), 0.3))]
        verdict = referee(erase_move(0.1), history, BASE)
        assert verdict.legal, verdict.reason

    def test_flags_fast_shrink(self):
        history = [BobMove(Ball((0.0,), 0.5)), AliceMove()]
        verdict = referee(BobMove(Ball((0.0,), 0.2)), history, BASE)
        assert not verdict.legal
        assert "beta" in verdict.reason

    def test_flags_power_budget_overflow(self):
        params = GameParams(alpha=2.0, beta=0.5, c=0.5, rho=0.5, M=5, dimension=1)
        history = [BobMove(Ball((0.0,), 0.5))]
        move = AliceMove(
            (
                Erasure(SphereUnion((Sphere((0.1,), 0.05),), 1), 0.5),
                Erasure(SphereUnion((Sphere((0.3,), 0.05),), 1), 0.5),
            )
        )
        assert math.fsum(math.sqrt(0.5) for _ in range(2)) == approx(1.41421, abs=1e-5)
        verdict = referee(move, history, params)
        assert not verdict.legal

    def test_power_cap_past_the_float_range(self):
        # the budget 5e299 squared overflows: the sum is compared in units
        # of the budget, where 2 * 0.6**2 is legal and 2 * 0.8**2 is not
        params = GameParams(alpha=1e300, beta=0.5, c=2.0, rho=0.5, M=5, dimension=1)
        history = [BobMove(Ball((0.0,), 0.5))]

        def pair(rho):
            spheres = SphereUnion((Sphere((0.1,), 0.05),), 1)
            return AliceMove((Erasure(spheres, rho), Erasure(spheres, rho)))

        assert referee(pair(0.5), history, params).legal
        assert referee(pair(3e299), history, params).legal
        verdict = referee(pair(4e299), history, params)
        assert not verdict.legal and "over the cap" in verdict.reason
        assert not referee(pair(1.7e308), history, params).legal

    def test_flags_escape_from_previous_ball(self):
        history = [BobMove(Ball((0.0,), 0.5)), AliceMove()]
        verdict = referee(BobMove(Ball((0.4,), 0.3)), history, BASE)
        assert not verdict.legal
        assert "inside" in verdict.reason

    def test_flags_small_opening_radius(self):
        verdict = referee(BobMove(Ball((0.0,), 0.2)), [], BASE)
        assert not verdict.legal
        assert "rho" in verdict.reason

    def test_single_set_rule_when_c_is_zero(self):
        history = [BobMove(Ball((0.0,), 0.3))]
        move = AliceMove(
            (
                Erasure(SphereUnion((Sphere((0.1,), 0.05),), 1), 0.04),
                Erasure(SphereUnion((Sphere((0.3,), 0.05),), 1), 0.04),
            )
        )
        verdict = referee(move, history, BASE)
        assert not verdict.legal
        assert "single" in verdict.reason

    def test_flags_oversized_sphere_union(self):
        params = replace(BASE, M=2)
        history = [BobMove(Ball((0.0,), 0.3))]
        verdict = referee(erase_move(0.05, count=3), history, params)
        assert not verdict.legal

    def test_pass_is_legal_and_orphan_erase_is_not(self):
        assert referee(AliceMove(), [], BASE).legal
        verdict = referee(erase_move(0.01), [], BASE)
        assert not verdict.legal

    def test_flags_injected_violations(self):
        """A legal prefix plus one macroscopic violation is always caught."""
        params = GameParams(alpha=0.5, beta=0.4, c=0.0, rho=0.3, M=3, dimension=1)
        for seed in range(40):
            rng = random.Random(seed)
            r0 = 0.3 + 0.1 * rng.random()
            b0 = BobMove(Ball((0.2 * rng.random(),), r0))
            r1 = r0 * (0.5 + 0.3 * rng.random())
            shift = (r0 - r1) * (2 * rng.random() - 1) * 0.9
            b1 = BobMove(Ball((b0.ball.center[0] + shift, ), r1))
            a1 = erase_move(0.5 * r1 * 0.9)
            history = []
            for move in (b0, AliceMove(), b1, a1):
                assert referee(move, history, params).legal
                history.append(move)
            kind = rng.randrange(5)
            if kind == 0:
                bad = BobMove(Ball(b1.ball.center, 0.4 * r1 * 0.5))
            elif kind == 1:
                bad = BobMove(Ball((b1.ball.center[0] + r1,), 0.9 * r1))
            elif kind == 2:
                history.append(BobMove(Ball(b1.ball.center, 0.5 * r1)))
                bad = AliceMove(
                    (
                        Erasure(SphereUnion((Sphere((0.0,), 0.1),), 1), 0.01),
                        Erasure(SphereUnion((Sphere((0.5,), 0.1),), 1), 0.01),
                    )
                )
            elif kind == 3:
                history.append(BobMove(Ball(b1.ball.center, 0.5 * r1)))
                bad = erase_move(0.5 * (0.5 * r1) * 1.5)
            else:
                history.append(BobMove(Ball(b1.ball.center, 0.5 * r1)))
                bad = erase_move(0.01, count=4)
            assert not referee(bad, history, params).legal


class TestPacking:
    def test_values_by_norm_and_dimension(self):
        assert kappa(NormKind.LINF, 1) == 2
        assert kappa(NormKind.LINF, 2) == 4
        assert kappa(NormKind.LINF, 3) == 8
        with pytest.raises(ValueError):
            kappa(NormKind.L2, 2)

    def test_bound_holds_for_random_disjoint_squares(self):
        """No max-norm ball of matching radius meets five disjoint equal squares."""
        rng = random.Random(7)
        r = 0.25
        for _ in range(30):
            centers = []
            while len(centers) < 25:
                cand = (6 * rng.random() - 3, 6 * rng.random() - 3)
                if all(
                    max(abs(cand[0] - c[0]), abs(cand[1] - c[1])) > 2 * r
                    for c in centers
                ):
                    centers.append(cand)
            for _ in range(10):
                base = centers[rng.randrange(len(centers))]
                q = (
                    base[0] + 0.8 * (2 * rng.random() - 1),
                    base[1] + 0.8 * (2 * rng.random() - 1),
                )
                qr = r * rng.random()
                met = sum(
                    1
                    for c in centers
                    if max(abs(q[0] - c[0]), abs(q[1] - c[1])) <= r + qr
                )
                assert met <= 4


class TestHSets:
    def test_corner_root_family(self):
        union = alice_h_sets(quarter_corner(2), ROOT)
        radii = sorted(s.radius for s in union.spheres)
        assert len(radii) == 17
        assert radii[-1] == approx(1 - 1 / 30, abs=1e-8)
        for value in radii[:-1]:
            assert value == approx(0.2 + 1 / 15, abs=1e-8)

    def test_single_child_tree(self):
        union = alice_h_sets(single_child_tree(), ROOT)
        radii = sorted(s.radius for s in union.spheres)
        assert radii == approx([0.75, 1.0], abs=1e-8)

    def test_count_is_children_plus_one(self):
        sys = ten_corner(1)
        union = alice_h_sets(sys, (0,))
        assert len(union.spheres) == len(sys.children((0,))) + 1 == 11


class TestStrategy:
    def test_first_ball_in_band_triggers_one_erase(self):
        alice = alice_strategy(quarter_corner(1), 3.0, 0.2)
        move = alice.respond(Ball((0.0,), 0.5))
        assert len(move.erased) == 1
        erased = move.erased[0]
        assert erased.rho == approx(1 / 15, abs=1e-8)
        assert erased.rho <= 0.5 / 3.0 * (1 + 1e-9)
        assert 1 <= len(erased.spheres.spheres) <= alice.sphere_budget

    def test_band_is_answered_once(self):
        alice = alice_strategy(quarter_corner(1), 3.0, 0.2)
        assert alice.respond(Ball((0.0,), 0.5)).erased
        assert alice.respond(Ball((0.1,), 0.45)) == AliceMove()

    def test_touched_words_stay_within_packing_bound(self):
        alice = alice_strategy(quarter_corner(2), 3.0, 0.2)
        words = alice.words_meeting(Ball((0.0, 0.0), 0.2), 1)
        assert len(words) == 4 <= alice.kappa

    def test_rejects_uneven_trees_and_small_beta(self):
        entries = [
            (ROOT, Ball((0.0,), 1.0)),
            ((0,), Ball((-0.5,), 0.3)),
            ((1,), Ball((0.5,), 0.2)),
        ]
        uneven = explicit_tree(NormKind.LINF, 1, entries)
        with pytest.raises(ValueError, match="unequal"):
            alice_strategy(uneven, 2.0, 0.5)
        with pytest.raises(ValueError, match="beta"):
            alice_strategy(quarter_corner(1), 3.0, 0.1)

    def test_rejects_map_ratios_one_ulp_apart(self):
        # the level radii must be bit-equal: no tolerance absorbs one ulp
        lam = 0.3
        maps = ((lam, (-0.5,)), (math.nextafter(lam, 1.0), (0.5,)))
        with pytest.raises(ValueError, match="children radii differ within a level"):
            AliceStrategy(from_ifs(HomotheticIFS(maps), NormKind.LINF), 3.0, 0.5)
        even = from_ifs(HomotheticIFS(((lam, (-0.5,)), (lam, (0.5,)))), NormKind.LINF)
        assert AliceStrategy(even, 3.0, 0.5).n0 == 2

    def test_proposition_params_shape(self):
        params = proposition_params(quarter_corner(2), 3.0, 0.2)
        assert params.alpha == approx(1 / 3)
        assert params.c == 0.0
        assert params.rho == approx(0.2)
        assert params.M == 68
        assert params.norm is NormKind.LINF

    def test_l2_boards_get_no_params(self):
        # play builds its strategy with no packing count, so params for an
        # L2 board would set up a match that cannot start
        board = from_ifs(HomotheticIFS(((0.3, (-0.5, 0.0)), (0.3, (0.5, 0.0)))), NormKind.L2)
        with pytest.raises(ValueError, match="packing count"):
            proposition_params(board, 3.0, 0.5)
        with pytest.raises(ValueError, match="packing count"):
            alice_strategy(board, 3.0, 0.5)


class TestPlay:
    def test_corner_diver_lands_on_the_set(self):
        sys = quarter_corner(2)
        params = proposition_params(sys, 3.0, 0.2)
        result = play(sys, corner_seeking_bob(sys), params, max_turns=200, seed=3)
        assert result.classification == "in_target"
        assert result.outcome == approx((1.0, 1.0), abs=1e-6)

    def test_center_diver_is_erased(self):
        sys = quarter_corner(2)
        params = proposition_params(sys, 3.0, 0.2)
        result = play(sys, hole_seeking_bob(sys), params, max_turns=200, seed=3)
        assert result.classification == "erased"
        assert result.outcome == approx((0.0, 0.0), abs=1e-6)

    @pytest.mark.parametrize(
        "sys,tau,beta",
        [(quarter_corner(2), 3.0, 0.2), (ten_corner(1), 17.1, 0.1)],
        ids=["quarter-2d", "ten-1d"],
    )
    def test_random_play_is_always_classified(self, sys, tau, beta):
        params = proposition_params(sys, tau, beta)
        bob = random_legal_bob(sys)
        for result in play_batch(sys, bob, params, range(100)):
            assert result.classification in {"in_target", "erased"}

    def test_deterministic_and_parallel_batches_agree(self):
        sys = quarter_corner(2)
        params = proposition_params(sys, 3.0, 0.2)
        bob = random_legal_bob(sys)
        one = play(sys, bob, params, seed=11)
        two = play(sys, bob, params, seed=11)
        assert transcript_to_jsonl(one) == transcript_to_jsonl(two)
        assert one.classification == two.classification
        batch = play_batch(sys, bob, params, range(8))
        assert len(batch) == 8
        for seed, a in enumerate(batch):
            b = play(sys, bob, params, seed=seed)
            assert transcript_to_jsonl(a) == transcript_to_jsonl(b)
            assert a.classification == b.classification

    def test_every_recorded_move_passes_the_referee(self):
        sys = quarter_corner(2)
        params = proposition_params(sys, 3.0, 0.2)
        result = play(sys, random_legal_bob(sys), params, seed=5)
        history = []
        for move in result.moves:
            assert referee(move, history, params).legal
            history.append(move)


class TestTranscriptMaps:
    def record(self):
        sys = quarter_corner(2)
        params = proposition_params(sys, 3.0, 0.2)
        return params, play(sys, corner_seeking_bob(sys), params, seed=0)

    def test_similarity_image_stays_legal(self):
        _, result = self.record()
        mapped = map_transcript(result, 0.5, (0.3, -0.2))
        assert mapped.classification == result.classification
        assert mapped.params.rho == approx(0.1)
        history = []
        for move in mapped.moves:
            verdict = referee(move, history, mapped.params)
            assert verdict.legal, verdict.reason
            history.append(move)
        assert mapped.outcome == approx((0.8, 0.3), abs=1e-6)

    def test_moves_survive_looser_budgets(self):
        params, result = self.record()
        doubled = replace(params, alpha=2 * params.alpha)
        powered = replace(params, alpha=2 * params.alpha, c=0.4)
        for loose in (doubled, powered):
            history = []
            for move in result.moves:
                assert referee(move, history, loose).legal
                history.append(move)

    def test_budget_splits_across_combined_moves(self):
        weights = (0.1, 0.2, 0.3)
        c = 0.7
        alpha = math.fsum(w**c for w in weights) ** (1 / c)
        params = GameParams(alpha=alpha, beta=0.5, c=c, rho=1.0, M=2, dimension=1)
        history = [BobMove(Ball((0.0,), 1.0))]
        combined = AliceMove(
            tuple(
                Erasure(SphereUnion((Sphere((0.2 * i,), 0.05),), 1), w)
                for i, w in enumerate(weights)
            )
        )
        assert referee(combined, history, params).legal
        inflated = AliceMove(
            tuple(
                Erasure(SphereUnion((Sphere((0.2 * i,), 0.05),), 1), w * 1.01)
                for i, w in enumerate(weights)
            )
        )
        assert not referee(inflated, history, params).legal

    def test_jsonl_shape(self):
        _, result = self.record()
        text = transcript_to_jsonl(result)
        assert text.endswith("\n")
        lines = [json.loads(line) for line in text.strip().split("\n")]
        assert lines[0]["player"] == "bob"
        for i, line in enumerate(lines):
            assert line["player"] == ("bob" if i % 2 == 0 else "alice")
            assert line["turn"] == i // 2
        assert len(lines) == len(result.moves)


class TestDimensionBounds:
    def test_winning_bound_anchor(self):
        report = winning_dim_bound(0.1, 0.25, 0.5, 2)
        assert report.condition_met
        assert math.sqrt(0.1) == approx(0.31623, abs=1e-5)
        assert report.bound == approx(1.9278652479555518, rel=1e-12)
        assert abs(report.bound - 1.92787) < 1e-5

    def test_winning_bound_edges(self):
        loud = winning_dim_bound(5.0, 0.25, 0.5, 2)
        assert not loud.condition_met and loud.bound is None
        quiet = winning_dim_bound(1e-12, 0.25, 0.5, 2)
        assert quiet.bound == approx(2.0, abs=1e-10)
        with pytest.raises(ValueError):
            winning_dim_bound(0.1, 0.25, 1.0, 2)
        with pytest.raises(ValueError):
            winning_dim_bound(0.1, 0.3, 0.5, 2)
        with pytest.raises(ValueError):
            winning_dim_bound(0.0, 0.25, 0.5, 2)

    def test_intersection_bound_anchor(self):
        report = intersection_dim_bound([17.1, 17.1], 0.5, 1.0, 0.25, 0.2, 2)
        assert report.condition_met
        assert report.beta0 == 0.25
        total = math.fsum(17.1**-0.5 for _ in range(2))
        assert total == approx(0.4836508334066744, rel=1e-12)
        assert abs(total - 0.48368) < 1e-4
        assert total <= 0.5
        expected = 2 - total**2 / (0.25 * abs(math.log(0.25)))
        assert report.bound == approx(expected, rel=1e-12)
        assert abs(report.bound - 1.32498) < 1e-3

    def test_intersection_bound_edges(self):
        with pytest.raises(ValueError):
            intersection_dim_bound([17.1], 0.5, 1.0, 0.25, 0.3, 2)
        heavy = intersection_dim_bound([1.1, 1.1], 0.5, 1.0, 0.25, 0.2, 2)
        assert not heavy.condition_met and heavy.bound is None
        thick = intersection_dim_bound([1e12], 0.5, 1.0, 0.25, 0.2, 2)
        assert thick.bound == approx(2.0, abs=1e-5)

    def test_best_scan_beats_fixed_exponent(self):
        fixed = intersection_dim_bound([17.1, 17.1], 0.5, 1.0, 0.25, 0.2, 2)
        best = best_intersection_dim_bound([17.1, 17.1], 1.0, 0.25, 0.2, 2)
        assert best.condition_met
        assert best.bound >= fixed.bound
        empty = best_intersection_dim_bound([1.01], 1.0, 0.25, 0.2, 2)
        assert not empty.condition_met and empty.bound is None


class TestPatterns:
    def test_capacity_values(self):
        assert pattern_capacity(1000.0) == 39
        assert pattern_capacity(math.e * 1.0001) == 0
        assert pattern_capacity(1000.0, BfsConstants(K2=2.0)) == 19
        with pytest.raises(ValueError):
            pattern_capacity(math.e)

    def test_capacity_is_consistent_with_the_dimension_condition(self):
        tau = 1000.0
        count = pattern_capacity(tau)
        c0 = 1 - 1 / math.log(tau)
        report = intersection_dim_bound([tau] * count, c0, 1.0, 0.25, 0.25, 2)
        assert report.condition_met

    def test_scale_limit(self):
        assert pattern_lambda_limit([(0.0,), (1.0,), (2.0,)], 1.0) == approx(0.375)
        assert pattern_lambda_limit([(0.5, 0.5)], 1.0) == math.inf
        with pytest.raises(ValueError):
            PatternQuery(((0.0,), (2.0,)), 0.4, 1.0)
        query = PatternQuery(((0.0,), (2.0,)), 0.3, 1.0)
        assert query.lam == 0.3

    def test_witnesses_are_independently_verified(self):
        sys = ten_corner(1)
        pattern = [(0.0,), (1.0,), (2.0,)]
        found = pattern_search_oracle(sys, pattern, 0.05, 0.01, 1e-3)
        assert found
        for x in found[:: max(1, len(found) // 40)]:
            for b in pattern:
                shifted = (x[0] + 0.05 * b[0],)
                assert dist_to_set(shifted, sys, 1e-4).hi <= 1e-3 + 1e-4

    def test_single_point_scan_avoids_the_central_gap(self):
        sys = quarter_corner(1)
        found = pattern_search_oracle(sys, [(0.0,)], 0.05, 0.05, 0.05)
        assert found
        assert all(abs(x[0]) > 0.01 for x in found)

    def test_rejects_bad_inputs(self):
        sys = ten_corner(1)
        pattern = [(0.0,), (1.0,), (2.0,)]
        with pytest.raises(ValueError):
            pattern_search_oracle(sys, pattern, 0.4, 0.01, 1e-3)
        with pytest.raises(ValueError):
            pattern_search_oracle(sys, pattern, 0.05, 0.0, 1e-3)
        with pytest.raises(ValueError):
            pattern_search_oracle(sys, pattern, 0.05, 0.01, 0.0)
        with pytest.raises(ValueError):
            pattern_search_oracle(sys, [], 0.05, 0.01, 1e-3)
        # span / step is inf at the least subnormal step, nan at an infinite one
        for step in (5e-324, math.inf):
            with pytest.raises(ValueError, match="no finite point count"):
                pattern_search_oracle(sys, pattern, 0.05, step, 1e-3)


# -- pattern scan against the full descent -------------------------------------


def _full_descent_upper(sys):
    """The per-axis upper distance by the scalar descent, with a stop of 0
    that fires only where the scale underflows, combined in the system's
    norm."""

    def upper(q):
        parts = np.empty_like(q)
        for i, f in enumerate(sys.axis_factors()):
            for j, x in enumerate(q[:, i].tolist()):
                parts[j, i] = _axis1d_dist(f, (x - f.offset) / f.scale, 0.0)[1] * f.scale
        return row_norms(parts, sys.norm)

    return upper


def _children_leaf_cover(sys, target_radius, max_nodes):
    """The node cover built from children() and is_leaf, with the leaves
    flagged solid."""
    frontier = [(ROOT, sys.root)]
    while True:
        done = [(w, b) for w, b in frontier if b.radius <= target_radius or sys.is_leaf(w)]
        todo = [(w, b) for w, b in frontier if b.radius > target_radius and not sys.is_leaf(w)]
        if not todo:
            break
        grown = []
        for word, _ in todo:
            grown.extend((word + (i,), kid) for i, kid in enumerate(sys.children(word)))
        if len(done) + len(grown) > max_nodes:
            raise RuntimeError(f"pattern cover exceeded the node budget {max_nodes}")
        frontier = done + grown
    centers = np.array([b.center for _, b in frontier], dtype=float)
    radii = np.array([b.radius for _, b in frontier], dtype=float)
    solid = np.array([sys.is_leaf(w) for w, _ in frontier], dtype=bool)
    return centers, radii, solid


def _table_upper_dist(queries, centers, radii, norm, solid):
    """Upper distance to the set over a node cover, every query against
    every node: the distance to the center plus the radius, or for a solid
    node (one with no children, wholly part of the set) the distance to
    its ball, max(0, d - r)."""
    offset = np.where(solid, -radii, radii)
    out = np.empty(len(queries))
    block = max(1, 4_000_000 // max(len(centers), 1))
    for start in range(0, len(queries), block):
        dist = row_norms(queries[start : start + block, None, :] - centers[None, :, :], norm)
        out[start : start + block] = (dist + offset[None, :]).min(axis=1)
    # d + r > 0 for the other nodes, so the clamp changes only solid ones
    return np.maximum(out, 0.0, out=out)


def _cover_upper(sys, tol, max_nodes=300_000):
    """The reference upper distance: the children cover against the table."""
    centers, radii, solid = _children_leaf_cover(sys, tol / 8.0, max_nodes)
    return lambda q: _table_upper_dist(q, centers, radii, sys.norm, solid)


def _scan_mask(sys, points, lam, grid_step, tol, upper):
    """The pattern grid and the mask of its rows that the scan keeps."""
    root = sys.root
    grid_axes = [
        np.arange(c - root.radius, c + root.radius + grid_step / 2, grid_step)
        for c in root.center
    ]
    mesh = np.meshgrid(*grid_axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    keep = np.ones(len(grid), dtype=bool)
    for b in points:
        live = np.flatnonzero(keep)
        shifted = grid[live] + lam * np.asarray(b, dtype=float)[None, :]
        keep[live[upper(shifted) > tol]] = False
        if not keep.any():
            break
    return grid, keep


def _reference_scan(sys, points, lam, grid_step, tol, upper):
    """The pattern grid scan building one witness tuple per kept row."""
    grid, keep = _scan_mask(sys, points, lam, grid_step, tol, upper)
    return [tuple(float(v) for v in row) for row in grid[keep]]


@st.composite
def corner_images(draw):
    """An axis product of one ratio per axis, a corner family or a product
    IFS in any norm, as it is, translated or as a similarity image (scale
    not 1)."""
    d = draw(st.integers(1, 2))
    if draw(st.booleans()):
        n = draw(st.integers(2, 10))
        ell = draw(st.floats(0.02, 0.98)) * 2 / n
        base = corner_family(CornerFamilyParams(n, ell, d))
    else:
        lam = draw(st.floats(0.01, 0.3))
        axes = [
            sorted(set(draw(st.lists(st.floats(-0.35, 0.35), min_size=1, max_size=3))))
            for _ in range(d)
        ]
        ifs = HomotheticIFS(tuple((lam, t) for t in itertools.product(*axes)))
        assume(ifs.axis_factors() is not None)
        base = from_ifs(ifs, draw(st.sampled_from(list(NormKind))))
    kind = draw(st.sampled_from(["family", "translate", "similarity"]))
    shift = tuple(draw(st.floats(-2.0, 2.0)) for _ in range(d))
    if kind == "translate":
        return translate(base, shift)
    if kind == "similarity":
        scale = draw(st.floats(0.01, 50.0).filter(lambda s: s != 1.0))
        return similarity_image(base, scale, shift)
    return base


def _set_points(sys, rng, count, depth):
    """Hull ends of random depth-k copies on every axis: points of the set."""
    out = np.empty((count, sys.dimension))
    for i, f in enumerate(sys.axis_factors()):
        ts = np.array(f.ts)
        y = np.zeros(count)
        s = 1.0
        for _ in range(depth):
            y += s * ts[rng.integers(0, len(ts), count)]
            s *= f.lam_max
        y += s * rng.choice([f.a, f.b], count)
        out[:, i] = f.offset + f.scale * y
    return out


def _exact_norm(sys):
    """Whether the norm is the largest axis value, where a stopped axis
    cannot change a verdict against tol."""
    return sys.norm is NormKind.LINF or sys.dimension == 1


class TestPatternDescentStop:
    @settings(max_examples=150, deadline=None)
    @given(
        sys=corner_images(),
        pattern=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=6),
        lam_frac=st.floats(0.01, 0.99),
        per_axis=st.integers(5, 300),
        tol_exp=st.floats(-5.0, 1.0),
    )
    def test_witnesses_equal_the_full_descent(self, sys, pattern, lam_frac, per_axis, tol_exp):
        d = sys.dimension
        pts = [tuple(pattern[i : i + d]) for i in range(0, len(pattern) - d + 1, d)]
        radius = sys.root.radius
        limit = pattern_lambda_limit(pts, radius, sys.norm)
        lam = lam_frac * (limit if math.isfinite(limit) else radius)
        if d == 2:
            per_axis = min(per_axis, 60)
        grid_step = 2 * radius / (per_axis - 1)
        tol = 10.0**tol_exp * radius
        found = pattern_search_oracle(sys, pts, lam, grid_step, tol)
        want = _reference_scan(
            sys, pts, lam, grid_step, tol, _full_descent_upper(sys)
        )
        if _exact_norm(sys):
            assert repr(found) == repr(want)
        else:
            # in L2 and L1 a stopped axis can only raise the bound
            kept = set(found)
            assert [w for w in want if w in kept] == found
        assert all(type(v) is float for row in found for v in row)

    @settings(max_examples=100, deadline=None)
    @given(
        sys=corner_images(),
        seed=st.integers(0, 2**32 - 1),
        depth=st.integers(0, 8),
        tol_exp=st.floats(-9.0, 1.0),
    )
    def test_verdicts_near_the_set_equal_the_full_descent(self, sys, seed, depth, tol_exp):
        # queries within a few tol of the set, where the stop matters
        rng = np.random.default_rng(seed)
        tol = 10.0**tol_exp * sys.root.radius
        q = _set_points(sys, rng, 400, depth)
        q += tol * rng.uniform(-3.0, 3.0, q.shape)
        got = _axis_upper_dist(q, sys, tol)
        want = _full_descent_upper(sys)(q)
        if _exact_norm(sys):
            assert np.array_equal(got > tol, want > tol)
            assert np.array_equal(got[want > tol], want[want > tol])
        else:
            assert np.all(got >= want)

    @pytest.mark.parametrize("factor", [2.0, 2.5, 10.0])
    def test_tolerance_at_or_above_twice_the_scale(self, factor):
        # stop >= 1 ends the descent after the first level; the pattern's
        # end points push shifted rows up to 0.3 root radii outside the root
        base = corner_family(CornerFamilyParams(4, 0.4, 1))
        for sys in (base, similarity_image(base, 0.3, (0.2,)), translate(base, (-0.7,))):
            scale = sys.axis_factors()[0].scale
            pts = [(-1.0,), (0.0,), (1.0,)]
            lam = 0.3 * scale
            step = 2 * sys.root.radius / 400
            tol = factor * abs(scale)
            found = pattern_search_oracle(sys, pts, lam, step, tol)
            upper = _full_descent_upper(sys)
            want = _reference_scan(sys, pts, lam, step, tol, upper)
            assert repr(found) == repr(want)
            assert found
            # and just below it, where the descent goes one level further
            tol = 0.9 * abs(scale)
            found = pattern_search_oracle(sys, pts, lam, step, tol)
            assert repr(found) == repr(
                _reference_scan(sys, pts, lam, step, tol, upper)
            )

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 10),
        ell_frac=st.floats(1e-7, 0.999),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_default_stop_is_the_full_descent_bit_for_bit(self, n, ell_frac, seed):
        ell = ell_frac * 2 / n
        (f,) = corner_family(CornerFamilyParams(n, ell, 1)).axis_factors()
        rng = np.random.default_rng(seed)
        ys = np.concatenate(
            [
                rng.uniform(f.a, f.b, 200),
                rng.uniform(-5.0, 5.0, 50),
                np.array(f.ts)[rng.integers(0, len(f.ts), 20)],
                [f.a, f.b, 0.0, -0.0, np.inf, -np.inf, np.nan],
            ]
        ).reshape(-1, 1)
        # the full descent: a stop of 0 fires only where the scale underflows
        want = np.array([[_axis1d_dist(f, y, 0.0)[1]] for y in ys.ravel().tolist()])
        for kwargs in ({}, {"stop": 0.0}):
            got = _corner1d_dist_batch(ys, f, **kwargs)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_the_descent_stops_at_the_tolerance(self):
        # ell = 0.19: six levels reach 2 * 0.095**6 < 5e-6, five do not
        (f,) = corner_family(CornerFamilyParams(10, 0.19, 1)).axis_factors()
        ys = np.linspace(-1.0, 1.0, 1001)
        hi = _corner1d_dist_batch(ys, f, stop=5e-6)
        full = _corner1d_dist_batch(ys, f)
        scale = 1.0
        for _ in range(6):
            scale *= f.lam_max
        stopped = hi != full
        assert stopped.any()
        assert np.all(hi[stopped] == scale * (f.b - f.a))
        assert np.all(full[stopped] < hi[stopped])


_PATTERN_IFS = HomotheticIFS(((0.3, (-0.5, -0.4)), (0.3, (0.5, -0.4)), (0.25, (0.0, 0.6))))
# a three-map IFS of one ratio that is not an axis product
_T_IFS = HomotheticIFS(((0.3, (-0.55, -0.4)), (0.3, (0.55, -0.4)), (0.3, (0.0, 0.65))))



def _middle_thirds_gaps(depth):
    gaps, cells = [], [(0.0, 1.0)]
    for _ in range(depth):
        split = []
        for a, b in cells:
            t = (b - a) / 3
            gaps.append((a + t, b - t))
            split += [(a, a + t), (b - t, b)]
        cells = split
    return GapList1D(hull=(0.0, 1.0), gaps=tuple(gaps))


# leaves of radius 3**-6 / 2, so a cover of them can certify tol 0.01
_PATTERN_GAPS = _middle_thirds_gaps(6)


class TestPatternLeafCover:
    """The pruned descent against the children cover measured against every
    one of its nodes."""

    @pytest.mark.parametrize(
        "make, pts, lam, step, tol",
        [
            (lambda: from_ifs(_PATTERN_IFS, NormKind.L2), [(0.0, 0.0), (1.0, 0.5)], 0.1, 0.05, 0.08),
            (lambda: from_ifs(_PATTERN_IFS, NormKind.LINF), [(0.0, 0.0), (0.0, 1.0)], 0.2, 0.04, 0.05),
            (lambda: from_gaps_1d(_PATTERN_GAPS), [(0.0,), (1.0,), (3.0,)], 0.08, 0.002, 0.01),
            (lambda: translate(from_gaps_1d(_PATTERN_GAPS), (0.3,)), [(0.0,), (2.0,)], 0.1, 5e-4, 3e-3),
        ],
    )
    def test_witnesses_equal_the_children_cover(self, make, pts, lam, step, tol):
        sys = make()
        upper = _cover_upper(sys, tol)
        found = pattern_search_oracle(make(), pts, lam, step, tol)
        assert found
        assert repr(found) == repr(_reference_scan(sys, pts, lam, step, tol, upper))
        # every value within tol is the table's bit for bit
        grid, _ = _scan_mask(sys, pts, lam, step, tol, upper)
        got, want = _cover_upper_dist(grid, sys, tol), upper(grid)
        near = want <= tol
        assert near.any() and np.array_equal(got[near], want[near])
        assert np.all(got[~near] > tol)

    def test_cover_budget_error_is_unchanged(self, monkeypatch):
        sys = from_ifs(_PATTERN_IFS, NormKind.L2)
        monkeypatch.setattr(game, "_COVER_NODES", 200)
        queries = np.stack(np.meshgrid(*[np.linspace(-1.0, 1.0, 201)] * 2), axis=-1).reshape(-1, 2)
        with pytest.raises(RuntimeError) as got:
            _cover_upper_dist(queries, sys, 8e-3)
        with pytest.raises(RuntimeError) as want:
            _children_leaf_cover(from_ifs(_PATTERN_IFS, NormKind.L2), 1e-3, 200)
        assert str(got.value) == str(want.value)

    def test_query_blocks_give_the_same_values(self, monkeypatch):
        sys = from_ifs(_IFS_L1, NormKind.L1)
        queries = np.stack(np.meshgrid(*[np.linspace(-1.0, 1.0, 31)] * 2), axis=-1).reshape(-1, 2)
        whole = _cover_upper_dist(queries, sys, 0.05)
        monkeypatch.setattr(game, "_QUERY_BLOCK", 7)
        assert _cover_upper_dist(queries, sys, 0.05).tobytes() == whole.tobytes()

    def test_far_queries_are_infinite(self):
        sys = from_ifs(_PATTERN_IFS, NormKind.LINF)
        # the second query is the fixed point of the map (0.3, (0.5, -0.4))
        got = _cover_upper_dist(np.array([[5.0, 5.0], [0.5 / 0.7, -0.4 / 0.7]]), sys, 0.01)
        assert got[0] == math.inf and 0 < got[1] <= 0.01


@st.composite
def cover_systems(draw):
    """A set the scan measures by the pruned descent: an IFS that is not an
    axis product of one ratio per axis (any norm, 2-4 maps, mixed ratios)
    or a gap tree, whose ends may sit on a dyadic lattice, as it is or as a
    similarity image."""
    if draw(st.booleans()):
        d = draw(st.integers(1, 2))
        norm = draw(st.sampled_from(list(NormKind)))
        maps = []
        for _ in range(draw(st.integers(2, 4))):
            lam = draw(st.floats(0.1, 0.45))
            raw = tuple(draw(st.floats(-1.0, 1.0)) for _ in range(d))
            reach = 0.999 * (1.0 - lam)
            size = vector_size(raw, norm)
            maps.append((lam, tuple(v * reach / size for v in raw) if size > reach else raw))
        ifs = HomotheticIFS(tuple(maps))
        factors = ifs.axis_factors()
        assume(factors is None or any(min(f.lams) != f.lam_max for f in factors))
        base = from_ifs(ifs, norm)
    else:
        if draw(st.booleans()):
            ends = st.integers(-63, 63).map(lambda i: i / 64)
        else:
            ends = st.floats(-0.99, 0.99).map(lambda x: round(x, 6))
        cuts = sorted(set(draw(st.lists(ends, min_size=2, max_size=12))))
        gaps = tuple(zip(cuts[0::2], cuts[1::2]))
        assume(gaps)
        base = from_gaps_1d(GapList1D(hull=(-1.0, 1.0), gaps=gaps))
    if draw(st.booleans()):
        scale = draw(st.sampled_from([0.5, 2.0]) | st.floats(0.05, 20.0))
        shifts = st.sampled_from([0.0, 0.25]) | st.floats(-2.0, 2.0)
        shift = tuple(draw(shifts) for _ in range(base.dimension))
        return similarity_image(base, scale, shift)
    return base


class TestPatternPrunedDescent:
    @settings(max_examples=150, deadline=None)
    @given(
        sys=cover_systems(),
        pattern=st.lists(st.integers(-4, 4).map(lambda i: i / 4), min_size=2, max_size=6),
        lam_frac=st.floats(0.01, 0.99),
        intervals=st.sampled_from([8, 16, 32, 64, 128, 256]),
        tol_steps=st.integers(1, 16),
    )
    # grid point -0.75 at pattern point -1 lies exactly tol left of the
    # hull, and its node [-1, -0.132812] rounds d - r above tol: a drop at
    # exactly d - r > tol loses this witness
    @example(
        sys=from_gaps_1d(GapList1D(hull=(-1.0, 1.0), gaps=((-0.25, -0.1875), (-0.132812, 0.0)))),
        pattern=[0.5, -1.0],
        lam_frac=0.5234375,
        intervals=8,
        tol_steps=3,
    )
    def test_witnesses_equal_the_reference_scan(self, sys, pattern, lam_frac, intervals, tol_steps):
        # dyadic steps, tolerances and scales put grid points at exactly tol
        # from the lattice gap trees
        d = sys.dimension
        pts = [tuple(pattern[i : i + d]) for i in range(0, len(pattern) - d + 1, d)]
        assume(pts)
        radius = sys.root.radius
        limit = pattern_lambda_limit(pts, radius, sys.norm)
        lam = math.ldexp(math.floor(math.ldexp(lam_frac * min(limit, radius), 12)), -12)
        assume(0 < lam < limit)
        if d == 2:
            intervals = min(intervals, 32)
        grid_step = 2 * radius / intervals
        tol = tol_steps / 256 * radius
        try:
            upper = _cover_upper(sys, tol, max_nodes=20_000)
        except RuntimeError:
            return  # past the reference's budget
        found = pattern_search_oracle(sys, pts, lam, grid_step, tol)
        want = _reference_scan(sys, pts, lam, grid_step, tol, upper)
        assert repr(found) == repr(want)

    @pytest.mark.parametrize(
        "make, pts, lam, step, tol, count",
        [
            (lambda: from_ifs(_IFS_L1, NormKind.L1), [(0.0, 0.0), (1.0, 0.0)], 0.05, 0.01, 0.02, 392),
            (lambda: from_ifs(_T_IFS, NormKind.LINF), [(0.0, 0.0), (1.0, 0.0)], 0.1, 0.01, 0.01, 213),
            (
                lambda: similarity_image(from_ifs(_T_IFS, NormKind.LINF), 0.7, (0.1, -0.2)),
                [(0.0, 0.0), (1.0, 0.0)], 0.1, 0.01, 0.01, 29,
            ),
            (
                lambda: from_ifs(
                    HomotheticIFS(((0.3, (-0.6,)), (0.2, (0.7,)), (0.1, (0.1,)))), NormKind.LINF
                ),
                [(0.0,), (1.0,)], 0.1, 1e-4, 1e-4, 126,
            ),
        ],
        ids=["l1", "t_linf", "t_similarity", "mixed_1d"],
    )
    def test_boards_keep_their_witnesses(self, make, pts, lam, step, tol, count):
        sys = make()
        found = pattern_search_oracle(sys, pts, lam, step, tol)
        assert len(found) == count
        want = _reference_scan(sys, pts, lam, step, tol, _cover_upper(sys, tol))
        assert repr(found) == repr(want)

    def test_l1_board_scans_in_under_a_second(self):
        # the all-pairs cover took about 3 s on this board
        sys = from_ifs(_IFS_L1, NormKind.L1)
        start = time.perf_counter()
        found = pattern_search_oracle(sys, [(0.0, 0.0)], 0.1, 0.01, 0.02)
        assert time.perf_counter() - start < 1.0
        assert found


_SPECS = Path(__file__).resolve().parents[1] / "bench" / "specs"


class TestPatternAxisProducts:
    """Product IFS boards take the per-axis descent; a factor of mixed
    ratios keeps the node cover."""

    @pytest.mark.parametrize("name", ["ifs_linf", "ifs_l2"])
    def test_product_boards_keep_every_cover_witness(self, name):
        sys = parse_set_spec(json.loads((_SPECS / f"{name}.json").read_text()))
        pts, lam, step, tol = [(0.0, 0.0), (1.0, 0.0)], 0.1, 0.01, 0.02
        found = pattern_search_oracle(sys, pts, lam, step, tol)
        cover = _reference_scan(sys, pts, lam, step, tol, _cover_upper(sys, tol))
        assert cover and set(cover) < set(found)
        for x in found:
            for b in pts:
                q = tuple(xi + lam * bi for xi, bi in zip(x, b))
                assert dist_to_set(q, sys, 1e-9).lo <= tol

    def test_mixed_ratios_keep_the_cover(self):
        sys = from_ifs(
            HomotheticIFS(((0.3, (-0.6,)), (0.2, (0.1,)), (0.25, (0.7,)))), NormKind.LINF
        )
        (factor,) = sys.axis_factors()
        with pytest.raises(ValueError, match="one ratio"):
            _corner1d_dist_batch(np.zeros(3), factor)
        pts, lam, step, tol = [(0.0,), (1.0,)], 0.1, 0.002, 0.01
        found = pattern_search_oracle(sys, pts, lam, step, tol)
        want = _reference_scan(sys, pts, lam, step, tol, _cover_upper(sys, tol))
        assert found and repr(found) == repr(want)


class TestWitnessTuples:
    """The scan builds its witness tuples column by column; the row-by-row
    builder it replaced, list(map(tuple, rows.tolist())), is the reference."""

    @pytest.mark.parametrize(
        "make, pts, lam, step, tol, upper, empty",
        [
            (
                lambda: ten_corner(1),
                [(0.0,), (1.0,), (2.0,)],
                0.05, 1e-4, 1e-4, _full_descent_upper, False,
            ),
            (
                lambda: translate(quarter_corner(2), (0.3, -0.2)),
                [(0.0, 0.0), (1.0, 0.5)],
                0.1, 0.01, 0.01, _full_descent_upper, False,
            ),
            (
                lambda: from_ifs(_PATTERN_IFS, NormKind.L2),
                [(0.0, 0.0), (1.0, 0.5)],
                0.1, 0.05, 0.08, lambda sys: _cover_upper(sys, 0.08), False,
            ),
            (
                lambda: _middle_thirds(6),
                [(0.0,), (1.0,), (2.0,)],
                0.18, 1e-3, 1e-3, lambda sys: _cover_upper(sys, 1e-3), True,
            ),
        ],
        ids=["corner_d1", "corner_d2", "ifs_cover", "empty"],
    )
    def test_witnesses_equal_the_row_builder(self, make, pts, lam, step, tol, upper, empty):
        sys = make()
        found = pattern_search_oracle(sys, pts, lam, step, tol)
        grid, keep = _scan_mask(sys, pts, lam, step, tol, upper(sys))
        want = list(map(tuple, grid[keep].tolist()))
        assert found == want and repr(found) == repr(want)
        assert type(found) is list and (found == []) is empty
        for w in found:
            assert type(w) is tuple and len(w) == sys.dimension
            assert all(type(v) is float for v in w)


class TestPatternSolidLeaves:
    # the gap tree's leaf [0.55, 1] is wider than tol: every x in [0.55, 0.7]
    # realizes the pattern inside it
    GAPS = GapList1D(
        hull=(-1.0, 1.0), gaps=((-0.2, 0.3), (-0.9, -0.6), (0.5, 0.55), (-0.5, -0.45))
    )

    def test_witnesses_inside_a_wide_leaf(self):
        sys = from_gaps_1d(self.GAPS)
        pts, lam, tol = [(0.0,), (1.0,), (3.0,)], 0.1, 0.01
        found = pattern_search_oracle(sys, pts, lam, 0.002, tol)
        inside = [x for (x,) in found if 0.55 <= x <= 0.7]
        assert len(inside) >= 70
        for (x,) in found:
            for (b,) in pts:
                # the finite-1-D oracle's distance is exact
                assert dist_to_set((x + lam * b,), sys, tol).hi <= tol

    def test_cover_distance_to_solid_nodes(self):
        # node (0,) is childless; node (1,) has a child but ends at radius tol / 8
        entries = [
            (ROOT, Ball((0.5,), 1.0)),
            ((0,), Ball((0.0,), 0.25)),
            ((1,), Ball((1.0,), 0.25)),
            ((1, 0), Ball((1.0,), 0.1)),
        ]
        sys = explicit_tree(NormKind.LINF, 1, entries)
        q = np.array([[-0.1], [0.0], [0.5], [1.0], [2.0]])
        got = _cover_upper_dist(q, sys, 2.0)
        # max(0, d - r) for the solid node, d + r for the other
        assert got.tolist() == [0.0, 0.0, 0.25, 0.25, 1.25]

    def test_only_childless_nodes_are_solid(self):
        # every leaf of this tree is wider than the target radius: solid, at 0
        centers, _, solid = _children_leaf_cover(from_gaps_1d(self.GAPS), 0.01 / 8.0, 300_000)
        assert len(solid) == 5 and solid.all()
        assert _cover_upper_dist(centers, from_gaps_1d(self.GAPS), 0.01).tolist() == [0.0] * 5
        # depth-6 nodes of the depth-8 Cantor tree stop at the target radius:
        # at its center, a node gives its radius, d + r
        centers, radii, solid = _children_leaf_cover(_middle_thirds(8), 1e-3, 300_000)
        assert len(solid) == 2**6 and not solid.any()
        got = _cover_upper_dist(centers, _middle_thirds(8), 8e-3)
        assert got.tolist() == radii.tolist() and np.all(got > 0)

    def test_cli_pattern_finds_them(self, tmp_path):
        from thickgap import cli

        spec = tmp_path / "gaps.json"
        spec.write_text(
            json.dumps(
                {
                    "norm": "linf",
                    "dimension": 1,
                    "generator": {
                        "type": "gaps1d",
                        "hull": list(self.GAPS.hull),
                        "gaps": [list(g) for g in self.GAPS.gaps],
                    },
                }
            )
        )
        out = tmp_path / "pattern.json"
        argv = ["pattern", "--spec", str(spec), "--grid", "0.002", "--tol", "0.01"]
        assert cli.main(argv + ["0.1", "0", "1", "3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["count"] > 0

    def test_infinite_trees_have_no_solid_nodes(self):
        # a solid node would give 0 at its own center
        for norm in (NormKind.L2, NormKind.LINF):
            sys = from_ifs(_PATTERN_IFS, norm)
            centers, radii, _ = _children_leaf_cover(sys, 0.01, 300_000)
            got = _cover_upper_dist(centers, sys, 0.08)
            assert np.all(got > 0) and np.all(got <= radii)


def test_numpy_is_imported_on_first_use():
    import os
    import subprocess
    import sys

    import thickgap

    src = os.path.dirname(os.path.dirname(os.path.abspath(thickgap.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, thickgap, thickgap.cli\n"
        "assert 'numpy' not in sys.modules, 'numpy imported with the package'\n"
        "from thickgap import CornerFamilyParams, corner_family, pattern_search_oracle\n"
        "sys_ = corner_family(CornerFamilyParams(10, 0.19, 1))\n"
        "found = pattern_search_oracle(sys_, [(0.0,), (1.0,)], 0.05, 1e-3, 1e-3)\n"
        "assert found and 'numpy' in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr


# -- Alice and the referee against their block-free versions --------------------


def _reference_referee(move, history, params):
    """The referee's Bob branch before the shared verdict and the bound
    kernel; its Alice branch changed only in sharing the verdict."""
    if isinstance(move, BobMove):
        ball = move.ball
        if len(ball.center) != params.dimension:
            return Verdict(False, "ball dimension does not match the game")
        prev = next((m.ball for m in reversed(history) if isinstance(m, BobMove)), None)
        if prev is None:
            if ball.radius < params.rho * (1 - 1e-9):
                return Verdict(
                    False,
                    f"first radius {ball.radius:.6g} is below rho {params.rho:.6g}",
                )
            return Verdict(True)
        if ball.radius < params.beta * prev.radius * (1 - 1e-9):
            return Verdict(
                False,
                f"radius {ball.radius:.6g} shrinks past beta * {prev.radius:.6g}",
            )
        gap = norm_distance(ball.center, prev.center, params.norm)
        if gap + ball.radius > prev.radius * (1 + 1e-9):
            return Verdict(False, "ball is not inside the previous ball")
        return Verdict(True)
    return referee(move, history, params)


def _reference_h_sets(sys, word):
    """alice_h_sets over children() Balls, computing its own hole bound."""
    ball = sys.ball(word)
    kids = sys.children(word)
    h = _hole_enclosure(sys, word).hi
    spheres = [Sphere(ball.center, ball.radius - h / 2)]
    spheres.extend(Sphere(kid.center, kid.radius + h) for kid in kids)
    return SphereUnion(tuple(spheres), m_bound=len(kids) + 1)


class _ReferenceAlice(AliceStrategy):
    """The covering strategy over children() Balls and norm_distance, with
    the level radii recomputed on every band step."""

    def _reference_level_radius(self, n):
        if self._ratio is not None:
            return self.sys.root.radius * self._ratio**n
        radii = self._level_radii
        return radii[n] if n < len(radii) else None

    def band(self, radius):
        if radius > self.sys.root.radius:
            return None
        for n in range(10_000):
            below = self._reference_level_radius(n + 1)
            if below is None:
                return None
            if radius >= below:
                return n
        raise RuntimeError("radius band search did not terminate")

    def words_meeting(self, ball, level):
        norm = self.sys.norm
        words = [ROOT]
        if norm_distance(self.sys.root.center, ball.center, norm) > (
            self.sys.root.radius + ball.radius
        ):
            return []
        for _ in range(level):
            grown = []
            for word in words:
                for i, kid in enumerate(self.sys.children(word)):
                    if norm_distance(kid.center, ball.center, norm) <= kid.radius + ball.radius:
                        grown.append(word + (i,))
            words = grown
            if not words:
                break
        return words

    def respond(self, ball):
        n = self.band(ball.radius)
        if n is None or n in self._answered:
            return AliceMove()
        self._answered.add(n)
        words = self.words_meeting(ball, n)
        if len(words) > self.kappa:
            raise RuntimeError(
                f"{len(words)} level-{n} balls meet the move, over the packing bound "
                f"{self.kappa}"
            )
        if not words:
            return AliceMove()
        holes = [_hole_enclosure(self.sys, word) for word in words]
        budget = ball.radius / self.tau
        worst = max(h.lo for h in holes)
        if worst > budget * (1 + 1e-9):
            raise RuntimeError(
                f"hole radius at least {worst:.6g} exceeds the erase budget "
                f"{budget:.6g}; the thickness hypothesis fails here"
            )
        rho_erase = min(max(h.hi for h in holes), budget)
        if rho_erase <= 0:
            return AliceMove()
        spheres = []
        for word in words:
            spheres.extend(_reference_h_sets(self.sys, word).spheres)
        union = SphereUnion(tuple(spheres), m_bound=self.sphere_budget)
        return AliceMove((Erasure(union, rho_erase),))


def _meeting_only(sys, reference=False):
    """A strategy for words_meeting alone, which reads nothing but the
    system: built without the structure checks, so any tree will do."""
    alice = object.__new__(_ReferenceAlice if reference else AliceStrategy)
    alice.sys = sys
    return alice


def _middle_thirds(depth):
    return from_gaps_1d(_middle_thirds_gaps(depth))


_IFS_LINF = HomotheticIFS(
    ((0.3, (0.65, 0.65)), (0.3, (-0.65, 0.65)), (0.3, (0.65, -0.65)), (0.3, (-0.65, -0.65)))
)


_IFS_LINF_1D = HomotheticIFS(((0.3, (-0.7,)), (0.3, (0.7,))))


def _words_meeting_boards():
    ifs = HomotheticIFS(((0.3, (-0.5, -0.4)), (0.35, (0.5, -0.4)), (0.25, (0.0, 0.6))))
    return [
        from_ifs(ifs, NormKind.L2),
        from_ifs(ifs, NormKind.LINF),
        similarity_image(from_ifs(ifs, NormKind.L2), 0.7, (0.1, 0.2)),
        from_ifs(_IFS_LINF, NormKind.LINF),
        from_ifs(_IFS_LINF_1D, NormKind.LINF),
        from_gaps_1d(TestPatternSolidLeaves.GAPS),
        translate(_middle_thirds(4), (0.25,)),
        explicit_tree(
            NormKind.L2,
            2,
            [
                (ROOT, Ball((0.0, 0.0), 1.0)),
                ((0,), Ball((-0.5, 0.0), 0.4)),
                ((1,), Ball((0.5, 0.1), 0.3)),
                ((0, 0), Ball((-0.6, 0.1), 0.1)),
                ((0, 1), Ball((-0.3, -0.1), 0.1)),
                ((1, 0), Ball((0.5, 0.1), 0.2)),
            ],
        ),
    ]


@st.composite
def _corner_boards(draw):
    n = draw(st.integers(2, 6))
    d = draw(st.integers(1, 3))
    top = math.nextafter(2 / n, 0)
    ell = draw(st.one_of(st.just(top), st.floats(0.02, 0.999).map(lambda f: f * 2 / n)))
    base = corner_family(CornerFamilyParams(n, ell, d))
    shift = tuple(draw(st.floats(-2.0, 2.0)) for _ in range(d))
    kind = draw(st.sampled_from(["family", "translate", "similarity", "chain"]))
    if kind == "translate":
        return translate(base, shift)
    if kind == "similarity":
        return similarity_image(base, draw(st.floats(0.01, 50.0)), shift)
    if kind == "chain":
        return translate(similarity_image(base, 0.3, shift), shift[::-1])
    return base


def _probe_balls(sys, data, level):
    """Balls centred on node centres and cell corners, with radii drawn from
    the level radii and from the distances to those points, so the test
    dist <= r_kid + r often holds with equality."""
    word = ROOT
    for _ in range(data.draw(st.integers(0, level + 1))):
        count = sys.child_count(word)
        if not count:
            break
        word = word + (data.draw(st.integers(0, count - 1)),)
    node = sys.ball(word)
    sign = [data.draw(st.sampled_from([-1.0, 0.0, 1.0])) for _ in node.center]
    center = tuple(c + s * node.radius for c, s in zip(node.center, sign))
    factor = data.draw(st.sampled_from([0.5, 1.0, 2.0, 1e-3]))
    radii = {factor * node.radius, factor * sys.root.radius}
    kids = sys.child_block(word)
    if kids[1]:
        # a radius at which a child's test ties: dist(c, x) == r_kid + r
        j = data.draw(st.integers(0, len(kids[1]) - 1))
        gap = distance_kernel(sys.norm)(kids[0][j], center) - kids[1][j]
        if gap > 0:
            radii.add(gap)
    return [Ball(center, r) for r in sorted(radii)]


class TestAliceOverBlocks:
    @settings(max_examples=200, deadline=None)
    @given(sys=_corner_boards(), data=st.data())
    def test_words_meeting_on_corner_grids(self, sys, data):
        level = data.draw(st.integers(0, 3 if sys.dimension < 3 else 2))
        for ball in _probe_balls(sys, data, level):
            want = _meeting_only(sys, reference=True).words_meeting(ball, level)
            assert _meeting_only(sys).words_meeting(ball, level) == want

    @settings(max_examples=200, deadline=None)
    @given(index=st.integers(0, len(_words_meeting_boards()) - 1), data=st.data())
    def test_words_meeting_on_other_trees(self, index, data):
        sys = _words_meeting_boards()[index]
        level = data.draw(st.integers(0, 4))
        for ball in _probe_balls(sys, data, level):
            want = _meeting_only(sys, reference=True).words_meeting(ball, level)
            assert _meeting_only(sys).words_meeting(ball, level) == want

    def test_words_meeting_dimension_error_is_unchanged(self):
        sys = quarter_corner(2)
        with pytest.raises(ValueError) as want:
            _meeting_only(sys, reference=True).words_meeting(Ball((0.0,), 0.5), 1)
        with pytest.raises(ValueError) as got:
            _meeting_only(sys).words_meeting(Ball((0.0,), 0.5), 1)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "make, tau, beta",
        [
            (lambda: quarter_corner(2), 3.0, 0.2),
            (lambda: translate(similarity_image(ten_corner(1), 0.3, (0.5,)), (-0.1,)), 17.1, 0.1),
            (lambda: from_ifs(_IFS_LINF, NormKind.LINF), 1.5, 0.5),
            (lambda: _middle_thirds(5), 1.0, 0.34),
        ],
        ids=["corner", "corner-chain", "ifs-linf", "cantor"],
    )
    def test_band_at_and_around_each_level_radius(self, make, tau, beta):
        sys = make()
        alice = alice_strategy(sys, tau, beta)
        reference = _ReferenceAlice(make(), tau, beta)
        levels = [reference._reference_level_radius(n) for n in range(40)]
        probes = [sys.root.radius * 1.5, sys.root.radius, 1e-300, 0.0]
        for r in levels:
            if r is not None:
                probes += [r, math.nextafter(r, 0), math.nextafter(r, math.inf)]
        # in order and shuffled, so the level cache is read warm and cold
        shuffled = list(probes)
        random.Random(0).shuffle(shuffled)
        for r in probes + shuffled:
            assert alice.band(r) == reference.band(r), r

    @pytest.mark.parametrize(
        "make", [lambda: quarter_corner(2), lambda: ten_corner(1), lambda: _middle_thirds(3)]
    )
    def test_h_sets_equal_the_reference(self, make):
        sys = make()
        words = [w for w, _ in sys.walk(2)]
        for word in words:
            try:
                want = repr(_reference_h_sets(make(), word))
            except ValueError as exc:  # a node too small for its hole bound
                with pytest.raises(ValueError, match=str(exc)):
                    alice_h_sets(sys, word)
                continue
            assert repr(alice_h_sets(sys, word)) == want


def _play_both(make, bob, params, seed, max_turns):
    """One seeded match with the current strategy and referee, then the same
    match with the reference ones; each as a repr (or its error)."""

    def one():
        board = make()
        try:
            match = play(board, bob(board), params, max_turns=max_turns, seed=seed)
        except RuntimeError as exc:
            return repr(("error", str(exc)))
        return repr((match.moves, match.outcome, match.classification))

    got = one()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("thickgap.game.AliceStrategy", _ReferenceAlice)
        patch.setattr("thickgap.game.referee", _reference_referee)
        want = one()
    return got, want


_BOBS = [random_legal_bob, corner_seeking_bob, hole_seeking_bob]


class TestTranscriptsEqualTheReference:
    @settings(max_examples=60, deadline=None)
    @given(sys=_corner_boards(), seed=st.integers(0, 2**31 - 1), bob=st.sampled_from(_BOBS))
    def test_corner_boards(self, sys, seed, bob):
        corner = sys.corner_grid.params
        tau, beta = corner.ell / corner.g, min(max(0.2, corner.ell / 2), 0.9)
        if not sys.siblings_disjoint_at_root():
            # float children that touch break the hypotheses: no match is played
            with pytest.raises(ValueError, match="first-level balls overlap"):
                proposition_params(sys, tau, beta)
            return
        params = proposition_params(sys, tau, beta)
        got, want = _play_both(lambda: sys, bob, params, seed, 200)
        assert got == want

    @pytest.mark.parametrize(
        "make, tau, beta, max_turns",
        [
            (lambda: quarter_corner(2), 3.0, 0.2, 500),
            (lambda: corner_family(CornerFamilyParams(3, 0.5, 3)), 2.0, 0.3, 500),
            (lambda: _middle_thirds(2), 1.0, 0.34, 500),
            (lambda: _middle_thirds(6), 1.0, 0.34, 500),
            # a 2-D IFS answers each band with hole searches of several seconds
            (lambda: from_ifs(_IFS_LINF_1D, NormKind.LINF), 0.75, 0.5, 60),
        ],
        ids=["corner4-d2", "corner3-d3", "cantor2", "cantor6", "ifs-linf-1d"],
    )
    def test_fixed_boards(self, make, tau, beta, max_turns):
        params = proposition_params(make(), tau, beta)
        for bob in _BOBS:
            for seed in range(12):
                got, want = _play_both(make, bob, params, seed, max_turns)
                assert got == want, (bob.__name__, seed)

    def test_referee_verdicts_equal_the_reference(self):
        rng = random.Random(7)
        for norm in NormKind:
            params = GameParams(
                alpha=1 / 3, beta=0.5, c=0.0, rho=0.3, M=5, dimension=2, norm=norm
            )
            for _ in range(400):
                history = []
                if rng.random() < 0.8:
                    center = (rng.uniform(-1, 1), rng.uniform(-1, 1))
                    history.append(BobMove(Ball(center, rng.uniform(0.2, 1.0))))
                    history.append(AliceMove())
                dim = 2 if rng.random() < 0.9 else 1
                center = tuple(rng.uniform(-1, 1) for _ in range(dim))
                move = BobMove(Ball(center, rng.uniform(0.05, 1.0)))
                assert referee(move, history, params) == _reference_referee(
                    move, history, params
                )
            # a history ball of another dimension still fails as norm_distance did
            history = [BobMove(Ball((0.0,), 1.0))]
            move = BobMove(Ball((0.0, 0.0), 0.9))
            with pytest.raises(ValueError) as want:
                _reference_referee(move, history, params)
            with pytest.raises(ValueError) as got:
                referee(move, history, params)
            assert str(got.value) == str(want.value)


class TestL1Boards:
    def test_pattern_witnesses_are_within_tol_in_the_l1_norm(self):
        sys = from_ifs(_IFS_L1, NormKind.L1)
        tol = 0.02
        witnesses = pattern_search_oracle(sys, [(0.0, 0.0)], 0.1, 0.01, tol)
        assert witnesses
        for w in witnesses:
            assert dist_to_set(w, sys, 1e-6).lo <= tol, w

    def test_random_bob_moves_are_legal_in_the_l1_norm(self):
        sys = from_ifs(_IFS_L1, NormKind.L1)
        params = GameParams(alpha=1 / 3, beta=0.5, c=0.0, rho=0.3, M=5, dimension=2, norm=NormKind.L1)
        bob = random_legal_bob(sys)
        for seed in range(200):
            rng = random.Random(seed)
            history = []
            prev = None
            for _ in range(10):
                prev = bob(prev, params, rng)
                move = BobMove(prev)
                assert referee(move, history, params).legal, (seed, len(history))
                history += [move, AliceMove()]

    def test_l2_draws_are_unchanged(self):
        # the L2 offset is still the draw over sqrt(fsum(v * v))
        sys = from_ifs(_IFS_L1, NormKind.L2)
        params = GameParams(alpha=1 / 3, beta=0.5, c=0.0, rho=0.3, M=5, dimension=2, norm=NormKind.L2)
        rng, mirror = random.Random(3), random.Random(3)
        prev = None
        for _ in range(20):
            ball = random_legal_bob(sys)(prev, params, rng)
            if prev is None:
                radius = params.rho + (sys.root.radius - params.rho) * mirror.random()
                span = (sys.root.radius - radius) * 0.999
                base = sys.root.center
            else:
                radius = prev.radius * (0.5 + (0.9 - 0.5) * mirror.random())
                span = (prev.radius - radius) * 0.999
                base = prev.center
            raw = [mirror.gauss(0.0, 1.0) for _ in range(2)]
            size = math.sqrt(math.fsum(v * v for v in raw))
            reach = span * mirror.random()
            want = tuple(c + reach * v / size for c, v in zip(base, raw))
            assert ball == Ball(want, radius)
            prev = ball


@pytest.mark.parametrize("n", [5, 7, 9, 10, 11, 12])
def test_corner_board_with_touching_float_children_is_rejected(n):
    sys = corner_family(CornerFamilyParams(n, math.nextafter(2 / n, 0), 2))
    assert not sys.siblings_disjoint_at_root()
    with pytest.raises(ValueError, match="first-level balls overlap"):
        AliceStrategy(sys, 1.0, 0.5)
