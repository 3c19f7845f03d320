"""End-to-end tests of the command-line interface and its exit-code contract."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thickgap import ballsystem, cli, game, gaplemma
from thickgap.ballsystem import (
    MAX_CHILDREN,
    BallSystem,
    CornerFamilyParams,
    GapList1D,
    HomotheticIFS,
    SpecError,
    corner_family,
    explicit_tree,
    from_gaps_1d,
    from_ifs,
    parse_set_spec,
    perturbed_image,
    similarity_image,
    translate,
    word_str,
)
from thickgap.geometry import Ball, NormKind
from thickgap.metrics import thickness

SPECS = {
    "corner4_d2": {
        "norm": "linf",
        "dimension": 2,
        "generator": {"type": "corner", "n": 4, "ell": 0.4},
    },
    "corner4_d1": {
        "norm": "linf",
        "dimension": 1,
        "generator": {"type": "corner", "n": 4, "ell": 0.4},
    },
    "corner10_d2": {
        "norm": "linf",
        "dimension": 2,
        "generator": {"type": "corner", "n": 10, "ell": 0.19},
    },
    "corner10_d1": {
        "norm": "linf",
        "dimension": 1,
        "generator": {"type": "corner", "n": 10, "ell": 0.19},
    },
    "corner2_d1": {
        "norm": "linf",
        "dimension": 1,
        "generator": {"type": "corner", "n": 2, "ell": 2 / 3},
    },
    # T: a 2-D Linf IFS that is not an axis product
    "ifs_t": {
        "norm": "linf",
        "dimension": 2,
        "generator": {
            "type": "ifs",
            "maps": [
                {"lambda": 0.3, "t": [-0.55, -0.4]},
                {"lambda": 0.3, "t": [0.55, -0.4]},
                {"lambda": 0.3, "t": [0.0, 0.65]},
            ],
        },
    },
    "thirds": {
        "norm": "linf",
        "dimension": 1,
        "generator": {
            "type": "gaps1d",
            "hull": [0.0, 1.0],
            "gaps": [[1 / 3, 2 / 3]],
        },
    },
}


@pytest.fixture
def specs(tmp_path):
    paths = {}
    for name, obj in SPECS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        paths[name] = str(path)
    paths["bad"] = str(tmp_path / "bad.json")
    (tmp_path / "bad.json").write_text("{broken")
    return paths


def run(args, out_path=None):
    argv = list(args)
    if out_path is not None:
        argv += ["--out", str(out_path)]
    code = cli.main(argv)
    report = json.loads(out_path.read_text()) if out_path else None
    return code, report


class TestThickness:
    def test_corner_enclosure_and_config_echo(self, specs, tmp_path):
        out = tmp_path / "tau.json"
        code, report = run(
            ["thickness", "--spec", specs["corner4_d2"], "--depth", "5"], out
        )
        assert code == 0
        tau = report["tau"]
        assert tau["lo"] <= 3.0 <= tau["hi"]
        assert tau["converged"]
        cfg = report["config"]
        assert cfg["command"] == "thickness"
        assert cfg["depth"] == 5
        assert cfg["spec"] == specs["corner4_d2"]

    def test_middle_thirds_contains_one(self, specs, tmp_path):
        out = tmp_path / "tau.json"
        code, report = run(["thickness", "--spec", specs["thirds"]], out)
        assert code == 0
        assert report["tau"]["lo"] <= 1.0 <= report["tau"]["hi"]

    def test_thousand_nested_gaps(self, tmp_path):
        # each gap (hi - L/2, hi - L/4) leaves bridges L/2 and L/4 around a
        # gap of length L/4, and the next one nests in [lo, hi - L/2]
        lo, hi = 0.0, 1.0
        gaps = []
        for _ in range(1000):
            length = hi - lo
            gaps.append([hi - length / 2, hi - length / 4])
            hi -= length / 2
        spec = tmp_path / "nested.json"
        spec.write_text(
            json.dumps(
                {
                    "norm": "linf",
                    "dimension": 1,
                    "generator": {"type": "gaps1d", "hull": [0.0, 1.0], "gaps": gaps},
                }
            )
        )
        code, report = run(["thickness", "--spec", str(spec)], tmp_path / "tau.json")
        assert code == 0
        assert report["tau"]["lo"] <= 1.0 <= report["tau"]["hi"]


class TestInputErrors:
    def test_malformed_spec(self, specs):
        assert cli.main(["thickness", "--spec", specs["bad"]]) == 2

    def test_missing_file(self, tmp_path):
        assert cli.main(["thickness", "--spec", str(tmp_path / "nope.json")]) == 2

    def test_out_of_range_r(self, specs):
        code = cli.main(["gapcheck", "--spec", specs["thirds"], "--r", "0.6"])
        assert code == 2

    def test_usage_errors(self, specs):
        assert cli.main([]) == 2
        assert cli.main(["thickness"]) == 2
        assert cli.main(["gapcheck", "--spec", specs["thirds"]]) == 2

    @pytest.mark.parametrize("command", ["render", "thickness"])
    def test_corner_ell_whose_child_radius_underflows(self, command, tmp_path, capsys):
        gen = {"type": "corner", "n": 2, "ell": 5e-324}
        obj = {"norm": "linf", "dimension": 1, "generator": gen}
        with pytest.raises(SpecError, match="child radius ell / 2 rounds to 0"):
            parse_set_spec(obj)
        spec = tmp_path / "tiny.json"
        spec.write_text(json.dumps(obj))
        assert cli.main([command, "--spec", str(spec), "--out", str(tmp_path / "out")]) == 2
        assert "ell = 5e-324 is too small" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["render", "thickness"])
    def test_gap_piece_whose_radius_underflows(self, command, tmp_path, capsys):
        # the piece [0, 5e-324] left of the gap has half-width 5e-324 / 2,
        # which rounds to 0: the gap list names it, not Ball
        gen = {"type": "gaps1d", "hull": [0.0, 1.0], "gaps": [[5e-324, 0.5]]}
        obj = {"norm": "linf", "dimension": 1, "generator": gen}
        with pytest.raises(SpecError, match=r"degenerate piece \[0\.0, 5e-324\]"):
            parse_set_spec(obj)
        spec = tmp_path / "sliver.json"
        spec.write_text(json.dumps(obj))
        assert cli.main([command, "--spec", str(spec), "--out", str(tmp_path / "out")]) == 2
        assert "degenerate piece [0.0, 5e-324]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, n, d, ok",
        [
            ("thickness", 1000, 2, True),  # n**d at the cap
            ("thickness", 100, 3, True),
            ("thickness", 1001, 2, False),  # one row past it
            ("thickness", 101, 3, False),
            ("thickness", 2, 10**9, False),  # no 2**(10**9) is formed
            ("gapcheck --r 0.2", 100_000, 2, False),  # 10**10 children per node
        ],
    )
    def test_corner_children_per_node_cap(self, command, n, d, ok, tmp_path, capsys, monkeypatch):
        def no_block(self, word):
            raise AssertionError("a child block was built")

        monkeypatch.setattr(BallSystem, "_make_children", no_block)
        assert (n ** min(d, MAX_CHILDREN.bit_length()) <= MAX_CHILDREN) == ok
        obj = {"norm": "linf", "dimension": d, "generator": {"type": "corner", "n": n, "ell": 1 / n}}
        spec, out = tmp_path / "big.json", tmp_path / "out.json"
        spec.write_text(json.dumps(obj))
        code = cli.main([*command.split(), "--spec", str(spec), "--out", str(out)])
        if ok:
            assert code == 0 and json.loads(out.read_text())["tau"]["converged"]
        else:
            assert code == 2 and not out.exists()
            err = capsys.readouterr().err
            assert f"more than {MAX_CHILDREN:,} children per node" in err

    def test_ifs_maps_per_node_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ballsystem, "MAX_CHILDREN", 3)
        maps = [{"lambda": 0.15, "t": [x]} for x in (-0.6, -0.2, 0.2, 0.6)]
        obj = {"norm": "linf", "dimension": 1, "generator": {"type": "ifs", "maps": maps[:3]}}
        assert len(parse_set_spec(obj).child_block(())[1]) == 3
        obj["generator"]["maps"] = maps
        spec, out = tmp_path / "big.json", tmp_path / "out.json"
        spec.write_text(json.dumps(obj))
        assert cli.main(["thickness", "--spec", str(spec), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "ifs generator with 4 maps has more than 3 children per node" in err
        assert not out.exists()
        # the count is checked before any map is read
        obj["generator"]["maps"] = [None] * 4
        with pytest.raises(SpecError, match="more than 3 children per node"):
            parse_set_spec(obj)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n", math.inf, "corner n must be an integer, got inf"),
            ("n", 4.9, "corner n must be an integer, got 4.9"),
            ("dimension", True, "dimension must be a positive integer, got True"),
        ],
    )
    def test_non_integer_counts(self, field, value, message, tmp_path, capsys):
        obj = {"norm": "linf", "dimension": 2, "generator": {"type": "corner", "n": 4, "ell": 0.4}}
        if field == "n":
            obj["generator"]["n"] = value
        else:
            obj[field] = value
        spec, out = tmp_path / "spec.json", tmp_path / "out.csv"
        spec.write_text(json.dumps(obj))
        assert cli.main(["render", "--spec", str(spec), "--depth", "1", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize(
        "generator, got",
        [
            ({"type": "corner", "n": 4, "ell": "0.4"}, "'0.4'"),
            ({"type": "corner", "n": 4, "ell": True}, "True"),
            ({"type": "ifs", "maps": [{"lambda": "0.2", "t": [0.5]}]}, "'0.2'"),
            ({"type": "ifs", "maps": [{"lambda": 0.2, "t": [False]}]}, "False"),
            ({"type": "ifs", "maps": [{"lambda": 0.2, "t": "5"}]}, "'5'"),
            ({"type": "gaps1d", "hull": ["0", True], "gaps": []}, "'0'"),
            ({"type": "gaps1d", "hull": [0, 1], "gaps": [[0.2, False]]}, "False"),
        ],
    )
    def test_non_number_floats(self, generator, got, tmp_path, capsys):
        obj = {"norm": "linf", "dimension": 1, "generator": generator}
        message = f"invalid {generator['type']} generator: expected a JSON number, got {got}"
        with pytest.raises(SpecError, match="expected a JSON number"):
            parse_set_spec(obj)
        spec, out = tmp_path / "spec.json", tmp_path / "out.csv"
        spec.write_text(json.dumps(obj))
        assert cli.main(["render", "--spec", str(spec), "--depth", "1", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            "thickness --spec {corner4_d2} --seed 1",
            "gapcheck --spec {corner10_d2} --r 0.19556 --seed 1",
            "gapcheck --spec {corner10_d2} --r 0.19556 --tol 1e-6",
            "gapcheck --spec {corner10_d2} --r 0.19556 --steps 3",
            "intersect --spec {corner10_d2} --r 0.19556 --seed 1",
            "dims 2 17.1 256 --seed 1",
            "pattern --spec {corner10_d1} 0.05 0 1 2 --seed 1",
            "render --spec {corner4_d2} --seed 1",
        ],
    )
    def test_options_a_subcommand_does_not_read_are_usage_errors(self, argv, specs, capsys):
        assert cli.main(argv.format(**specs).split()) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("distances --spec {corner10_d2} --r 0.19556 --directions -2", "--steps must be"),
            ("distances --spec {corner10_d2} --r 0.19556 --steps 0", "--steps must be"),
            ("game --spec {corner4_d2} --alpha 0.5 --beta 0.2 --games -1", "--games must be"),
        ],
    )
    def test_counts_below_one_are_input_errors(self, argv, message, specs, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert cli.main([*argv.format(**specs).split(), "--out", str(out)]) == 2
        assert f"{message} at least 1" in capsys.readouterr().err
        assert not out.exists()


class TestParserReuse:
    def test_shared_parser_matches_a_fresh_one(self, specs, capsys, monkeypatch):
        """One process, one parser: each call prints exactly what a freshly
        built parser would, and no value of one call reaches the next."""
        calls = [
            ["gapcheck", "--spec", specs["corner10_d2"], "--shift2", "0.05,0.02", "--r", "0.2"],
            ["render", "--spec", specs["corner4_d2"]],
            ["thickness", "--spec", specs["corner4_d2"], "--depth", "2", "--tol", "1e-4"],
            ["thickness", "--spec", specs["corner4_d2"], "--depth", "2"],
            ["thickness", "--spec", specs["corner4_d2"], "--depth", "two"],
            ["--help"],
        ]

        def outputs():
            return [(cli.main(argv), *capsys.readouterr()) for argv in calls]

        cli.build_parser.cache_clear()
        shared = outputs()
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, len(calls) - 1)
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert outputs() == shared
        assert [code for code, _, _ in shared] == [0, 0, 0, 0, 2, 0]
        assert json.loads(shared[2][1])["config"]["tol"] == 1e-4
        assert json.loads(shared[3][1])["config"]["tol"] == 1e-9


class TestGapPair:
    def test_proven_pair(self, specs, tmp_path):
        out = tmp_path / "gap.json"
        code, report = run(
            [
                "gapcheck",
                "--spec",
                specs["corner10_d2"],
                "--shift2",
                "0.05,0.02",
                "--r",
                "0.19556",
            ],
            out,
        )
        assert code == 0
        assert report["hypotheses"]["all_proven"]
        assert report["hypotheses"]["tau_product"]["status"] == "proven"

    def test_refuted_pair(self, specs, tmp_path):
        out = tmp_path / "gap.json"
        code, report = run(
            [
                "gapcheck",
                "--spec",
                specs["thirds"],
                "--spec2",
                specs["thirds"],
                "--r",
                "0.4",
            ],
            out,
        )
        assert code == 4
        assert not report["hypotheses"]["all_proven"]

    def test_intersect_certificate(self, specs, tmp_path):
        out = tmp_path / "cert.json"
        code, report = run(
            [
                "intersect",
                "--spec",
                specs["corner10_d2"],
                "--shift2",
                "0.05,0.02",
                "--r",
                "0.19556",
                "--tol",
                "1e-6",
            ],
            out,
        )
        assert code == 0
        cert = report["certificate"]
        assert len(cert["witness"]) == 2
        assert cert["residual1"]["hi"] <= 1e-6
        assert cert["residual2"]["hi"] <= 1e-6
        radii = [step["radius"] for step in cert["trace"]]
        assert cert["trace"][0]["case"] == "Init"
        for a, b in zip(radii, radii[1:]):
            assert b <= 0.19556 * a * (1 + 1e-12)

    def test_failed_bridge_is_a_failed_step(self, tmp_path, capsys, monkeypatch):
        # a large-ball pair whose third step bridges; a bridge that fails its
        # containment check exits 5 like intersect's other step checks, not 2
        paths = []
        for n, ell in ((10, 0.13), (6, 0.3)):
            spec = {"norm": "linf", "dimension": 2, "generator": {"type": "corner", "n": n, "ell": ell}}
            paths.append(tmp_path / f"corner{n}.json")
            paths[-1].write_text(json.dumps(spec))
        argv = ["intersect", "--spec", str(paths[0]), "--spec2", str(paths[1])]
        argv += ["--shift2", "0.01,-0.02", "--r", "0.33"]
        real = gaplemma.intersect

        def failing_bridges(*args):
            monkeypatch.setattr(gaplemma, "ball_contains", lambda outer, inner, norm: False)
            return real(*args)

        monkeypatch.setattr(gaplemma, "intersect", failing_bridges)
        assert cli.main(argv) == cli.EXIT_UNKNOWN
        err = capsys.readouterr().err
        assert "bridge construction failed its containment check" in err
        assert "Traceback" not in err


class TestDistances:
    def test_full_table(self, specs, tmp_path):
        out = tmp_path / "dist.json"
        code, report = run(
            [
                "distances",
                "--spec",
                specs["corner10_d2"],
                "--r",
                "0.19556",
                "--directions",
                "16",
                "--steps",
                "8",
            ],
            out,
        )
        assert code == 0
        assert report["summary"] == {
            "total": 128,
            "ok": 128,
            "failed": 0,
            "out_of_scope": 0,
        }
        assert report["t_limit"] == pytest.approx(0.6423597424779924, rel=1e-12)
        assert all(row["residual"] <= 1e-6 for row in report["rows"])

    def test_one_dimension_uses_sign_directions(self, specs, tmp_path):
        out = tmp_path / "dist.json"
        code, report = run(
            [
                "distances",
                "--spec",
                specs["corner10_d1"],
                "--r",
                "0.19556",
                "--directions",
                "99",
                "--steps",
                "3",
            ],
            out,
        )
        assert code == 0
        dirs = {tuple(row["direction"]) for row in report["rows"]}
        assert dirs == {(1.0,), (-1.0,)}
        assert report["summary"]["total"] == 6

    def test_grid_beyond_limit_is_marked_not_failed(self, specs, tmp_path):
        out = tmp_path / "dist.json"
        code, report = run(
            [
                "distances",
                "--spec",
                specs["corner10_d1"],
                "--r",
                "0.19556",
                "--steps",
                "6",
                "--tmax",
                "1.2",
            ],
            out,
        )
        assert code == 0
        assert report["summary"]["failed"] == 0
        assert report["summary"]["out_of_scope"] == 6
        flagged = [row for row in report["rows"] if row["status"] == "out_of_scope"]
        assert all(row["t"] > report["t_limit"] for row in flagged)

    def test_refuted_hypotheses_exit(self, specs):
        code = cli.main(
            ["distances", "--spec", specs["corner2_d1"], "--r", "0.19556"]
        )
        assert code == 4


class TestGameCommand:
    def test_batch_report_and_transcripts(self, specs, tmp_path):
        out = tmp_path / "game.json"
        argv = [
            "game",
            "--spec",
            specs["corner4_d2"],
            "--alpha",
            str(1 / 3),
            "--beta",
            "0.2",
            "--games",
            "25",
        ]
        code, report = run(argv, out)
        assert code == 0
        assert report["violations"] == 0
        assert sum(report["classifications"].values()) == 25
        assert set(report["classifications"]) <= {"in_target", "erased"}
        transcripts = sorted(tmp_path.glob("game-seed*.jsonl"))
        assert len(transcripts) == 25
        first = json.loads(transcripts[0].read_text().splitlines()[0])
        assert first["player"] == "bob" and "ball" in first

    def test_seeded_rerun_is_bit_identical(self, specs, tmp_path):
        argv = [
            "game",
            "--spec",
            specs["corner4_d2"],
            "--alpha",
            str(1 / 3),
            "--beta",
            "0.2",
            "--games",
            "5",
            "--seed",
            "42",
        ]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(argv + ["--out", str(out1)]) == 0
        assert cli.main(argv + ["--out", str(out2)]) == 0
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        a["config"].pop("out"), b["config"].pop("out")
        assert a == b

    def test_corner_board_with_touching_children_is_an_input_error(self, tmp_path, capsys):
        # the largest float ell below 2/5: neighbouring float children touch
        spec = tmp_path / "touching.json"
        ell = math.nextafter(2 / 5, 0)
        spec.write_text(json.dumps(
            {"norm": "linf", "dimension": 2, "generator": {"type": "corner", "n": 5, "ell": ell}}
        ))
        argv = ["game", "--spec", str(spec), "--alpha", "0.5", "--beta", "0.5", "--games", "1"]
        assert cli.main(argv) == 2
        assert "first-level balls overlap" in capsys.readouterr().err

    def test_zero_alpha_is_an_input_error(self, specs, capsys):
        argv = ["game", "--spec", specs["corner4_d2"], "--alpha", "0", "--beta", "0.2", "--games", "1"]
        assert cli.main(argv) == 2
        assert "alpha must be positive, got 0.0" in capsys.readouterr().err

    def test_erase_budget_whose_power_overflows(self, specs, tmp_path):
        argv = [
            "game", "--spec", specs["corner4_d2"], "--alpha", "1e300", "--beta", "0.5",
            "--c", "2", "--games", "1",
        ]
        code, report = run(argv, tmp_path / "game.json")
        assert code == 0
        assert report["violations"] == 0 and report["params"]["c"] == 2.0


class TestDims:
    def test_formula_value_and_caveat(self, tmp_path):
        out = tmp_path / "dims.json"
        code, report = run(["dims", "2", "3", "16"], out)
        assert code == 0
        assert abs(report["formula_bound"] - 1.81198) < 1e-4
        assert "d >= 2" in report["caveat"]

    def test_one_dimensional_case_has_no_caveat(self, tmp_path):
        out = tmp_path / "dims.json"
        code, report = run(["dims", "1", "1", "2"], out)
        assert code == 0
        assert report["formula_bound"] == pytest.approx(0.5, rel=1e-12)
        assert report["caveat"] is None

    def test_game_bound_attaches_when_requested(self, tmp_path):
        out = tmp_path / "dims.json"
        code, report = run(
            ["dims", "2", "3", "16", "--alpha", "0.1", "--beta", "0.25", "--c", "0.5"],
            out,
        )
        assert code == 0
        winning = report["winning"]
        assert winning["condition_met"]
        assert winning["bound"] == pytest.approx(1.9278652479555518, rel=1e-12)
        assert winning["k"] == {"K1": 1.0, "K2": 1.0}


class TestPattern:
    def test_witnesses_found(self, specs, tmp_path):
        out = tmp_path / "pat.json"
        code, report = run(
            ["pattern", "--spec", specs["corner10_d1"], "0.05", "0", "1", "2"],
            out,
        )
        assert code == 0
        assert report["count"] >= 1
        assert report["count"] == len(report["witnesses"])

    def test_unmatched_pattern_reports_unknown(self, specs, tmp_path):
        out = tmp_path / "pat.json"
        code, report = run(
            ["pattern", "--spec", specs["thirds"], "0.18", "0", "1", "2"], out
        )
        assert code == 5
        assert report["count"] == 0

    def test_oversize_grid_is_an_input_error(self, specs, capsys, monkeypatch):
        # the grid is sized from its span and step before any array exists;
        # a lowered cap stands in for a grid too large to allocate
        monkeypatch.setattr(game, "_GRID_CAP", 1_000)
        args = ["pattern", "--spec", specs["corner10_d2"], "0.05", "0,0", "1,0"]
        assert cli.main([*args, "--grid", "0.01"]) == 2
        assert "exceeds the cap of 1,000" in capsys.readouterr().err

    def test_scale_outside_admissible_interval(self, specs):
        code = cli.main(
            ["pattern", "--spec", specs["corner10_d1"], "0.4", "0", "1", "2"]
        )
        assert code == 2


def _walk_dump(sys, depth):
    """The render CSV as BallSystem.walk and word_str give it."""
    lines = []
    for word, ball in sys.walk(depth):
        cells = [word_str(word)]
        cells.extend(repr(c) for c in ball.center)
        cells.append(repr(ball.radius))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


_RENDER_IFS = HomotheticIFS(((0.3, (-0.5, -0.4)), (0.3, (0.5, -0.4)), (0.25, (0.0, 0.6))))


def _render_corner():
    return corner_family(CornerFamilyParams(n=3, ell=0.3, d=2))


def _render_gaps():
    return from_gaps_1d(
        GapList1D(hull=(-1.0, 1.0), gaps=((-0.2, 0.3), (-0.9, -0.6), (0.5, 0.55), (-0.5, -0.45)))
    )


def _render_explicit():
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


def _render_signed_zeros():
    # 0.0 == -0.0 and they hash alike, but their reprs differ
    return explicit_tree(
        NormKind.L2,
        2,
        [
            ((), Ball((-0.0, 0.0), 1.0)),
            ((0,), Ball((0.0, -0.0), 0.5)),
            ((1,), Ball((-0.0, 0.75), 0.25)),
            ((0, 0), Ball((-0.0, -0.0), 0.25)),
            ((0, 1), Ball((0.0, 0.0), 0.25)),
        ],
    )


def _warp(p):
    return tuple(x + 0.01 * math.sin(3 * x + k) for k, x in enumerate(p))


_RENDER_SYSTEMS = {
    "corner": _render_corner,
    "ifs_l2": lambda: from_ifs(_RENDER_IFS, NormKind.L2),
    "ifs_linf": lambda: from_ifs(_RENDER_IFS, NormKind.LINF),
    "gaps1d": _render_gaps,
    "explicit": _render_explicit,
    "translate": lambda: translate(_render_corner(), (0.05, -0.02)),
    # the corner systems above and below render from per-axis rows; the
    # perturbed image of a corner has no grid and reads child blocks
    "corner_d1": lambda: corner_family(CornerFamilyParams(n=10, ell=0.19, d=1)),
    "corner_d3": lambda: corner_family(CornerFamilyParams(n=3, ell=0.3, d=3)),
    "chain": lambda: similarity_image(
        translate(_render_corner(), (0.05, -0.02)), 0.7, (-0.3, 0.125)
    ),
    "similarity": lambda: similarity_image(from_ifs(_RENDER_IFS, NormKind.L2), 0.7, (0.1, 0.2)),
    "perturbed": lambda: perturbed_image(_render_corner(), _warp, eps=0.05),
    "signed_zeros": _render_signed_zeros,
}

# corner systems whose child floats fail a check at depth 1, with the
# block walk's error, and one whose floats pass; the grid reader must
# raise what the block walk raises
_RENDER_EXTREMES = {
    # the child radius underflows to 0
    "underflow": (
        lambda: similarity_image(_render_corner(), 5e-324, (0.0, 0.0)),
        "ball radius must be positive and finite",
    ),
    "subnormal": (lambda: similarity_image(_render_corner(), 1e-320, (0.0, 0.0)), None),
    # the children right of the root center overflow
    "overflow": (
        lambda: similarity_image(_render_corner(), 1e308, (1.7e308, 0.0)),
        "point coordinates must be finite",
    ),
    # the inner map's children right of center overflow, which the block
    # walk finds first, and the outer map's child radius underflows
    "inner_overflow": (
        lambda: similarity_image(
            similarity_image(
                similarity_image(_render_corner(), 1e308, (1.7e308, 0.0)), 1e-308, (0.0, 0.0)
            ),
            1e-323,
            (0.0, 0.0),
        ),
        "point coordinates must be finite",
    ),
}


class TestRender:
    def test_row_counts(self, specs, tmp_path):
        out = tmp_path / "dump.csv"
        assert cli.main(
            ["render", "--spec", specs["corner4_d2"], "--depth", "2", "--out", str(out)]
        ) == 0
        rows = out.read_text().strip().split("\n")
        assert len(rows) == 1 + 16 + 256
        assert rows[0].split(",")[0] == ""

    def test_depth_zero_is_root_only(self, specs, tmp_path):
        out = tmp_path / "dump.csv"
        assert cli.main(
            ["render", "--spec", specs["corner4_d2"], "--depth", "0", "--out", str(out)]
        ) == 0
        rows = out.read_text().strip().split("\n")
        assert len(rows) == 1

    def test_interval_endpoints_recoverable(self, specs, tmp_path):
        out = tmp_path / "dump.csv"
        assert cli.main(
            ["render", "--spec", specs["thirds"], "--depth", "1", "--out", str(out)]
        ) == 0
        endpoints = set()
        for row in out.read_text().strip().split("\n")[1:]:
            _, center, radius = row.split(",")
            endpoints.add(round(float(center) - float(radius), 12))
            endpoints.add(round(float(center) + float(radius), 12))
        assert endpoints == {0.0, round(1 / 3, 12), round(2 / 3, 12), 1.0}

    def test_stdout_when_no_output_path(self, specs, capsys):
        assert cli.main(["render", "--spec", specs["corner4_d1"], "--depth", "0"]) == 0
        captured = capsys.readouterr().out
        assert captured.strip() == ",0.0,1.0"

    def test_negative_depth_is_an_input_error(self, specs, tmp_path, capsys):
        out = tmp_path / "dump.csv"
        code = cli.main(
            ["render", "--spec", specs["corner4_d2"], "--depth", "-1", "--out", str(out)]
        )
        assert code == 2
        assert "render depth must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(_RENDER_SYSTEMS))
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_dump_equals_the_walk(self, name, depth, tmp_path, monkeypatch):
        make = _RENDER_SYSTEMS[name]
        monkeypatch.setattr(cli, "_load_system", lambda path: make())
        out = tmp_path / "dump.csv"
        assert cli.main(["render", "--spec", "unused", "--depth", str(depth), "--out", str(out)]) == 0
        assert out.read_text() == _walk_dump(make(), depth)
        assert cli._render_rows(make(), depth) == out.read_text().count("\n")

    @pytest.mark.parametrize(
        "name, depth, cap, ok",
        [
            ("corner4_d2", 1, 17, True),  # 1 + 16 rows, at the cap
            ("corner4_d2", 2, 17, False),  # 1 + 16 + 256
            ("corner4_d2", 100, None, False),  # 16**100 rows at the real cap
            ("thirds", 1, 3, True),  # the root and its two pieces
            ("thirds", 1, 2, False),
            ("thirds", 10**9, 3, True),  # a finite tree ends
        ],
    )
    def test_row_cap_is_checked_before_any_row(
        self, name, depth, cap, ok, specs, tmp_path, capsys, monkeypatch
    ):
        if cap is not None:
            monkeypatch.setattr(cli, "MAX_RENDER_ROWS", cap)
        if not ok:
            monkeypatch.setattr(cli, "_ReprCache", None)  # formats no row
            monkeypatch.setattr(ballsystem.CornerGrid, "axes", None)  # reads no child row
        out = tmp_path / "dump.csv"
        code = cli.main(["render", "--spec", specs[name], "--depth", str(depth), "--out", str(out)])
        if ok:
            assert code == 0 and len(out.read_text().splitlines()) == cap
        else:
            assert code == 2 and not out.exists()
            assert f"writes more than {cli.MAX_RENDER_ROWS:,} rows" in capsys.readouterr().err

    def test_dump_from_spec_equals_the_walk(self, specs, tmp_path):
        out = tmp_path / "dump.csv"
        assert cli.main(
            ["render", "--spec", specs["corner4_d2"], "--depth", "3", "--out", str(out)]
        ) == 0
        assert out.read_text() == _walk_dump(parse_set_spec(SPECS["corner4_d2"]), 3)


    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_corner_images_dump_equals_the_walk(self, data, tmp_path_factory):
        n, d = data.draw(st.integers(2, 10)), data.draw(st.integers(1, 3))
        ell = data.draw(st.floats(0.01, 0.99)) * 2 / n
        sys = corner_family(CornerFamilyParams(n, ell, d))
        for kind in data.draw(st.lists(st.sampled_from(["translate", "similarity"]), max_size=2)):
            shift = tuple(data.draw(st.floats(-2.0, 2.0)) for _ in range(d))
            if kind == "translate":
                sys = translate(sys, shift)
            else:
                sys = similarity_image(sys, data.draw(st.floats(0.01, 50.0)), shift)
        # a depth in 0..3, cut to at most a few thousand last-level rows
        depth = data.draw(st.integers(0, 3))
        while depth and (n**d) ** depth > 5_000:
            depth -= 1
        out = tmp_path_factory.getbasetemp() / "corner-images.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_load_system", lambda path: sys)
            argv = ["render", "--spec", "unused", "--depth", str(depth), "--out", str(out)]
            assert cli.main(argv) == 0
        assert out.read_text() == _walk_dump(sys, depth)

    @pytest.mark.parametrize("shift", [None, (0.05, -0.02)])
    def test_corner_grid_render_builds_no_child_block(self, shift, tmp_path, monkeypatch):
        sys = _render_corner() if shift is None else translate(_render_corner(), shift)
        monkeypatch.setattr(cli, "_load_system", lambda path: sys)
        out = tmp_path / "dump.csv"
        assert cli.main(["render", "--spec", "unused", "--depth", "3", "--out", str(out)]) == 0
        assert out.read_text().count("\n") == 1 + 9 + 81 + 729
        assert sys._blocks == {} and (sys.core or sys)._blocks == {}

    @pytest.mark.parametrize("name", sorted(_RENDER_EXTREMES))
    @pytest.mark.parametrize("depth", [1, 3])
    def test_corner_grid_render_errors_are_the_walks(
        self, name, depth, tmp_path, capsys, monkeypatch
    ):
        make, error = _RENDER_EXTREMES[name]
        monkeypatch.setattr(cli, "_load_system", lambda path: make())
        out = tmp_path / "dump.csv"
        code = cli.main(["render", "--spec", "unused", "--depth", str(depth), "--out", str(out)])
        if error is None:
            assert code == 0 and out.read_text() == _walk_dump(make(), depth)
            return
        with pytest.raises(ValueError, match=error):
            _walk_dump(make(), depth)
        assert code == 2 and not out.exists()
        assert f"error: {error}" in capsys.readouterr().err

    def test_a_repr_cache_that_stores_zeros_fails_the_walk(self, tmp_path, monkeypatch):
        def store_every_value(cache, x):
            text = cache[x] = repr(x)
            return text

        monkeypatch.setattr(cli._ReprCache, "__missing__", store_every_value)
        monkeypatch.setattr(cli, "_load_system", lambda path: _render_signed_zeros())
        out = tmp_path / "dump.csv"
        assert cli.main(["render", "--spec", "unused", "--depth", "2", "--out", str(out)]) == 0
        assert out.read_text() != _walk_dump(_render_signed_zeros(), 2)


class TestBudgetExit:
    """A search stopped by a cap on its work exits 3, and says which cap."""

    PAIR = ["--shift2", "0.05,0.02", "--r", "0.19556"]

    def test_intersect_out_of_steps(self, specs, capsys):
        argv = ["intersect", "--spec", specs["corner10_d2"], *self.PAIR, "--steps", "1"]
        assert cli.main(argv) == cli.EXIT_NO_CONVERGE
        err = capsys.readouterr().err
        assert "max_steps = 1" in err and "Traceback" not in err

    def test_locate_out_of_pops(self, specs, capsys, monkeypatch):
        monkeypatch.setattr(gaplemma, "_FIND_BUDGET", 3)
        argv = ["intersect", "--spec", specs["corner10_d2"], *self.PAIR]
        assert cli.main(argv) == cli.EXIT_NO_CONVERGE
        assert "_FIND_BUDGET = 3" in capsys.readouterr().err

    DISTANCES = ["distances", "--r", "0.19556", "--directions", "2", "--steps", "2"]

    def test_distances_out_of_pops(self, specs, tmp_path, monkeypatch):
        # every row hits the cap, so the table did not converge
        monkeypatch.setattr(gaplemma, "_FIND_BUDGET", 3)
        argv = [*self.DISTANCES, "--spec", specs["corner10_d2"]]
        code, report = run(argv, tmp_path / "d.json")
        assert code == cli.EXIT_NO_CONVERGE
        assert report["summary"] == {"total": 4, "ok": 0, "failed": 4, "out_of_scope": 0}
        assert all("_FIND_BUDGET = 3" in row["error"] for row in report["rows"])

    def test_distances_failure_past_a_cap_is_unknown(self, specs, tmp_path, monkeypatch):
        # a plain RuntimeError is no hit cap, even among capped rows
        seen = []

        def fail_second(sys, v, t, tol, *, r):
            seen.append(t)
            if len(seen) == 2:
                raise RuntimeError("no child fits")
            raise ballsystem.BudgetExceeded("a cap")

        monkeypatch.setattr(gaplemma, "directional_distance_certificate", fail_second)
        argv = [*self.DISTANCES, "--spec", specs["corner10_d2"]]
        code, report = run(argv, tmp_path / "d.json")
        assert code == cli.EXIT_UNKNOWN
        assert [row["status"] for row in report["rows"]] == ["failed"] * 4
        assert report["rows"][1]["error"] == "no child fits"

    def test_pattern_cover_out_of_nodes(self, specs, capsys, monkeypatch):
        monkeypatch.setattr(game, "_COVER_NODES", 50)
        argv = ["pattern", "--spec", specs["ifs_t"], "0.1", "0,0", "1,0", "--grid", "0.01"]
        assert cli.main([*argv, "--tol", "0.01"]) == cli.EXIT_NO_CONVERGE
        assert "node budget 50" in capsys.readouterr().err
