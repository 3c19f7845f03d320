"""End-to-end tests of the command-line interface and its exit-code contract."""

import json
import math

import pytest

from thickgap import cli
from thickgap.ballsystem import (
    CornerFamilyParams,
    GapList1D,
    HomotheticIFS,
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


def _warp(p):
    return tuple(x + 0.01 * math.sin(3 * x + k) for k, x in enumerate(p))


_RENDER_SYSTEMS = {
    "corner": _render_corner,
    "ifs_l2": lambda: from_ifs(_RENDER_IFS, NormKind.L2),
    "ifs_linf": lambda: from_ifs(_RENDER_IFS, NormKind.LINF),
    "gaps1d": _render_gaps,
    "explicit": _render_explicit,
    "translate": lambda: translate(_render_corner(), (0.05, -0.02)),
    "similarity": lambda: similarity_image(from_ifs(_RENDER_IFS, NormKind.L2), 0.7, (0.1, 0.2)),
    "perturbed": lambda: perturbed_image(_render_corner(), _warp, eps=0.05),
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

    def test_round_trip_thickness_match(self, specs, tmp_path):
        out = tmp_path / "dump.csv"
        assert cli.main(
            ["render", "--spec", specs["corner4_d1"], "--depth", "3", "--out", str(out)]
        ) == 0
        rebuilt = cli.system_from_render_csv(out.read_text(), NormKind.LINF, 1)
        original = parse_set_spec(SPECS["corner4_d1"])
        t_orig = thickness(original, 3, 1e-9)
        t_back = thickness(rebuilt, 3, 1e-9)
        mid_orig = (t_orig.overall.lo + t_orig.overall.hi) / 2
        mid_back = (t_back.overall.lo + t_back.overall.hi) / 2
        assert abs(mid_orig - mid_back) <= 1e-9

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

    def test_dump_from_spec_equals_the_walk(self, specs, tmp_path):
        out = tmp_path / "dump.csv"
        assert cli.main(
            ["render", "--spec", specs["corner4_d2"], "--depth", "3", "--out", str(out)]
        ) == 0
        assert out.read_text() == _walk_dump(parse_set_spec(SPECS["corner4_d2"]), 3)

