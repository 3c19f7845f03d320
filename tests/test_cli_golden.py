"""Golden outputs of the command-line interface.

Each case runs `cli.main` in-process with `--out` and compares the SHA-256
of what it wrote (the JSON report without its `config` block, CSV text or
JSONL transcripts) and its exit code against values recorded from an
earlier release. A refactor that keeps the maths must keep every digest.
Run this file as a script to print the digests of the current code.

Each JSON report's `config` is checked too: it holds exactly the arguments
its subcommand's parser declares, and the command line rebuilt from it
reproduces the report.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import pytest

from thickgap import cli

SPECS = Path(__file__).resolve().parents[1] / "bench" / "specs"

# 2-D L1 IFS: four maps of ratio 0.3 pushed 0.65 along each half-axis
L1_BOARD = {
    "norm": "l1",
    "dimension": 2,
    "generator": {
        "type": "ifs",
        "maps": [
            {"lambda": 0.3, "t": [0.65, 0.0]},
            {"lambda": 0.3, "t": [-0.65, 0.0]},
            {"lambda": 0.3, "t": [0.0, 0.65]},
            {"lambda": 0.3, "t": [0.0, -0.65]},
        ],
    },
}

# the 1-D gap list G: hull [-1, 1] and two gaps, the second nested in the
# right piece of the first
GAPS_G = {
    "norm": "linf",
    "dimension": 1,
    "generator": {"type": "gaps1d", "hull": [-1.0, 1.0], "gaps": [[-0.25, 0.25], [0.251, 0.749]]},
}


def middle_thirds_spec(levels):
    """The middle-thirds gap list on [0, 1] down to the given level."""
    gaps, pieces = [], [(0.0, 1.0)]
    for _ in range(levels):
        grown = []
        for a, b in pieces:
            third = (b - a) / 3
            gaps.append([a + third, b - third])
            grown.extend([(a, a + third), (b - third, b)])
        pieces = grown
    return {
        "norm": "linf",
        "dimension": 1,
        "generator": {"type": "gaps1d", "hull": [0.0, 1.0], "gaps": gaps},
    }


def corner_spec(n, ell, d):
    return {"norm": "linf", "dimension": d, "generator": {"type": "corner", "n": n, "ell": ell}}


# a large-ball pair: corner n = 10, ell = 0.13 against corner n = 6,
# ell = 0.3, whose located balls stay large enough for Case1 steps
LARGE_BALL = {"a": (10, 0.13), "b": (6, 0.3)}

PAIR = ["--shift2", "0.05,0.02", "--r", "0.19556"]
GAME_GAMES = 20

# name -> (argv with {spec dir} placeholders, output file name)
CASES = {
    "thickness-corner10": (["thickness", "--spec", "{specs}/corner10.json"], "out.json"),
    "thickness-ifs_l2": (["thickness", "--spec", "{specs}/ifs_l2.json", "--tol", "1e-6"], "out.json"),
    "thickness-ifs_linf": (
        ["thickness", "--spec", "{specs}/ifs_linf.json", "--tol", "1e-6"],
        "out.json",
    ),
    "thickness-l1": (
        ["thickness", "--spec", "{tmp}/l1.json", "--depth", "2", "--tol", "1e-2"],
        "out.json",
    ),
    "gapcheck-corner10": (["gapcheck", "--spec", "{specs}/corner10.json", *PAIR], "out.json"),
    "intersect-corner10": (
        ["intersect", "--spec", "{specs}/corner10.json", *PAIR, "--tol", "1e-6"],
        "out.json",
    ),
    "gapcheck-ifs_l2": (["gapcheck", "--spec", "{specs}/ifs_l2.json", "--r", "0.2"], "out.json"),
    "distances-corner10": (
        [
            "distances", "--spec", "{specs}/corner10.json", "--r", "0.19556",
            "--directions", "4", "--steps", "3",
        ],
        "out.json",
    ),
    "game-corner4": (
        [
            "game", "--spec", "{specs}/corner4.json", "--alpha", "0.3333333333",
            "--beta", "0.2", "--games", str(GAME_GAMES),
        ],
        "out.json",
    ),
    "pattern-corner10d1": (
        [
            "pattern", "--spec", "{specs}/corner10d1.json", "0.05", "0", "1", "2",
            "--grid", "1e-3", "--tol", "1e-3",
        ],
        "out.json",
    ),
    "pattern-corner10d1-bench": (
        [
            "pattern", "--spec", "{specs}/corner10d1.json", "0.05", "0", "1", "2",
            "--grid", "1e-5", "--tol", "1e-5",
        ],
        "out.json",
    ),
    "intersect-largeball": (
        [
            "intersect", "--spec", "{tmp}/a2.json", "--spec2", "{tmp}/b2.json",
            "--shift2", "0.01,-0.02", "--r", "0.33",
        ],
        "out.json",
    ),
    "intersect-largeball-d1": (
        [
            "intersect", "--spec", "{tmp}/a1.json", "--spec2", "{tmp}/b1.json",
            "--shift2", "0.01", "--r", "0.33",
        ],
        "out.json",
    ),
    "render-corner4": (["render", "--spec", "{specs}/corner4.json", "--depth", "3"], "out.csv"),
    "render-corner4-bench": (
        ["render", "--spec", "{specs}/corner4.json", "--depth", "4"],
        "out.csv",
    ),
}

# four commands on each finite tree: the gap list G and the depth-5
# middle-thirds list
for _spec in ("gaps_g", "thirds5"):
    CASES.update({
        f"thickness-{_spec}": (
            ["thickness", "--spec", f"{{tmp}}/{_spec}.json", "--depth", "3"], "out.json"
        ),
        f"render-{_spec}": (["render", "--spec", f"{{tmp}}/{_spec}.json", "--depth", "3"], "out.csv"),
        f"gapcheck-{_spec}": (
            ["gapcheck", "--spec", f"{{tmp}}/{_spec}.json", "--r", "0.1", "--depth", "1"],
            "out.json",
        ),
        f"pattern-{_spec}": (
            ["pattern", "--spec", f"{{tmp}}/{_spec}.json", "0.1", "0", "1", "--grid", "1e-3",
             "--tol", "1e-3"],
            "out.json",
        ),
    })

# (exit code, SHA-256 of the outputs), recorded before the `threads` option
# was removed and the norm and gap formulas were given one home each; the
# three IFS cases re-recorded when product IFS (both bench IFS specs) got
# exact per-axis distances and Linf holes, which moved their digits; the
# five corner cases and thickness-ifs_linf re-recorded when corner families
# joined the padded axis-product path and Linf product holes took their
# closed form, which moved their digits; the two bench-size cases (the
# benchmark's 121,882-witness pattern scan and 69,905-row render) recorded
# before render and the pattern scan stopped formatting per value;
# gapcheck-ifs_l2 re-recorded when the L2 grid check began refuting from
# its most interior childless grid ball, which turned both its unknown
# denseness verdicts into refuted ones, and again when every enclosure
# began working out its own converged flag, which turned its
# tau_product.lhs (1.15e-3 wide at tol 1e-3) from converged to not;
# gapcheck-, intersect- and distances-corner10 re-recorded when corner
# families lost their closed-form denseness route, which could prove r
# where the float tree is not dense: their two denseness methods read
# box-exact in place of corner-exact, and nothing else moved; the eight
# finite-tree cases (gaps_g, thirds5) recorded while finite trees still kept
# their nodes in a separate node table; the two large-ball cases recorded
# before Init, Case1 and Case2 shared one relocation
GOLDEN = {
    "distances-corner10": (0, "c9b1e4b7bf82856500c33213edf55764d87707820462b6707d8168dcb73dea92"),
    "game-corner4": (0, "22ef87024a7d9271823dc62317d02baac56c46292a535d9de4c04d67361d7f21"),
    "gapcheck-corner10": (0, "dcc0f5b0c697fde83430dcb8124edb2a3c1b0264073ecc56d4d4e5bc6bb0729a"),
    "gapcheck-ifs_l2": (4, "b4732491e80dc52a40283643251bf2380bf2db9e39f15df5895ff24b1c9bbcbe"),
    "intersect-largeball": (0, "502ef066e958eec0a5b5d069751ad0a6d14af166a12b60fdf572bb06bd52dbde"),
    "intersect-largeball-d1": (0, "a25950718fbc78647c911381d07adc9387283c6ca69249459f21fa11d4f3e77e"),
    "intersect-corner10": (0, "db39dab894bacb0a92e97e6e54504590d0b748227aaca55eef894388a65bbda3"),
    "pattern-corner10d1": (0, "3b0be0ac349bf787fd6aa5b9a68771598701f53cdeae62887d26648aac955d48"),
    "pattern-corner10d1-bench": (0, "6c150cbae7a4c2b9672df67c0d27ab8ebe3f22a7c824bd41b94241b9356d669e"),
    "render-corner4": (0, "bc099c0b0833122f0fc014acfce4d8e3d3a1262a570d5f88b9072c3147ff3411"),
    "render-corner4-bench": (0, "3e3fb54ba252b330f5fea3ff0c839653ab9679d478bf2c1e2012ac2e41d25c2e"),
    "thickness-corner10": (0, "12336168befff0fc2cf1ca1f3bc46aabc8ea747768dd722954e39a42f2b1b2ad"),
    "thickness-ifs_l2": (0, "0c03030fe3045bdfb0b0645b858006088e71b9b92f1747257c7cfd74bcc2ec54"),
    "thickness-ifs_linf": (0, "763389614a7d811495206e190f69c8a71bbd396ab35aed0c7ad23154ecc8489f"),
    "thickness-l1": (0, "16d700f71046409864c583b280f045cb7c0a668dd16706dd34f1e5f03c723215"),
    "gapcheck-gaps_g": (4, "868230df5ac76976124b4141820e5c996a0f5386112de7205ab7b897bd420d4a"),
    "gapcheck-thirds5": (4, "fb652c094809663f9142150675dacf3514d989f5c526dbcfa3222f9e4fef37ae"),
    "pattern-gaps_g": (0, "a601a21ec17c7e782319d73165ed10a4144f04650b4817577ea36e1f9e5a9967"),
    "pattern-thirds5": (0, "d33ef1de3a5b71c5c07a3563b782d1ec7d9e562f15819fa7ff22bf260f50da6a"),
    "render-gaps_g": (0, "4787d3563bb45e6229db0619558c90b0a8027c65dbda241e5b33144d47914afe"),
    "render-thirds5": (0, "7e9439dacf06457c427610aa3bc2b5f7b3da26ae47c1770b6ace30f085efa1db"),
    "thickness-gaps_g": (0, "6bd954ab8ea0f1292ee683c97ef5bb9f2942b1f26907659b7c651ba35b26e45b"),
    "thickness-thirds5": (0, "903f1a2008f9e8f2505cc38b74112d92ab2070c6a14227099dee282e19430846"),
}


def run_case(name, tmp):
    """Run one case in the directory tmp; returns (exit code, digest, config)."""
    tmp = Path(tmp)
    (tmp / "l1.json").write_text(json.dumps(L1_BOARD))
    (tmp / "gaps_g.json").write_text(json.dumps(GAPS_G))
    (tmp / "thirds5.json").write_text(json.dumps(middle_thirds_spec(5)))
    for side, (n, ell) in LARGE_BALL.items():
        for d in (1, 2):
            (tmp / f"{side}{d}.json").write_text(json.dumps(corner_spec(n, ell, d)))
    argv, out_name = CASES[name]
    return run_argv([a.format(specs=SPECS, tmp=tmp) for a in argv], tmp / out_name)


def run_argv(argv, out):
    """Run argv with --out out; returns (exit code, digest, config)."""
    argv = [*argv, "--out", str(out)]
    code = cli.main(argv)
    digest = hashlib.sha256()
    config = None
    if out.suffix == ".json":
        report = json.loads(out.read_text())
        config = report.pop("config")
        digest.update(json.dumps(report, sort_keys=True).encode())
    else:
        digest.update(out.read_bytes())
    if argv[0] == "game":
        for seed in range(GAME_GAMES):
            digest.update(Path(cli._transcript_path(str(out), seed)).read_bytes())
    return code, digest.hexdigest(), config


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_recorded_digest(name, tmp_path):
    code, digest, config = run_case(name, tmp_path)
    assert (code, digest) == GOLDEN[name]
    if config is not None:
        assert "threads" not in config


def subcommand_parsers():
    """Subcommand name -> its parser, read from the one CLI parser."""
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def parsed_dests(command):
    """The names the parser of command stores arguments under, plus `command`."""
    actions = subcommand_parsers()[command]._actions
    return {"command"} | {a.dest for a in actions if not isinstance(a, argparse._HelpAction)}


def argv_from_config(config):
    """The command line that config records, without --out."""
    def text(value):
        return ",".join(map(str, value)) if isinstance(value, list) else str(value)

    argv = [config["command"]]
    for action in subcommand_parsers()[config["command"]]._actions:
        value = config.get(action.dest)
        if action.dest == "out" or value is None:
            continue
        values = value if action.nargs == "+" else [value]
        if action.option_strings:
            argv += [f"{action.option_strings[0]}={text(v)}" for v in values]
        else:
            argv += [text(v) for v in values]
    return argv


# one cheap command per subcommand that writes JSON
CONFIG_ARGV = {
    "thickness": ["thickness", "--spec", "{specs}/corner4.json", "--depth", "1"],
    "gapcheck": ["gapcheck", "--spec", "{specs}/corner10.json", *PAIR, "--depth", "1"],
    "intersect": [
        "intersect", "--spec", "{specs}/corner10.json", *PAIR, "--tol", "1e-6", "--depth", "1",
    ],
    "distances": [
        "distances", "--spec", "{specs}/corner10.json", "--r", "0.19556",
        "--directions", "2", "--steps", "2",
    ],
    "game": ["game", "--spec", "{specs}/corner4.json", "--alpha", "0.5", "--beta", "0.5", "--games", "1"],
    "dims": ["dims", "2", "17.1", "256", "--alpha", "0.1", "--beta", "0.25", "--c", "0.5"],
    "pattern": ["pattern", "--spec", "{specs}/corner10d1.json", "0.05", "0", "1", "2", "--grid", "0.01"],
}


@pytest.mark.parametrize("command", sorted(CONFIG_ARGV))
def test_config_holds_exactly_the_parsed_arguments(command, tmp_path):
    out = tmp_path / "out.json"
    argv = [a.format(specs=SPECS) for a in CONFIG_ARGV[command]]
    assert cli.main([*argv, "--out", str(out)]) in (0, 4, 5)
    config = json.loads(out.read_text())["config"]
    assert set(config) == parsed_dests(command)
    assert config["command"] == command and config["out"] == str(out)
    # the defaults a handler resolves are recorded as resolved
    resolved = {"distances": "tmax", "game": "rho", "pattern": "points"}.get(command)
    if resolved:
        assert config[resolved] is not None
    if command == "pattern":
        assert config["points"] == [[0.0], [1.0], [2.0]]
    if command == "dims":
        assert (config["d"], config["tau"], config["m0"]) == (2, 17.1, 256)


# every JSON case, and dims, whose positional arguments are all it reads
REPLAYED = sorted({n for n, (_, out) in CASES.items() if out.endswith(".json")} | {"dims"})


@pytest.mark.parametrize("name", REPLAYED)
def test_config_replays_the_report(name, tmp_path):
    first, again = tmp_path / "first", tmp_path / "again"
    first.mkdir()
    again.mkdir()
    if name in CASES:
        code, digest, config = run_case(name, first)
    else:
        code, digest, config = run_argv(CONFIG_ARGV[name], first / "out.json")
    replay = run_argv(argv_from_config(config), again / "out.json")
    assert replay[:2] == (code, digest)
    assert {**replay[2], "out": None} == {**config, "out": None}


if __name__ == "__main__":
    import tempfile

    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            code, digest, _ = run_case(case, tmp)
        print(f'    "{case}": ({code}, "{digest}"),', file=sys.stdout)
