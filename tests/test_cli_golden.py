"""Golden outputs of the command-line interface.

Each case runs `cli.main` in-process with `--out` and compares the SHA-256
of what it wrote (the JSON report without its `config` block, CSV text or
JSONL transcripts) and its exit code against values recorded from an
earlier release. A refactor that keeps the maths must keep every digest.
Run this file as a script to print the digests of the current code.
"""

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

PAIR = ["--shift2", "0.05,0.02", "--r", "0.19556", "--tol", "1e-6"]
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
    "intersect-corner10": (["intersect", "--spec", "{specs}/corner10.json", *PAIR], "out.json"),
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
    "render-corner4": (["render", "--spec", "{specs}/corner4.json", "--depth", "3"], "out.csv"),
}

# (exit code, SHA-256 of the outputs), recorded before the `threads` option
# was removed and the norm and gap formulas were given one home each
GOLDEN = {
    "distances-corner10": (0, "0bf93022d87659c6ab9db9bc2a5e5e35c306c9f2e61cb260c3ba91849c5d94f4"),
    "game-corner4": (0, "7d88e3093388d8e80a075e9ec33fbeaa95115a5977a5068ba19b3818bcef02e3"),
    "gapcheck-corner10": (0, "ec1c5ccddbf62835f357ef698761aebede94522b7192f28aac6cedf0a2fdb6a6"),
    "gapcheck-ifs_l2": (4, "06225ebddcc20d7753e66bb030cc4622b8a019c49f6a849707b263a5c21a32fa"),
    "intersect-corner10": (0, "381681ff36fbc1db5851e0a189cc64c7255d3fd04610ce1a2cce0534f7a2a53c"),
    "pattern-corner10d1": (0, "3b0be0ac349bf787fd6aa5b9a68771598701f53cdeae62887d26648aac955d48"),
    "render-corner4": (0, "bc099c0b0833122f0fc014acfce4d8e3d3a1262a570d5f88b9072c3147ff3411"),
    "thickness-corner10": (0, "1a19cf3e56362c67fc49e78c4932b55ececfe2739fd777a0837907285f4dbacf"),
    "thickness-ifs_l2": (0, "4775ddd3892c617d76d06f5c71fac43f468ad9bf3a23e84188b32ea5df325afb"),
    "thickness-ifs_linf": (0, "28047e79c966767db2b4a395d9b94f4365777efba8a5fd844690f1ec4decda8d"),
    "thickness-l1": (0, "16d700f71046409864c583b280f045cb7c0a668dd16706dd34f1e5f03c723215"),
}


def run_case(name, tmp):
    """Run one case in the directory tmp; returns (exit code, digest, config)."""
    tmp = Path(tmp)
    (tmp / "l1.json").write_text(json.dumps(L1_BOARD))
    argv, out_name = CASES[name]
    out = tmp / out_name
    argv = [a.format(specs=SPECS, tmp=tmp) for a in argv] + ["--out", str(out)]
    code = cli.main(argv)
    digest = hashlib.sha256()
    config = None
    if out_name.endswith(".json"):
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


if __name__ == "__main__":
    import tempfile

    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            code, digest, _ = run_case(case, tmp)
        print(f'    "{case}": ({code}, "{digest}"),', file=sys.stdout)
