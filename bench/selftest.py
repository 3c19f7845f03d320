"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that
each run passes its output checks and emits every metric BENCHMARK.json
names; that the traced runs together cover all eight library modules;
that the checks reject wrong answers; that a missing library boundary is
reported as absent instead of crashing the tracer; and that the benchmark
refuses to run without the library source. Exits non-zero on the first
failure. Writes only under .bench_out/ in the checkout.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import thickgap  # noqa: E402
import thickgap.gaplemma  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

MODULES = ("geometry", "ballsystem", "metrics", "gaplemma", "selfsimilar", "dimension", "game", "cli")


def _bench_run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_manifest(manifest: dict) -> None:
    assert manifest["command"] == ["python3", "bench/run.py"], manifest["command"]
    assert manifest["paths"] == ["bench"], manifest["paths"]
    assert {w["name"]: w["why"] for w in manifest["workloads"]} == wl.WHY
    assert [(m["name"], m["unit"]) for m in manifest["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in manifest["per_layer"]] == list(tracing.PER_LAYER)
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in manifest["end_to_end"])


def check_runs(manifest: dict) -> None:
    moved = set()
    for workload in wl.WHY:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = _bench_run(workload, trace)
            assert done.returncode == 0, done.stderr[-3000:]
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in manifest[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for name, metric in result["metrics"].items():
                assert math.isfinite(metric["value"]), (workload, name, metric)
                if trace == 0:
                    assert metric["value"] > 0, (workload, name, metric)
                elif metric["value"] and not name.startswith("trace."):
                    moved.add(name.split(".", 1)[0])
            print(f"ok  {workload} trace={trace}: {result['attempted']} ops checked")
    assert moved == set(MODULES), f"no per-layer metric moved for {set(MODULES) - moved}"


def check_checks_reject_wrong_answers() -> None:
    rnd = wl.Round(ROOT / ".bench_out")
    op_id, _ = rnd.op("noop", lambda: None)
    # the origin is the middle of a gap of the corner set, 0.0056 from it on each axis
    rnd.check(op_id, wl.in_corner_set((0.0, 0.0), (0.0, 0.0), 1e-7), "gap point accepted")
    op_id, _ = rnd.op("raises", lambda: 1 / 0)
    assert rnd.failed_ops == {0, 1} and rnd.attempted == 2, rnd.failed_ops
    assert wl.in_corner_set((-1.0, 1.0), (0.0, 0.0), 1e-7), "corner point rejected"


def check_missing_boundary() -> None:
    original = thickgap.gaplemma._locate
    del thickgap.gaplemma._locate
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.uninstall()
    finally:
        thickgap.gaplemma._locate = original
    assert {"gaplemma.locate.calls", "gaplemma.locate.self_s"} <= set(tracer.absent), tracer.absent
    metrics = tracer.layer_metrics(1, 0.0)
    assert metrics["gaplemma.locate.calls"] == 0
    # uninstall put every original back
    assert getattr(thickgap.intersect, "__wrapped__", None) is None
    assert getattr(thickgap.BallSystem.children, "__wrapped__", None) is None
    print("ok  a missing boundary is reported absent")


def check_refuses_without_source() -> None:
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench_run("certify", 0, cwd=bare)
    shutil.rmtree(bare)
    assert done.returncode != 0, done.stdout
    assert '"correct"' not in done.stdout, done.stdout
    print(f"ok  without src the benchmark exits {done.returncode} and prints no result")


def main() -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_manifest(manifest)
    print("ok  BENCHMARK.json matches the harness")
    check_checks_reject_wrong_answers()
    print("ok  output checks reject a wrong answer and a raising op")
    check_missing_boundary()
    check_refuses_without_source()
    check_runs(manifest)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
