"""thickgap benchmark: three closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload certify --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the library is imported from the
checkout's ``src`` directory and from nowhere else. One process, one
thread: the run first launches the set-up subprocess a few times to time
``setup_s``, then repeats rounds of the workload (bench/workloads.py)
until the next round would overrun ``--seconds``. Every round of a run
repeats the same operations on the same seeded inputs, and each timing
metric is built from each operation's median time over its runs in all
rounds, every time first rescaled to a reference host speed by the speed
samples taken in and around it (bench/clock.py): shared machines flip
between fast and slow states, and the rescaled median is what stays put
(the fastest rescaled run picks up the rescaling's own noise). The
garbage collector runs between timed calls, never inside one (as
``timeit`` does): a full collection, with the survivors frozen out of later
ones, starts every round, the young generations are collected before each
call, and automatic collection is paused. A collection inside a timed call
would land on different calls from run to run and scan a heap of several
hundred thousand objects; the heap's size shows in ``peak_rss_mib``.

``--trace 0`` reports the end-to-end metrics from untraced rounds.
``--trace 1`` runs each round twice, untraced and then traced
(bench/tracing.py), and reports the per-layer metrics per traced round
plus the tracing overhead: the traced minus the untraced median wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the environment stamp. The full report and the spans are written
under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# (name, unit) of every end-to-end metric, in report order
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("bulk_s", "s"),
)

SETUP_SPECS = {
    "certify": ("corner10.json",),
    "enclose": ("ifs_l2.json", "ifs_linf.json"),
    "simulate": ("corner4.json", "corner10d1.json"),
}
SETUP_LAUNCHES = 11

# process start, library import, spec parse and system build; the child
# reports the wall time from the moment its parent launched it, less its
# first speed probes, and the mean of the probes before and after the work
SETUP_CODE = """\
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[3])
from clock import probe_median
first = probe_median()
probing = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
import thickgap
for path in sys.argv[4:]:
    with open(path) as fh:
        thickgap.parse_set_spec(json.load(fh))
elapsed = time.time() - float(sys.argv[1]) - probing
print(elapsed, (first + probe_median()) / 2)
"""


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_library():
    """Import thickgap from this checkout's src, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import thickgap
    except ImportError as exc:
        _fail(f"cannot import thickgap from {SRC}: {exc}")
    if not Path(thickgap.__file__).resolve().is_relative_to(SRC.resolve()):
        _fail(f"thickgap was imported from {thickgap.__file__}, not from {SRC}")


def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(args, why: str) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
    }


def measure_setup(workload: str) -> List[Tuple[float, float]]:
    """(set-up time, speed probe) of fresh processes that import the library
    and build the workload's systems. A first launch only warms the bytecode
    cache."""
    specs = [str(BENCH / "specs" / name) for name in SETUP_SPECS[workload]]
    launches = []
    for _ in range(SETUP_LAUNCHES + 1):
        argv = [sys.executable, "-c", SETUP_CODE, repr(time.time()), str(SRC), str(BENCH), *specs]
        done = subprocess.run(argv, check=True, timeout=120, capture_output=True, text=True)
        elapsed, speed = map(float, done.stdout.split())
        launches.append((elapsed, speed))
    return launches[1:]


def _percentile(values: List[float], q: int) -> float:
    """The q-th percentile by linear interpolation between closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_op(rounds, clock) -> Dict[Tuple[str, int], Tuple[bool, float]]:
    """Each operation's median time at the reference speed over its runs in
    all rounds of a run.

    Every round repeats the same operations on the same inputs, so the k-th
    call of one name is the same work in every round. Maps (name, k) to
    (whether it is a per-item operation, its median time).
    """
    times: Dict[Tuple[str, int], Tuple[bool, List[float]]] = {}
    for rnd in rounds:
        seen: Counter = Counter()
        for name, item, runs in rnd.ops:
            key = (name, seen[name])
            seen[name] += 1
            times.setdefault(key, (item, []))[1].extend(clock.rescale(a, b) for a, b in runs)
    return {key: (item, statistics.median(ts)) for key, (item, ts) in times.items()}


def round_wall(rounds, clock) -> float:
    return math.fsum(t for _, t in per_op(rounds, clock).values())


def _settle_heap() -> None:
    """Collect, freeze what survives out of later collections, and pause
    automatic collection (Round.op collects between calls)."""
    gc.collect()
    gc.freeze()
    gc.disable()


def run(args) -> int:
    _import_library()
    import tracing
    import workloads as wl
    from clock import Clock, at_reference
    from reference import load_recorded

    size = wl.TINY if args.tiny else wl.FULL
    recorded = load_recorded()
    OUT.mkdir(exist_ok=True)
    info = stamp(args, wl.WHY[args.workload])
    launches = [] if args.trace else measure_setup(args.workload)

    tracer = tracing.Tracer() if args.trace else None
    clock = Clock()
    rounds: list = []  # rounds that report metrics: all, or the traced ones
    plain_rounds: list = []  # the untraced twin of each traced round
    start = perf_counter()
    next_op = 0
    clock.start()
    try:
        while True:
            began = perf_counter()
            rnd = wl.Round(OUT, next_op=next_op)
            _settle_heap()
            wl.run_round(args.workload, rnd, args.seed, size, recorded)
            if tracer is not None:
                plain_rounds.append(rnd)
                rnd = wl.Round(OUT, tracer=tracer, next_op=rnd.next_op)
                _settle_heap()
                tracer.install()
                try:
                    wl.run_round(args.workload, rnd, args.seed, size, recorded)
                finally:
                    tracer.uninstall()
            rounds.append(rnd)
            next_op = rnd.next_op
            now = perf_counter()
            if now - start + (now - began) > args.seconds:
                break
    finally:
        clock.stop()

    every = rounds + plain_rounds
    attempted = sum(r.attempted for r in every)
    failed = sum(len(r.failed_ops) for r in every)
    ops = per_op(rounds, clock)
    if tracer is None:
        items = [t for item, t in ops.values() if item]
        metrics = {
            "setup_s": statistics.median(at_reference(t, speed) for t, speed in launches),
            "wall_s": round_wall(rounds, clock),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "item_p50_ms": 1000 * _percentile(items, 50),
            "item_p90_ms": 1000 * _percentile(items, 90),
            "bulk_s": math.fsum(t for item, t in ops.values() if not item),
        }
        units = dict(END_TO_END)
    else:
        overhead_s = round_wall(rounds, clock) - round_wall(plain_rounds, clock)
        metrics = tracer.layer_metrics(len(rounds), overhead_s)
        units = dict(tracing.PER_LAYER)
        tracer.write(OUT / f"spans-{args.workload}.jsonl.gz")

    phases: Dict[str, float] = {}
    for (name, _), (_, seconds) in ops.items():
        phases[name] = phases.get(name, 0.0) + seconds
    report = {
        "stamp": info,
        "rounds": len(rounds),
        "round_wall_s": [r.wall_s for r in rounds],  # unscaled
        "round_bulk_s": [r.bulk_s for r in rounds],
        "untraced_round_wall_s": [r.wall_s for r in plain_rounds],
        "setup_launches": launches,  # (seconds, speed probe of the child)
        "samples_s": {"count": len(clock.took), "min": min(clock.took),
                      "median": statistics.median(clock.took), "max": max(clock.took)},
        "op_s": phases,
        "absent": tracer.absent if tracer is not None else [],
        "failures": [why for r in every for why in r.failures][:50],
        "fail_frac": failed / attempted,
        "metrics": metrics,
    }
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print("stamp " + json.dumps({**info, "rounds": len(rounds), "absent": report["absent"]}))
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("certify", "enclose", "simulate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small rounds, for the self-test")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
