"""The three benchmark workloads: their inputs, their operations and their checks.

A workload runs in rounds. One round is the fixed sequence of operations
listed in bench/README.md, issued one at a time from one thread (a closed
loop: each operation starts when the previous one has returned). A round
draws its inputs from a random.Random seeded with the workload name and
the run seed, so every round of a run does the same work and one seed
always yields the same inputs. Each round builds its systems afresh, so
no round inherits another's expanded trees. Every output is checked
against a bench-side reference; a wrong output counts as a failed
operation and the round goes on. Each timed call records when it started
and ended, so that the run can rescale it by the host speed samples taken
around it (bench/clock.py).
"""

from __future__ import annotations

import csv
import gc
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, List, Optional, Sequence, Set, Tuple

import thickgap as tg
import thickgap.cli as tgcli
from thickgap.geometry import NormKind

import reference as ref

BENCH_DIR = Path(__file__).resolve().parent
SPECS = BENCH_DIR / "specs"

WHY = {
    "certify": (
        "directional distance certificates on corner n=10 d=2: gaplemma search and "
        "write-heavy tree expansion; branch-and-bound bypassed"
    ),
    "enclose": (
        "branch-and-bound distance and hole enclosures on 2-D IFS sets plus dimension "
        "checks: read-heavy tree expansion; gaplemma bypassed"
    ),
    "simulate": (
        "seeded game matches with referee replay, a numpy pattern scan and a 69,905-row "
        "render: per-move Python and bulk output; branch-and-bound bypassed"
    ),
}

# certify
CORNER_N, CORNER_ELL = 10, 0.19
CERT_R = 0.19556
CERT_TOL = 1e-7
CLI_SHIFT = (0.05, 0.02)
CLI_TOL = 1e-6
CLI_RUNS = 6
# enclose
THICKNESS_TOL = 1e-6
QUERY_TOL = 1e-6
H0_TOL = 1e-9
MEASURE_C = 0.5
MEASURE_BETA = math.log(4) / math.log(1 / 0.3) / 2  # Moran exponent of 4 maps at 0.3, over d
DENSE_R, DENSE_GRID, DENSE_DEPTH = 0.5, 1e-3, 3
CANTOR_DEPTH = 9
CANTOR_TOL = 1e-9
# simulate
GAME_TAU, GAME_BETA = 3.0, 0.2
PATTERN_POINTS = ((0.0,), (1.0,), (2.0,))
PATTERN_LAM = 0.05
PATTERN_GRID = 1e-5
PATTERN_TOL = 1e-5
PATTERN_CHECKS = 200  # witnesses re-verified per scan, taken with a stride


@dataclass(frozen=True)
class Size:
    """How much one round does. FULL is the benchmark; TINY is for the self-test."""

    certificates: int
    query_cells: int  # cells of the Linf query pool visited
    queries_per_cell: int
    matches: int
    measure_samples: int
    cantor_queries: int
    pattern_grid: float
    pattern_tol: float
    render_depth: int


FULL = Size(100, 100, 2, 400, 500, 100, PATTERN_GRID, PATTERN_TOL, 4)
TINY = Size(3, 1, 2, 5, 20, 5, 1e-3, 1e-3, 2)


def load_spec(name: str) -> dict:
    with open(SPECS / name) as fh:
        return json.load(fh)


def load_system(name: str) -> tg.BallSystem:
    return tg.parse_set_spec(load_spec(name))


def cantor_spec(depth: int) -> dict:
    gaps = ref.cantor_gaps(depth)
    return {
        "norm": "linf",
        "dimension": 1,
        "generator": {"type": "gaps1d", "hull": [0.0, 1.0], "gaps": [list(g) for g in gaps]},
    }


@dataclass
class Round:
    """Times and checks the operations of one round.

    Only the library call is timed; checks run after the clock stops.
    """

    out_dir: Path
    tracer: Optional[object] = None
    next_op: int = 0
    attempted: int = 0
    failed_ops: Set[int] = field(default_factory=set)
    failures: List[str] = field(default_factory=list)
    # (name, item, [(start, end) of each run])
    ops: List[Tuple[str, bool, List[Tuple[float, float]]]] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """The round's unscaled time, each operation's fastest run."""
        return math.fsum(min(b - a for a, b in runs) for _, _, runs in self.ops)

    @property
    def bulk_s(self) -> float:
        return math.fsum(min(b - a for a, b in runs) for _, item, runs in self.ops if not item)

    def op(self, name: str, fn: Callable, *args, item: bool = False, repeat: int = 1, **kwargs):
        """Run one operation; returns (op id, result), result None when it raised.

        repeat > 1 reruns an operation that builds all its own state and
        records every run, which gives the median more samples.
        """
        op_id = self.next_op
        self.next_op += 1
        self.attempted += 1
        runs = []
        for _ in range(repeat):
            gc.collect(1)  # the young garbage of earlier calls, outside the timing
            if self.tracer is not None:
                self.tracer.begin_op(op_id, name)
            result, raised = None, False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:  # a failed operation is counted, never fatal
                self.fail(op_id, f"{name}: {type(exc).__name__}: {exc}")
                raised = True
            runs.append((start, perf_counter()))
            if self.tracer is not None:
                self.tracer.end_op()
            if raised:
                break
        self.ops.append((name, item, runs))
        return op_id, result

    def fail(self, op_id: int, why: str) -> None:
        self.failed_ops.add(op_id)
        if len(self.failures) < 20:
            self.failures.append(why)

    def check(self, op_id: int, ok: bool, why: str) -> None:
        if not ok:
            self.fail(op_id, why)

    def cli(self, name: str, argv: Sequence[str], out_name: str, repeat: int = 1):
        """Run cli.main with --out in the output directory; returns (op id, path)."""
        path = self.out_dir / out_name
        op_id, code = self.op(name, lambda: tgcli.main([*argv, "--out", str(path)]), repeat=repeat)
        if code == 0:
            return op_id, path
        if code is not None:  # None: the call raised and is already counted
            self.fail(op_id, f"{name}: exit code {code}")
        return op_id, None


def _linf_unit(theta: float) -> tuple:
    raw = (math.cos(theta), math.sin(theta))
    scale = max(abs(raw[0]), abs(raw[1]))
    return (raw[0] / scale, raw[1] / scale)


def in_corner_set(point, shift, tol: float) -> bool:
    upper = ref.corner_dist_upper(point, shift, CORNER_N, CORNER_ELL, tol / 1000)
    return upper <= tol


# -- certify -------------------------------------------------------------------


def certify(rnd: Round, rng: random.Random, size: Size, recorded: dict) -> None:
    system = load_system("corner10.json")
    limit = 2 * CERT_R / (1 - 2 * CERT_R)  # the guaranteed distance interval, root radius 1
    origin = (0.0, 0.0)
    # a Latin hypercube over (direction angle, t): each of the n strata of
    # either coordinate holds exactly one certificate
    n = size.certificates
    t_strata = rng.sample(range(n), n)
    for k in range(n):
        v = _linf_unit(2 * math.pi * (k + rng.random()) / n)
        t = limit * (t_strata[k] + rng.random()) / n
        op_id, cert = rnd.op(
            "certificate",
            tg.directional_distance_certificate,
            system, v, t, CERT_TOL, r=CERT_R,
            item=True,
        )
        if cert is None:
            continue
        rnd.check(op_id, cert.residual <= CERT_TOL, f"certificate residual {cert.residual}")
        rnd.check(op_id, in_corner_set(cert.e1, origin, CERT_TOL), f"e1 {cert.e1} off the set")
        rnd.check(op_id, in_corner_set(cert.e2, origin, CERT_TOL), f"e2 {cert.e2} off the set")
        gap = max(abs(a - b - t * c) for a, b, c in zip(cert.e1, cert.e2, v))
        rnd.check(op_id, gap <= CERT_TOL, f"e1 - e2 misses t*v by {gap}")

    common = ["--spec", str(SPECS / "corner10.json"), "--shift2", "0.05,0.02", "--r", str(CERT_R)]
    op_id, path = rnd.cli("cli.gapcheck", ["gapcheck", *common], "gapcheck.json", repeat=CLI_RUNS)
    if path is not None:
        report = json.loads(path.read_text())
        rnd.check(op_id, report["hypotheses"]["all_proven"] is True, "gapcheck not all proven")

    op_id, path = rnd.cli(
        "cli.intersect", ["intersect", *common, "--tol", str(CLI_TOL)], "intersect.json", repeat=CLI_RUNS
    )
    if path is not None:
        cert = json.loads(path.read_text())["certificate"]
        witness = cert["witness"]
        rnd.check(op_id, in_corner_set(witness, origin, CLI_TOL), "witness off the first set")
        rnd.check(op_id, in_corner_set(witness, CLI_SHIFT, CLI_TOL), "witness off the second set")
        radii = [step["radius"] for step in cert["trace"]]
        contracts = all(b <= CERT_R * a * (1 + 1e-12) for a, b in zip(radii, radii[1:]))
        rnd.check(op_id, contracts, "intersect trace does not contract by r")


# -- enclose -------------------------------------------------------------------


def linf_maps(spec: dict) -> tg.HomotheticIFS:
    return tg.HomotheticIFS(
        tuple((m["lambda"], tuple(m["t"])) for m in spec["generator"]["maps"])
    )


def _refutes_denseness(witness, maps: tg.HomotheticIFS, r: float) -> bool:
    """A witness ball of relative radius r inside the root that swallows no child."""
    if witness is None:
        return False
    inside = ref.linf_contains((0.0, 0.0), 1.0, witness.center, witness.radius)
    swallows = any(
        ref.linf_contains(witness.center, witness.radius, t, lam) for lam, t in maps.maps
    )
    return inside and not swallows and witness.radius >= r * (1 - 1e-12)


def enclose(rnd: Round, rng: random.Random, size: Size, recorded: dict) -> None:
    op_id, path = rnd.cli(
        "cli.thickness",
        ["thickness", "--spec", str(SPECS / "ifs_l2.json"), "--tol", str(THICKNESS_TOL)],
        "thickness.json",
        repeat=2,
    )
    if path is not None:
        tau = json.loads(path.read_text())["tau"]
        rnd.check(op_id, tau["converged"] is True, "L2 thickness did not converge")
        rnd.check(op_id, tau["hi"] - tau["lo"] <= THICKNESS_TOL, "L2 thickness too wide")
        rnd.check(
            op_id,
            ref.overlaps(tau["lo"], tau["hi"], recorded["l2_thickness"]),
            f"L2 thickness [{tau['lo']}, {tau['hi']}] misses the recorded enclosure",
        )

    linf_spec = load_spec("ifs_linf.json")
    linf = tg.parse_set_spec(linf_spec)
    # a few recorded points from each cell of a 10 x 10 grid on the root square
    queries = [
        point
        for stratum in recorded["linf_pool"][: size.query_cells]
        for point in rng.sample(stratum, size.queries_per_cell)
    ]
    for x0, x1, ref_lo, ref_hi in queries:
        op_id, iv = rnd.op("query", tg.dist_to_set, (x0, x1), linf, QUERY_TOL, item=True)
        if iv is None:
            continue
        rnd.check(
            op_id,
            ref.overlaps(iv.lo, iv.hi, (ref_lo, ref_hi)),
            f"dist({x0}, {x1}) [{iv.lo}, {iv.hi}] misses the recorded [{ref_lo}, {ref_hi}]",
        )
        rnd.check(op_id, not iv.converged or iv.width <= QUERY_TOL, "converged but too wide")

    maps = linf_maps(linf_spec)
    op_id, h0 = rnd.op(
        "h0_upper", tg.homothetic_h0_upper, maps, H0_TOL, norm=NormKind.LINF, repeat=3
    )
    if h0 is not None:
        rnd.check(op_id, ref.overlaps(h0.lo, h0.hi, recorded["h0_upper"]), "h0 misses the record")

    op_id, mb = rnd.op(
        "measure_check",
        tg.measure_ball_bound_check,
        linf, MEASURE_C, MEASURE_BETA, size.measure_samples,
        seed=rng.randrange(2**31),
    )
    if mb is not None:
        rnd.check(op_id, mb.samples == size.measure_samples, "measure check sample count")
        rnd.check(op_id, mb.violations == 0, f"{mb.violations} mass-bound violations")

    op_id, dense = rnd.op("denseness", tg.denseness_check, linf, DENSE_R, DENSE_GRID, DENSE_DEPTH)
    if dense is not None:
        rnd.check(op_id, dense.verdict == recorded["denseness_verdict"], f"verdict {dense.verdict}")
        if dense.verdict == "refuted":
            rnd.check(op_id, _refutes_denseness(dense.witness, maps, DENSE_R), "bad witness")

    spec = cantor_spec(CANTOR_DEPTH)
    op_id, cantor = rnd.op("cantor.build", tg.parse_set_spec, spec)
    if cantor is None:
        return
    op_id, rep = rnd.op("cantor.thickness", tg.thickness, cantor, CANTOR_DEPTH, CANTOR_TOL)
    if rep is not None:
        rnd.check(op_id, rep.overall.contains(1.0), f"Cantor thickness {rep.overall} misses 1")
    exact = ref.IntervalUnion((0.0, 1.0), [tuple(g) for g in spec["generator"]["gaps"]])
    for _ in range(size.cantor_queries):
        x = rng.uniform(-0.1, 1.1)
        op_id, iv = rnd.op("cantor.query", tg.dist_to_set, (x,), cantor, CANTOR_TOL)
        if iv is not None:
            want = exact.dist(x)
            # 1e-15 covers the library rebuilding leaf ends from centers and radii
            rnd.check(
                op_id,
                iv.lo - 1e-15 <= want <= iv.hi + 1e-15,
                f"Cantor dist({x}) [{iv.lo}, {iv.hi}] misses {want}",
            )


# -- simulate ------------------------------------------------------------------


def _play_and_replay(system, bob, params, seed: int):
    match = tg.play(system, bob, params, seed=seed)
    history: list = []
    illegal = 0
    for move in match.moves:
        if not tg.referee(move, history, params).legal:
            illegal += 1
        history.append(move)
    return match, illegal


def simulate(rnd: Round, rng: random.Random, size: Size, recorded: dict) -> None:
    board = load_system("corner4.json")
    op_id, params = rnd.op("game.params", tg.proposition_params, board, GAME_TAU, GAME_BETA)
    if params is not None:
        bob = tg.random_legal_bob(board)
        for _ in range(size.matches):
            op_id, out = rnd.op(
                "match", _play_and_replay, board, bob, params, rng.randrange(2**31), item=True
            )
            if out is None:
                continue
            match, illegal = out
            rnd.check(
                op_id,
                match.classification in ("in_target", "erased"),
                f"match classified {match.classification}",
            )
            rnd.check(op_id, illegal == 0, f"{illegal} moves replay as illegal")

    line = load_system("corner10d1.json")
    op_id, witnesses = rnd.op(
        "pattern",
        tg.pattern_search_oracle,
        line, PATTERN_POINTS, PATTERN_LAM, size.pattern_grid, size.pattern_tol,
    )
    if witnesses is not None:
        want = recorded["pattern_count"][repr(size.pattern_grid)]
        # a count within 0.1% of the record tolerates boundary grid points
        # flipping under a reordered float evaluation
        rnd.check(op_id, abs(len(witnesses) - want) <= want * 1e-3, f"{len(witnesses)} witnesses")
        stride = max(1, len(witnesses) // PATTERN_CHECKS)
        for w in witnesses[::stride]:
            for b in PATTERN_POINTS:
                q = (w[0] + PATTERN_LAM * b[0],)
                if not _in_corner_line(q, size.pattern_tol):
                    rnd.fail(op_id, f"pattern witness {w} fails at {b}")
                    break

    op_id, path = rnd.cli(
        "cli.render",
        ["render", "--spec", str(SPECS / "corner4.json"), "--depth", str(size.render_depth)],
        "render.csv",
        repeat=2,
    )
    if path is not None:
        _check_render(rnd, op_id, path, size.render_depth)


def _in_corner_line(point, tol: float) -> bool:
    return ref.corner1d_descent(point[0], 0.0, CORNER_N, CORNER_ELL, tol / 1000)[1] <= tol


def _check_render(rnd: Round, op_id: int, path: Path, depth: int) -> None:
    want_rows = (16 ** (depth + 1) - 1) // 15  # nodes of a 16-child tree down to depth
    rows = 0
    with open(path, newline="") as fh:
        for cells in csv.reader(fh):
            level = len(cells[0].split(".")) if cells[0] else 0
            radius = float(cells[-1])
            want = 0.2**level
            if abs(radius - want) > 1e-12 * want:
                rnd.fail(op_id, f"render row {cells[0]!r} radius {radius} != 0.2^{level}")
                return
            rows += 1
    rnd.check(op_id, rows == want_rows, f"render wrote {rows} rows, want {want_rows}")


WORKLOADS = {"certify": certify, "enclose": enclose, "simulate": simulate}


def run_round(name: str, rnd: Round, seed: int, size: Size, recorded: dict) -> None:
    """One round; every round of a run draws the same inputs from the seed."""
    WORKLOADS[name](rnd, random.Random(f"{name}/{seed}"), size, recorded)
