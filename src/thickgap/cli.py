"""Command-line surface: parse set-specs, run analyses, emit JSON/CSV reports.

Exit codes: 0 success or proven, 2 input error, 3 non-convergence,
4 refuted, 5 unknown. Every JSON report embeds the resolved run
configuration so a rerun can be reproduced bit for bit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import random
import sys as _sys
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple

from .ballsystem import ROOT, BallSystem, SpecError, Word, parse_set_spec, translate, word_str
from .game import (
    BfsConstants,
    pattern_search_oracle,
    play_batch,
    proposition_params,
    random_legal_bob,
    referee,
    transcript_to_jsonl,
    winning_dim_bound,
)
from .gaplemma import (
    check_hypotheses,
    directional_distance_certificate,
    distance_interval,
    intersect,
)
from .geometry import Ball, NormKind, Point, vector_size
from .dimension import dim_lower_bound
from .metrics import thickness

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGE = 3
EXIT_REFUTED = 4
EXIT_UNKNOWN = 5

_D2_CAVEAT = (
    "d >= 2: this closed-form value can exceed the similarity dimension of "
    "concrete systems; report it alongside a certified per-system bound "
    "rather than in place of one"
)


@dataclass(frozen=True)
class RunConfig:
    """Resolved inputs of one invocation, embedded in every report."""

    command: str
    spec: Optional[str] = None
    spec2: Optional[str] = None
    shift2: Optional[Tuple[float, ...]] = None
    depth: Optional[int] = None
    tol: Optional[float] = None
    r: Optional[float] = None
    directions: Optional[int] = None
    steps: Optional[int] = None
    tmax: Optional[float] = None
    alpha: Optional[float] = None
    beta: Optional[float] = None
    c: Optional[float] = None
    rho: Optional[float] = None
    games: Optional[int] = None
    lam: Optional[float] = None
    points: Optional[Tuple[Tuple[float, ...], ...]] = None
    grid: Optional[float] = None
    K1: Optional[float] = None
    K2: Optional[float] = None
    seed: int = 0
    out: Optional[str] = None


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and (math.isnan(obj) or math.isinf(obj)):
        return repr(obj)
    return obj


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(_jsonable(report), indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_text(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")


def _load_system(path: str) -> BallSystem:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: invalid JSON: {exc}") from exc
    return parse_set_spec(obj)


def _parse_point(text: str) -> Tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise SpecError(f"cannot parse point {text!r}: {exc}") from exc


def _config(args: argparse.Namespace, **extra) -> RunConfig:
    values = {}
    for field in dataclasses.fields(RunConfig):
        if field.name in extra:
            values[field.name] = extra[field.name]
        elif hasattr(args, field.name):
            values[field.name] = getattr(args, field.name)
    return RunConfig(**values)


# -- thickness ----------------------------------------------------------------


def _cmd_thickness(args: argparse.Namespace) -> int:
    sys = _load_system(args.spec)
    report = thickness(sys, args.depth, args.tol)
    payload = {
        "config": _config(args),
        "tau": {
            "lo": report.overall.lo,
            "hi": report.overall.hi,
            "depth": report.depth,
            "converged": report.converged,
            "valid_all_depths": report.valid_all_depths,
            "method": report.method,
        },
        "per_node": [
            {
                "word": word_str(rec.word),
                "child_min_radius": rec.child_min_radius,
                "h": rec.h,
                "ratio": rec.ratio,
            }
            for rec in report.per_node
        ],
    }
    _emit(payload, args.out)
    return EXIT_OK if report.converged else EXIT_NO_CONVERGE


# -- gap hypotheses and intersection ------------------------------------------


def _load_pair(args: argparse.Namespace) -> Tuple[BallSystem, BallSystem]:
    sys1 = _load_system(args.spec)
    sys2 = _load_system(args.spec2) if args.spec2 else sys1
    if args.shift2 is not None:
        sys2 = translate(sys2, args.shift2)
    return sys1, sys2


def _hypotheses_payload(report) -> dict:
    return {
        "r": report.r,
        "tau_product": report.hyp_tau,
        "meet": {
            "status": report.hyp_meet.status,
            "word": (
                word_str(report.hyp_meet.word)
                if report.hyp_meet.word is not None
                else None
            ),
        },
        "radii": report.hyp_radii,
        "denseness": list(report.hyp_dense),
        "all_proven": report.all_proven,
    }


def _hypotheses_verdicts(report) -> List[str]:
    return [
        report.hyp_tau.status,
        report.hyp_meet.status,
        report.hyp_radii.status,
        report.hyp_dense[0].verdict,
        report.hyp_dense[1].verdict,
    ]


def _cmd_gapcheck(args: argparse.Namespace) -> int:
    sys1, sys2 = _load_pair(args)
    report = check_hypotheses(sys1, sys2, args.r, depth=args.depth)
    payload = {"config": _config(args), "hypotheses": _hypotheses_payload(report)}
    _emit(payload, args.out)
    if report.all_proven:
        return EXIT_OK
    if "refuted" in _hypotheses_verdicts(report):
        return EXIT_REFUTED
    return EXIT_UNKNOWN


def _cmd_intersect(args: argparse.Namespace) -> int:
    sys1, sys2 = _load_pair(args)
    report = check_hypotheses(sys1, sys2, args.r, depth=args.depth)
    payload = {"config": _config(args), "hypotheses": _hypotheses_payload(report)}
    if not report.all_proven:
        _emit(payload, args.out)
        if "refuted" in _hypotheses_verdicts(report):
            return EXIT_REFUTED
        return EXIT_UNKNOWN
    cert = intersect(sys1, sys2, args.r, args.tol, args.steps)
    payload["certificate"] = {
        "witness": cert.witness,
        "residual1": cert.residual1,
        "residual2": cert.residual2,
        "trace": cert.trace,
    }
    _emit(payload, args.out)
    return EXIT_OK


# -- directional distances -----------------------------------------------------


def _direction_sample(sys: BallSystem, count: int, seed: int) -> List[Point]:
    """Unit directions in the system norm: signs in 1-D, an angle grid in 2-D,
    seeded draws above."""
    d = sys.dimension
    if d == 1:
        return [(1.0,), (-1.0,)]
    out: List[Point] = []
    if d == 2:
        for i in range(count):
            angle = 2 * math.pi * i / count
            out.append(_normalize((math.cos(angle), math.sin(angle)), sys.norm))
        return out
    rng = random.Random(seed)
    while len(out) < count:
        raw = tuple(rng.gauss(0.0, 1.0) for _ in range(d))
        if any(raw):
            out.append(_normalize(raw, sys.norm))
    return out


def _normalize(v: Sequence[float], norm: NormKind) -> Point:
    size = vector_size(v, norm)
    return tuple(x / size for x in v)


def _cmd_distances(args: argparse.Namespace) -> int:
    sys = _load_system(args.spec)
    limit = distance_interval(args.r) * sys.root.radius
    tmax = args.tmax if args.tmax is not None else limit
    hypotheses = check_hypotheses(sys, sys, args.r)
    payload = {
        "config": _config(args, tmax=tmax),
        "hypotheses": _hypotheses_payload(hypotheses),
        "t_limit": limit,
    }
    if not hypotheses.all_proven:
        payload["rows"] = []
        payload["summary"] = {"total": 0, "ok": 0, "failed": 0, "out_of_scope": 0}
        _emit(payload, args.out)
        if "refuted" in _hypotheses_verdicts(hypotheses):
            return EXIT_REFUTED
        return EXIT_UNKNOWN
    directions = _direction_sample(sys, args.directions, args.seed)
    if args.steps == 1:
        ts = [0.0]
    else:
        ts = [tmax * i / (args.steps - 1) for i in range(args.steps)]
    rows = []
    counts = {"ok": 0, "failed": 0, "out_of_scope": 0}
    for v in directions:
        for t in ts:
            if t > limit * (1 + 1e-12):
                rows.append({"direction": v, "t": t, "status": "out_of_scope"})
                counts["out_of_scope"] += 1
                continue
            try:
                cert = directional_distance_certificate(sys, v, t, args.tol, r=args.r)
            except RuntimeError as exc:
                rows.append(
                    {"direction": v, "t": t, "status": "failed", "error": str(exc)}
                )
                counts["failed"] += 1
                continue
            rows.append(
                {
                    "direction": v,
                    "t": t,
                    "status": "ok",
                    "residual": cert.residual,
                    "e1": cert.e1,
                    "e2": cert.e2,
                }
            )
            counts["ok"] += 1
    payload["rows"] = rows
    payload["summary"] = {"total": len(rows), **counts}
    _emit(payload, args.out)
    return EXIT_OK if counts["failed"] == 0 else EXIT_UNKNOWN


# -- game ----------------------------------------------------------------------


def _transcript_path(out: str, seed: int) -> str:
    stem = out[: -len(".json")] if out.endswith(".json") else out
    return f"{stem}-seed{seed}.jsonl"


def _cmd_game(args: argparse.Namespace) -> int:
    sys = _load_system(args.spec)
    base = proposition_params(sys, 1.0 / args.alpha, args.beta)
    rho = args.rho if args.rho is not None else base.rho
    params = dataclasses.replace(base, alpha=args.alpha, c=args.c, rho=rho)
    seeds = range(args.seed, args.seed + args.games)
    results = play_batch(sys, random_legal_bob(sys), params, seeds)
    violations = 0
    outcomes = []
    tally: dict = {}
    for seed, result in zip(seeds, results):
        history: list = []
        for move in result.moves:
            if not referee(move, history, params).legal:
                violations += 1
            history.append(move)
        tally[result.classification] = tally.get(result.classification, 0) + 1
        outcomes.append(
            {
                "seed": seed,
                "classification": result.classification,
                "moves": len(result.moves),
                "outcome": result.outcome,
            }
        )
        if args.out:
            with open(_transcript_path(args.out, seed), "w") as fh:
                fh.write(transcript_to_jsonl(result))
    payload = {
        "config": _config(args, rho=rho),
        "params": params,
        "classifications": tally,
        "violations": violations,
        "outcomes": outcomes,
    }
    _emit(payload, args.out)
    clean = violations == 0 and set(tally) <= {"in_target", "erased"}
    return EXIT_OK if clean else EXIT_UNKNOWN


# -- dimension bounds ------------------------------------------------------------


def _cmd_dims(args: argparse.Namespace) -> int:
    value = dim_lower_bound(args.d, args.tau, args.m0)
    payload = {
        "config": _config(args),
        "formula_bound": value,
        "caveat": _D2_CAVEAT if args.d >= 2 else None,
    }
    if args.alpha is not None and args.beta is not None and args.c is not None:
        k = BfsConstants(args.K1, args.K2)
        payload["winning"] = winning_dim_bound(args.alpha, args.beta, args.c, args.d, k)
    _emit(payload, args.out)
    return EXIT_OK


# -- pattern search ---------------------------------------------------------------


def _cmd_pattern(args: argparse.Namespace) -> int:
    sys = _load_system(args.spec)
    points = tuple(_parse_point(text) for text in args.points)
    witnesses = pattern_search_oracle(sys, points, args.lam, args.grid, args.tol)
    payload = {
        "config": _config(args, points=points),
        "count": len(witnesses),
        "witnesses": witnesses,
    }
    _emit(payload, args.out)
    return EXIT_OK if witnesses else EXIT_UNKNOWN


# -- geometry dump -----------------------------------------------------------------


def _cmd_render(args: argparse.Namespace) -> int:
    if args.depth < 0:
        raise ValueError(f"render depth must be non-negative, got {args.depth}")
    sys = _load_system(args.spec)
    block = sys.child_block
    # depth first in child order, as BallSystem.walk, reading child blocks;
    # each row's tag is its parent's tag plus its child index
    lines = []
    stack: List[Tuple[Word, str, Point, float]] = [(ROOT, "", sys.root.center, sys.root.radius)]
    while stack:
        word, tag, center, radius = stack.pop()
        lines.append(",".join([tag, *map(repr, center), repr(radius)]))
        if len(word) < args.depth:
            centers, radii = block(word)
            prefix = tag + "." if word else ""
            for i in range(len(radii) - 1, -1, -1):
                stack.append((word + (i,), prefix + str(i), centers[i], radii[i]))
    _emit_text("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def system_from_render_csv(text: str, norm: NormKind, dimension: int) -> BallSystem:
    """Rebuild a finite system from render output; inverse of the render dump."""
    from .ballsystem import explicit_tree

    entries = []
    for line in text.strip().split("\n"):
        cells = line.split(",")
        if len(cells) != dimension + 2:
            raise SpecError(f"render row has {len(cells)} cells, need {dimension + 2}")
        word: Word = (
            tuple(int(i) for i in cells[0].split(".")) if cells[0] else ROOT
        )
        center = tuple(float(c) for c in cells[1 : 1 + dimension])
        entries.append((word, Ball(center, float(cells[-1]))))
    return explicit_tree(norm, dimension, entries)


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thickgap",
        description="Certified geometry of recursive ball systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, spec: bool = True) -> None:
        if spec:
            p.add_argument("--spec", required=True, help="set-spec JSON path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="report path (default: stdout)")

    p = sub.add_parser("thickness", help="certified thickness enclosure")
    common(p)
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(handler=_cmd_thickness)

    for name, handler in (("gapcheck", _cmd_gapcheck), ("intersect", _cmd_intersect)):
        p = sub.add_parser(name, help=f"{name} on a pair of systems")
        common(p)
        p.add_argument("--spec2", help="second set-spec (default: first)")
        p.add_argument(
            "--shift2",
            type=_parse_point,
            help="translate the second system, e.g. 0.05,0.02",
        )
        p.add_argument("--r", type=float, required=True)
        p.add_argument("--depth", type=int, default=5)
        p.add_argument("--tol", type=float, default=1e-6)
        p.add_argument("--steps", type=int, default=200, help="construction step cap")
        p.set_defaults(handler=handler)

    p = sub.add_parser("distances", help="directional distance certificates")
    common(p)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--directions", type=int, default=16)
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--tmax", type=float, help="top of the t grid (default: the limit)")
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(handler=_cmd_distances)

    p = sub.add_parser("game", help="seeded erase-and-shrink matches")
    common(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--rho", type=float, help="opening radius (default: beta * root)")
    p.add_argument("--games", type=int, default=100)
    p.set_defaults(handler=_cmd_game)

    p = sub.add_parser("dims", help="dimension bound calculators")
    p.add_argument("d", type=int)
    p.add_argument("tau", type=float)
    p.add_argument("m0", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--K1", type=float, default=1.0)
    p.add_argument("--K2", type=float, default=1.0)
    common(p, spec=False)
    p.set_defaults(handler=_cmd_dims)

    p = sub.add_parser("pattern", help="scaled-pattern witness search")
    common(p)
    p.add_argument("lam", type=float)
    p.add_argument("points", nargs="+", help="pattern points, e.g. 0 1 2 or 0,0 1,0")
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--grid", type=float, default=0.01)
    p.set_defaults(handler=_cmd_pattern)

    p = sub.add_parser("render", help="CSV dump of the ball tree")
    common(p)
    p.add_argument("--depth", type=int, default=2)
    p.set_defaults(handler=_cmd_render)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except SpecError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INPUT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_UNKNOWN


if __name__ == "__main__":
    raise SystemExit(main())
