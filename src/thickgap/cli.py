"""Command-line surface: parse set-specs, run analyses, emit JSON/CSV reports.

Exit codes: 0 success or proven, 2 input error, 3 non-convergence,
4 refuted, 5 unknown. Every JSON report embeds its `config`: the parsed
command line, every argument of the subcommand under its parser name, with
the defaults a handler resolves at run time filled in (`distances --tmax`,
`game --rho`, `pattern`'s parsed points). Passing those values back as
arguments reruns the report bit for bit.

Handlers return (report, exit_code) and write nothing: a JSON payload
without `config`, or render's CSV text. `main` writes it, `config` first,
so a field that every report shares is added in one place.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys as _sys
from enum import Enum
from typing import List, Optional, Sequence, Tuple

# only what every subcommand needs loads with the module; each handler
# imports its analysis modules itself, so a process loads what it runs
from .ballsystem import (
    ROOT, BallSystem, BudgetExceeded, SpecError, Word, _check_grid, parse_set_spec, translate,
    word_str,
)
from .geometry import NormKind, Point, vector_size

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


# -- thickness ----------------------------------------------------------------


def _cmd_thickness(args: argparse.Namespace) -> Tuple[dict, int]:
    from .metrics import thickness

    _check_tol(args.tol)  # before the spec is read: the exit code does not depend on the set
    sys = _load_system(args.spec)
    report = thickness(sys, args.depth, args.tol)
    payload = {
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
    return payload, EXIT_OK if report.converged else EXIT_NO_CONVERGE


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


def _hypotheses_exit(report) -> int:
    """0 when every hypothesis is proven, 4 when one is refuted, else 5."""
    if report.all_proven:
        return EXIT_OK
    return EXIT_REFUTED if "refuted" in report.statuses else EXIT_UNKNOWN


def _check_tol(tol: float) -> None:
    if not 0 < tol < math.inf:
        raise ValueError(f"--tol must be positive and finite, got {tol!r}")


def _cmd_gapcheck(args: argparse.Namespace) -> Tuple[dict, int]:
    """gapcheck; intersect adds a certificate when every hypothesis is proven."""
    from .gaplemma import check_hypotheses, intersect

    if args.command == "intersect":
        # checked before any work, so the exit code does not depend on the set
        _check_tol(args.tol)
        if args.steps < 1:
            raise ValueError(f"--steps must be at least 1, got {args.steps}")
    sys1, sys2 = _load_pair(args)
    report = check_hypotheses(sys1, sys2, args.r, depth=args.depth)
    payload = {"hypotheses": _hypotheses_payload(report)}
    if args.command == "intersect" and report.all_proven:
        payload["certificate"] = intersect(sys1, sys2, args.r, args.tol, args.steps)
    return payload, _hypotheses_exit(report)


# -- directional distances -----------------------------------------------------


def _direction_sample(sys: BallSystem, count: int, seed: int) -> List[Point]:
    """Unit directions in the system norm: signs in 1-D, an angle grid in 2-D,
    seeded draws above."""
    import random

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


MAX_DISTANCE_ROWS = 10_000  # --directions x --steps; 78x the default 16 x 8


def _cmd_distances(args: argparse.Namespace) -> Tuple[dict, int]:
    from .gaplemma import check_hypotheses, directional_distance_certificate, distance_interval

    if min(args.directions, args.steps) < 1:
        # a run with no direction or no step would check nothing
        raise ValueError("--directions and --steps must be at least 1")
    if args.directions * args.steps > MAX_DISTANCE_ROWS:
        raise ValueError(
            f"--directions x --steps must be at most {MAX_DISTANCE_ROWS:,}, "
            f"got {args.directions} x {args.steps}"
        )
    _check_tol(args.tol)
    if args.tmax is not None and not 0 <= args.tmax < math.inf:
        raise ValueError(f"--tmax must be finite and non-negative, got {args.tmax!r}")
    sys = _load_system(args.spec)
    limit = distance_interval(args.r) * sys.root.radius
    if args.tmax is None:
        args.tmax = limit
    hypotheses = check_hypotheses(sys, sys, args.r)
    payload = {"hypotheses": _hypotheses_payload(hypotheses), "t_limit": limit}
    # no row is certified unless every hypothesis is proven
    directions = _direction_sample(sys, args.directions, args.seed) if hypotheses.all_proven else []
    if args.steps == 1:
        ts = [0.0]
    else:
        ts = [args.tmax * i / (args.steps - 1) for i in range(args.steps)]
    rows = []
    capped = 0  # failed rows whose search hit a cap on its work
    for v in directions:
        for t in ts:
            if t > limit * (1 + 1e-12):
                rows.append({"direction": v, "t": t, "status": "out_of_scope"})
                continue
            try:
                cert = directional_distance_certificate(sys, v, t, args.tol, r=args.r)
            except RuntimeError as exc:
                capped += isinstance(exc, BudgetExceeded)
                rows.append({"direction": v, "t": t, "status": "failed", "error": str(exc)})
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
    counts = {k: sum(row["status"] == k for row in rows) for k in ("ok", "failed", "out_of_scope")}
    payload["rows"] = rows
    payload["summary"] = {"total": len(rows), **counts}
    if not hypotheses.all_proven:
        return payload, _hypotheses_exit(hypotheses)
    if counts["failed"] == 0:
        return payload, EXIT_OK
    # a table that failed only on hit caps did not converge, as one run would
    return payload, EXIT_NO_CONVERGE if capped == counts["failed"] else EXIT_UNKNOWN


# -- game ----------------------------------------------------------------------


def _transcript_path(out: str, seed: int) -> str:
    stem = out[: -len(".json")] if out.endswith(".json") else out
    return f"{stem}-seed{seed}.jsonl"


MAX_GAMES = 10_000  # 100x the default --games


def _cmd_game(args: argparse.Namespace) -> Tuple[dict, int]:
    from .game import (
        play_batch,
        proposition_params,
        random_legal_bob,
        referee,
        transcript_to_jsonl,
    )

    if not args.alpha > 0:
        raise ValueError(f"alpha must be positive, got {args.alpha!r}")
    if args.games < 1:
        raise ValueError(f"--games must be at least 1, got {args.games}")
    if args.games > MAX_GAMES:
        raise ValueError(f"--games must be at most {MAX_GAMES:,}, got {args.games}")
    sys = _load_system(args.spec)
    base = proposition_params(sys, 1.0 / args.alpha, args.beta)
    if args.rho is None:
        args.rho = base.rho
    params = dataclasses.replace(base, alpha=args.alpha, c=args.c, rho=args.rho)
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
        "params": params,
        "classifications": tally,
        "violations": violations,
        "outcomes": outcomes,
    }
    clean = violations == 0 and set(tally) <= {"in_target", "erased"}
    return payload, EXIT_OK if clean else EXIT_UNKNOWN


# -- dimension bounds ------------------------------------------------------------


def _cmd_dims(args: argparse.Namespace) -> Tuple[dict, int]:
    from .dimension import dim_lower_bound

    value = dim_lower_bound(args.d, args.tau, args.m0)
    payload = {"formula_bound": value, "caveat": _D2_CAVEAT if args.d >= 2 else None}
    if args.alpha is not None and args.beta is not None and args.c is not None:
        from .game import BfsConstants, winning_dim_bound

        k = BfsConstants(args.K1, args.K2)
        payload["winning"] = winning_dim_bound(args.alpha, args.beta, args.c, args.d, k)
    return payload, EXIT_OK


# -- pattern search ---------------------------------------------------------------


def _cmd_pattern(args: argparse.Namespace) -> Tuple[dict, int]:
    from .game import pattern_search_oracle

    _check_tol(args.tol)
    sys = _load_system(args.spec)
    args.points = tuple(_parse_point(text) for text in args.points)
    witnesses = pattern_search_oracle(sys, args.points, args.lam, args.grid, args.tol)
    return {"count": len(witnesses), "witnesses": witnesses}, EXIT_OK if witnesses else EXIT_UNKNOWN


# -- geometry dump -----------------------------------------------------------------


MAX_RENDER_ROWS = 1_000_000  # 14x the benchmark's 69,905-row render; ~100 MB of text


def _render_rows(sys: BallSystem, depth: int) -> int:
    """The rows render writes down to depth, counted without writing one;
    past MAX_RENDER_ROWS the count may stop short."""
    if (sys.core or sys).is_finite:
        return sum(1 for _ in sys.walk(depth))  # the whole tree is in memory already
    # every node of a generated tree has the root's m children; for m >= 2
    # the levels down to k = the cap's bit length already pass the cap
    m, k = sys.child_count(ROOT), min(depth, MAX_RENDER_ROWS.bit_length())
    return depth + 1 if m < 2 else (m ** (k + 1) - 1) // (m - 1)


class _ReprCache(dict):
    """repr of each float, computed once per distinct nonzero value."""

    def __missing__(self, x: float) -> str:
        text = repr(x)
        if x:
            self[x] = text
        return text


def _cmd_render(args: argparse.Namespace) -> Tuple[str, int]:
    """CSV rows tag,center...,radius of every node down to --depth.

    One walk, depth first in child order as BallSystem.walk, takes the rows
    of each node's children from a child reader; a row's tag is its
    parent's tag plus its child index. A system with a corner grid (a Linf
    corner family and its similarity images, translates included) is read
    from CornerGrid.axes and builds no child block: each node's n
    coordinates per axis and its child radius are formatted once, and
    child j's row is its tag, the string of j's digit on each axis, axis
    0's varying fastest as in _corner_block, and the radius. axes() forms
    each coordinate as ball() does, so the rows are the block walk's bit
    for bit; when those floats fail _corner_block's checks, the reader
    builds the block, which holds them, to raise the block walk's error
    from whichever map of a chain it comes. Other systems read child blocks.

    A tree of n children per node has far fewer distinct floats than rows,
    so each float is formatted through a cache that lives for this call.
    The cache is exact because repr of a float is a function of its value,
    except for the sign of zero: 0.0 == -0.0 and they hash alike, but
    their reprs differ, so zeros are never stored.
    """
    if args.depth < 0:
        raise ValueError(f"render depth must be non-negative, got {args.depth}")
    sys = _load_system(args.spec)
    if _render_rows(sys, args.depth) > MAX_RENDER_ROWS:
        raise ValueError(f"render to depth {args.depth} writes more than {MAX_RENDER_ROWS:,} rows")
    depth = args.depth
    fmt = _ReprCache().__getitem__
    grid = sys.corner_grid
    # a reader gives the children's rows and, when they are inner, the
    # node each one's own children are read from
    if grid is None:

        def children(word: Word, node: None, prefix: str, inner: bool):
            centers, radii = sys.child_block(word)
            rows = [
                ",".join([prefix + str(i), *map(fmt, c), fmt(r)])
                for i, (c, r) in enumerate(zip(centers, radii))
            ]
            return rows, (None,) * len(rows)

        root_node = None
    else:
        labels = [str(j) for j in range(grid.params.child_count)]

        def children(word: Word, node: Tuple[Point, float], prefix: str, inner: bool):
            try:
                axes, core_radius, own = grid.axes(*node)
                _check_grid(axes, own)
            except ValueError:
                sys.child_block(word)  # raises the block walk's error
                raise
            cells = [["," + fmt(x) for x in row] for row in axes]
            tail = "," + fmt(own)
            cells[-1] = [cell + tail for cell in cells[-1]]
            tails = cells[0]
            for row in cells[1:]:
                tails = [t + cell for cell in row for t in tails]
            rows = [f"{prefix}{label}{t}" for label, t in zip(labels, tails)]
            if not inner:
                return rows, None
            centers = grid.params.block(*node)[0]  # the children's core centers, in row order
            return rows, [(c, core_radius) for c in centers]

        root_node = (grid.root.center, grid.root.radius)  # the core's root, not sys.root
    root = sys.root
    lines = []
    stack: List[Tuple[Word, str, str, object]] = [
        (ROOT, "", ",".join(["", *map(fmt, root.center), fmt(root.radius)]), root_node)
    ]
    while stack:
        word, tag, row, node = stack.pop()
        lines.append(row)
        if len(word) == depth:
            continue
        prefix = tag + "." if word else ""
        inner = len(word) + 1 < depth
        rows, nodes = children(word, node, prefix, inner)
        if not inner:
            lines.extend(rows)
            continue
        for i in range(len(rows) - 1, -1, -1):
            stack.append((word + (i,), prefix + str(i), rows[i], nodes[i]))
    return "\n".join(lines) + "\n", EXIT_OK


# -- parser ------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use.

    Callers share it: parse_args returns a fresh Namespace and leaves the
    parser as it was, so calls cannot leak values into each other; do not
    add arguments to the returned parser.
    """
    parser = argparse.ArgumentParser(
        prog="thickgap",
        description="Certified geometry of recursive ball systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, spec: bool = True) -> None:
        if spec:
            p.add_argument("--spec", required=True, help="set-spec JSON path")
        p.add_argument("--out", help="report path (default: stdout)")

    p = sub.add_parser("thickness", help="certified thickness enclosure")
    common(p)
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(handler=_cmd_thickness)

    for name in ("gapcheck", "intersect"):
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
        if name == "intersect":
            p.add_argument("--tol", type=float, default=1e-6)
            p.add_argument("--steps", type=int, default=200, help="construction step cap")
        p.set_defaults(handler=_cmd_gapcheck)

    p = sub.add_parser("distances", help="directional distance certificates")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--directions", type=int, default=16)
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--tmax", type=float, help="top of the t grid (default: the limit)")
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(handler=_cmd_distances)

    p = sub.add_parser("game", help="seeded erase-and-shrink matches")
    common(p)
    p.add_argument("--seed", type=int, default=0)
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # the namespace less its handler is the report's config
    handler = vars(args).pop("handler")
    try:
        report, code = handler(args)
        if isinstance(report, str):
            _emit_text(report, args.out)
        else:
            # read after the handler, which fills in the defaults it resolves
            _emit({"config": vars(args), **report}, args.out)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INPUT
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_NO_CONVERGE
    except RuntimeError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_UNKNOWN


if __name__ == "__main__":
    raise SystemExit(main())
