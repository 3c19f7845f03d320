"""Spans and counters at the library's layer boundaries, for the traced run.

The tracer wraps library functions from the outside: it replaces each
boundary function in every loaded ``thickgap`` module that binds it, and
each boundary method on its class, and puts the originals back when it is
uninstalled. A span records its name, start, end, parent span and the
benchmark operation it ran under; spans stay in memory until the run
writes them out. Functions cheaper than a span are counted instead.

A boundary the library no longer has (a later refactor may rename or
delete the private ones) is skipped: its metrics read 0 and are listed
as absent, and the run goes on.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


def _add(counts: Dict[str, int], key: str, n: int) -> None:
    counts[key] = counts.get(key, 0) + n


def _oracle_name(args, kwargs) -> str:
    return f"metrics.oracle.{getattr(args[0], 'mode', 'unknown')}"


def _oracle_after(counts, args, kwargs, result) -> None:
    if getattr(args[0], "mode", None) == "bnb" and not result.converged:
        _add(counts, "metrics.bnb.unconverged", 1)


def _intersect_after(counts, args, kwargs, result) -> None:
    _add(counts, "gaplemma.intersect.steps", len(result.trace))


def _pattern_after(counts, args, kwargs, result) -> None:
    _add(counts, "game.pattern.witnesses", len(result))


def _batch_after(counts, args, kwargs, result) -> None:
    _add(counts, "metrics.corner1d_batch.points", int(np.size(args[0])))


def _emit_after(counts, args, kwargs, result) -> None:
    out = args[1] if len(args) > 1 else kwargs.get("out")
    if out:
        _add(counts, "cli.emit.bytes", os.path.getsize(out))


@dataclass(frozen=True)
class Boundary:
    """One wrapped library function: ``target`` is ``func`` or ``Class.method``
    in module ``thickgap.<module>``. A span boundary yields ``<name>.calls``
    (or ``.count``) and ``<name>.self_s``; a counted one yields ``name``."""

    module: str
    target: str
    name: str
    span: bool = True
    after: Optional[Callable] = None  # adds to the counters named in yields
    yields: Tuple[str, ...] = ()
    name_of: Optional[Callable] = None


BOUNDARIES = (
    Boundary("geometry", "norm_distance", "geometry.norm_distance.calls", span=False),
    Boundary("geometry", "Ball.__post_init__", "geometry.ball_new.calls", span=False),
    Boundary("ballsystem", "BallSystem.__init__", "ballsystem.systems.count", span=False),
    Boundary("ballsystem", "BallSystem.children", "ballsystem.children.calls", span=False),
    Boundary("ballsystem", "BallSystem._make_children", "ballsystem.expand"),
    Boundary("ballsystem", "BallSystem.siblings_disjoint_at_root", "ballsystem.siblings_disjoint"),
    Boundary(
        "metrics", "_DistOracle.enclosure", "metrics.oracle",
        after=_oracle_after, name_of=_oracle_name,
        yields=("metrics.bnb.unconverged",),
    ),
    Boundary("metrics", "hole_radius", "metrics.hole_radius"),
    Boundary("metrics", "thickness", "metrics.thickness"),
    Boundary("metrics", "denseness_check", "metrics.denseness"),
    Boundary(
        "metrics", "_corner1d_dist_batch", "metrics.corner1d_batch",
        after=_batch_after, yields=("metrics.corner1d_batch.points",),
    ),
    Boundary("gaplemma", "check_hypotheses", "gaplemma.check_hypotheses"),
    Boundary("gaplemma", "_locate", "gaplemma.locate"),
    Boundary(
        "gaplemma", "intersect", "gaplemma.intersect",
        after=_intersect_after, yields=("gaplemma.intersect.steps",),
    ),
    Boundary("gaplemma", "directional_distance_certificate", "gaplemma.certificate"),
    Boundary("selfsimilar", "homothetic_h0_upper", "selfsimilar.h0_upper"),
    Boundary("dimension", "moran_exponent", "dimension.moran"),
    Boundary("dimension", "measure_ball_bound_check", "dimension.measure_check"),
    Boundary("game", "play", "game.play"),
    Boundary("game", "AliceStrategy.respond", "game.respond"),
    Boundary("game", "referee", "game.referee"),
    Boundary(
        "game", "pattern_search_oracle", "game.pattern",
        after=_pattern_after, yields=("game.pattern.witnesses",),
    ),
    Boundary("cli", "_load_system", "cli.load"),
    Boundary("cli", "_emit", "cli.emit", after=_emit_after, yields=("cli.emit.bytes",)),
    Boundary("cli", "_emit_text", "cli.emit", after=_emit_after, yields=("cli.emit.bytes",)),
    Boundary("cli", "main", "cli.main"),
)

# (name, unit) of every per-layer metric, in report order
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("geometry.norm_distance.calls", "count"),
    ("geometry.ball_new.calls", "count"),
    ("ballsystem.systems.count", "count"),
    ("ballsystem.children.calls", "count"),
    ("ballsystem.expand.count", "count"),
    ("ballsystem.expand.self_s", "s"),
    ("ballsystem.cache_hit_ratio", "ratio"),
    ("ballsystem.siblings_disjoint.self_s", "s"),
    ("metrics.oracle.corner.calls", "count"),
    ("metrics.oracle.corner.self_s", "s"),
    ("metrics.oracle.finite1d.calls", "count"),
    ("metrics.oracle.finite1d.self_s", "s"),
    ("metrics.oracle.finite.calls", "count"),
    ("metrics.oracle.finite.self_s", "s"),
    ("metrics.oracle.bnb.calls", "count"),
    ("metrics.oracle.bnb.self_s", "s"),
    ("metrics.bnb.unconverged", "count"),
    ("metrics.hole_radius.calls", "count"),
    ("metrics.hole_radius.self_s", "s"),
    ("metrics.thickness.self_s", "s"),
    ("metrics.denseness.self_s", "s"),
    ("metrics.corner1d_batch.points", "count"),
    ("metrics.corner1d_batch.self_s", "s"),
    ("gaplemma.check_hypotheses.self_s", "s"),
    ("gaplemma.locate.calls", "count"),
    ("gaplemma.locate.self_s", "s"),
    ("gaplemma.intersect.self_s", "s"),
    ("gaplemma.intersect.steps", "count"),
    ("gaplemma.certificate.self_s", "s"),
    ("gaplemma.errors", "count"),
    ("selfsimilar.h0_upper.self_s", "s"),
    ("dimension.moran.calls", "count"),
    ("dimension.moran.self_s", "s"),
    ("dimension.measure_check.self_s", "s"),
    ("game.play.self_s", "s"),
    ("game.respond.calls", "count"),
    ("game.respond.self_s", "s"),
    ("game.referee.calls", "count"),
    ("game.referee.self_s", "s"),
    ("game.pattern.self_s", "s"),
    ("game.pattern.witnesses", "count"),
    ("cli.load.self_s", "s"),
    ("cli.emit.self_s", "s"),
    ("cli.emit.bytes", "B"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


# metrics read from counters; every other metric is read from the spans
COUNTERS = frozenset(
    [b.name for b in BOUNDARIES if not b.span]
    + [key for b in BOUNDARIES for key in b.yields]
    + ["gaplemma.errors"]
)


def _boundary_metrics(b: Boundary) -> List[str]:
    return [
        name
        for name, _unit in PER_LAYER
        if name == b.name or name.startswith(b.name + ".") or name in b.yields
    ]


def _library_modules() -> List[object]:
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == "thickgap" or key.startswith("thickgap."))
    ]


class Tracer:
    """Span and counter recorder; install() wraps the boundaries, uninstall() restores."""

    def __init__(self) -> None:
        # one span: [name, start, end, parent span index or -1, op id]
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Dict[str, int] = {}
        self.op_id: Optional[int] = None
        self.absent: List[str] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- operations issued by the benchmark ------------------------------------

    def begin_op(self, op_id: int, name: str) -> None:
        self.op_id = op_id
        self.stack.append(len(self.spans))
        self.spans.append([f"op.{name}", perf_counter(), 0.0, -1, op_id])

    def end_op(self) -> None:
        self.spans[self.stack.pop()][2] = perf_counter()
        self.op_id = None

    # -- wrapping ---------------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary the library has; record the missing ones as absent."""
        modules = _library_modules()
        self.absent = []
        for b in BOUNDARIES:
            module = sys.modules.get(f"thickgap.{b.module}")
            owner_name, _, attr = b.target.rpartition(".")
            owner = module
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.extend(m for m in _boundary_metrics(b) if m not in self.absent)
                continue
            wrapper = self._span(b, original) if b.span else self._count(b.name, original)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _span(self, b: Boundary, fn):
        tracer = self
        spans, stack, counts = self.spans, self.stack, self.counts
        after, name_of = b.after, b.name_of

        def spanned(*args, **kwargs):
            name = name_of(args, kwargs) if name_of is not None else b.name
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[2] = perf_counter()
                stack.pop()
                tracer._error(rec)
                raise
            rec[2] = perf_counter()
            stack.pop()
            if after is not None:
                after(counts, args, kwargs, result)
            return result

        spanned.__wrapped__ = fn
        return spanned

    def _error(self, rec: list) -> None:
        """Count an exception once per layer: where it leaves the layer's outermost span."""
        layer = rec[0].split(".", 1)[0]
        parent = self.spans[rec[3]][0] if rec[3] >= 0 else ""
        if parent.split(".", 1)[0] != layer:
            _add(self.counts, f"{layer}.errors", 1)

    # -- results ----------------------------------------------------------------

    def span_totals(self) -> Dict[str, Tuple[int, float]]:
        """name -> (calls, self time); self time excludes time in child spans."""
        covered = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                covered[rec[3]] += rec[2] - rec[1]
        totals: Dict[str, Tuple[int, float]] = {}
        for rec, inner in zip(self.spans, covered):
            calls, self_s = totals.get(rec[0], (0, 0.0))
            totals[rec[0]] = (calls + 1, self_s + (rec[2] - rec[1]) - inner)
        return totals

    def layer_metrics(self, rounds: int, overhead_s: float) -> Dict[str, float]:
        """Every per-layer metric, per traced round; absent ones read 0."""
        totals = self.span_totals()
        out: Dict[str, float] = {}
        for name, _unit in PER_LAYER:
            if name in COUNTERS:
                value = float(self.counts.get(name, 0))
            else:
                stem, _, what = name.rpartition(".")
                calls, self_s = totals.get(stem, (0, 0.0))
                value = self_s if what == "self_s" else float(calls)
            out[name] = value / rounds
        children = out["ballsystem.children.calls"]
        expand = out["ballsystem.expand.count"]
        out["ballsystem.cache_hit_ratio"] = 1.0 - expand / children if children else 0.0
        if "ballsystem.children.calls" in self.absent or "ballsystem.expand.count" in self.absent:
            self.absent.append("ballsystem.cache_hit_ratio")
        out["trace.spans"] = len(self.spans) / rounds
        out["trace.overhead_s"] = overhead_s
        return out

    def write(self, path: Path) -> None:
        """All spans as gzipped JSON lines: [name, start_s, end_s, parent, op]."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec))
                fh.write("\n")
