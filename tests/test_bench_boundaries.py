"""The benchmark's tracer finds every library boundary it wraps.

bench/tracing.py times the layers by wrapping library functions by name
and reads a metric as absent when its function is gone. A refactor that
renames one silently zeroes that metric, so these tests fail instead.
"""

import importlib
import importlib.util
import json
import os
import pkgutil
import sys
from pathlib import Path

import thickgap
from thickgap.ballsystem import (
    CornerFamilyParams,
    GapList1D,
    HomotheticIFS,
    NormKind,
    corner_family,
    explicit_tree,
    from_gaps_1d,
    from_ifs,
)
from thickgap import cli, dimension
from thickgap.metrics import _oracle

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while it runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_boundary(monkeypatch):
    for info in pkgutil.iter_modules(thickgap.__path__):
        importlib.import_module(f"thickgap.{info.name}")
    tracer = _load_tracing(monkeypatch).Tracer()
    try:
        tracer.install()
        assert tracer.absent == []
    finally:
        tracer.uninstall()


def test_oracle_modes_the_tracer_names():
    # the tracer names the oracle metrics metrics.oracle.<mode>
    corner = corner_family(CornerFamilyParams(n=3, ell=0.5, d=2))
    tree = explicit_tree(NormKind.LINF, 2, list(corner.walk(1)))
    gaps = from_gaps_1d(GapList1D(hull=(0.0, 1.0), gaps=((0.4, 0.6),)))
    ifs = from_ifs(HomotheticIFS(((0.3, (-0.45, -0.45)), (0.3, (0.45, 0.45)))), NormKind.L2)
    grid = HomotheticIFS(tuple((0.3, (u, v)) for u in (-0.45, 0.45) for v in (-0.45, 0.45)))
    # corner families are axis products
    assert _oracle(corner).mode == "product"
    assert _oracle(gaps).mode == "finite1d"
    # a finite tree of d >= 2 is searched like any other tree
    assert _oracle(tree).mode == "bnb"
    assert _oracle(ifs).mode == "bnb"
    # both bench IFS specs are such product grids
    assert _oracle(from_ifs(grid, NormKind.L2)).mode == "product"
    assert _oracle(from_ifs(grid, NormKind.LINF)).mode == "product"


def test_tracer_counts_the_mass_walks_moran_solves(monkeypatch):
    # the walks call moran_exponent through the dimension module's global,
    # which the tracer replaces; an alias bound at import would go uncounted
    corner = corner_family(CornerFamilyParams(n=4, ell=0.4, d=2))
    tracer = _load_tracing(monkeypatch).Tracer()
    try:
        tracer.install()
        dimension.natural_measure(corner, 2)
        # the root and its 16 children split their mass once each
        assert tracer.span_totals()["dimension.moran"][0] == 17
        # called through the module, whose boundary the tracer wraps
        dimension.measure_ball_bound_check(corner, 0.1, 0.6, 50, seed=1)
    finally:
        tracer.uninstall()
    totals = tracer.span_totals()
    assert totals["dimension.measure_check"][0] == 1
    assert totals["dimension.moran"][0] > 17


def test_each_command_emits_once_and_counts_the_bytes_it_wrote(monkeypatch, tmp_path):
    # the tracer reads the output path from _emit's and _emit_text's second
    # argument; a command that wrote twice, or past them, would miscount
    paths = {}
    for name, gen in [
        ("corner4", {"type": "corner", "n": 4, "ell": 0.4}),
        ("corner10", {"type": "corner", "n": 10, "ell": 0.19}),
    ]:
        for d in (1, 2):
            paths[f"{name}_d{d}"] = path = str(tmp_path / f"{name}_d{d}.json")
            Path(path).write_text(json.dumps({"norm": "linf", "dimension": d, "generator": gen}))
    pair = ["--spec", paths["corner10_d2"], "--shift2", "0.05,0.02", "--r", "0.19556"]
    commands = [
        ["thickness", "--spec", paths["corner4_d2"], "--depth", "2"],
        ["gapcheck", *pair],
        ["intersect", *pair, "--tol", "1e-6"],
        ["distances", "--spec", paths["corner10_d2"], "--r", "0.19556", "--directions", "2",
         "--steps", "2"],
        ["game", "--spec", paths["corner4_d2"], "--alpha", str(1 / 3), "--beta", "0.2",
         "--games", "2"],
        ["dims", "2", "3", "16"],
        ["pattern", "--spec", paths["corner10_d1"], "0.05", "0", "1", "2"],
        ["render", "--spec", paths["corner4_d2"], "--depth", "2"],
    ]
    out = str(tmp_path / "report.out")
    tracer = _load_tracing(monkeypatch).Tracer()
    try:
        tracer.install()
        for argv in commands:
            spans = tracer.span_totals().get("cli.emit", (0, 0.0))[0]
            written = tracer.counts.get("cli.emit.bytes", 0)
            assert cli.main([*argv, "--out", out]) == 0, argv
            assert tracer.span_totals()["cli.emit"][0] == spans + 1, argv
            assert tracer.counts["cli.emit.bytes"] == written + os.path.getsize(out), argv
    finally:
        tracer.uninstall()
