"""Library imports: each one is used, and a process loads only the modules it needs.

A stdlib `ast` walk over `src/thickgap/*.py`, so the import left behind by
a refactor fails the tests. Names count as used when they appear as names
in the code, including annotations, quoted ones among them.

The package binds its exports lazily from one table, so a stale entry
would fail only when the name is first used: every name is resolved here.
Fresh interpreters pin which library modules each entry point loads.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thickgap

SRC = Path(__file__).resolve().parents[1] / "src" / "thickgap"
MODULES = sorted(p.name for p in SRC.glob("*.py"))
SPEC = Path(__file__).resolve().parents[1] / "bench" / "specs" / "corner10.json"


def _imported(tree: ast.Module):
    """(bound name, line) of every module-level import but __future__'s."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns


def _used(tree: ast.Module):
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return names


def test_every_module_is_checked():
    checked = {"__init__.py", "ballsystem.py", "metrics.py", "selfsimilar.py", "game.py"}
    assert checked <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_level_imports_are_used(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{module} imports names it never uses: {', '.join(unused)}"


# -- the package's export table ------------------------------------------------


def _defined_names(module: str):
    """Names a module's own top level binds by def, class or assignment."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, ast.AnnAssign):
            yield node.target.id


@pytest.mark.parametrize("name", thickgap.__all__)
def test_every_export_resolves_in_its_home_module(name):
    home = thickgap._EXPORTS[name]
    assert name in set(_defined_names(home)), f"{name} is not defined in thickgap.{home}"
    assert getattr(thickgap, name) is getattr(importlib.import_module(f"thickgap.{home}"), name)


def test_star_import_and_dir_cover_every_export():
    namespace: dict = {}
    exec("from thickgap import *", namespace)
    assert set(thickgap.__all__) <= set(namespace)
    assert set(thickgap.__all__) <= set(dir(thickgap))
    # no name is listed under two homes, where the later would win silently
    assert sum(len(names.split()) for names in thickgap._HOMES.values()) == len(thickgap.__all__)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_export'"):
        thickgap.no_such_export  # noqa: B018


# -- which modules each entry point loads --------------------------------------


def _cli(*argv: str) -> str:
    return f"import sys\nfrom thickgap.cli import main\nassert main({list(argv)!r}) == 0"


_BASE = {"thickgap", "thickgap.geometry", "thickgap.ballsystem"}
_RUNS = {
    "import": ("import sys, thickgap", {"thickgap"}),
    "parse_set_spec": (
        f"import json, sys, thickgap\nthickgap.parse_set_spec(json.load(open({str(SPEC)!r})))",
        _BASE,
    ),
    "cli --help": (_cli("--help"), _BASE | {"thickgap.cli"}),
    "cli render": (_cli("render", "--spec", str(SPEC), "--depth", "1"), _BASE | {"thickgap.cli"}),
    "cli gapcheck": (
        _cli("gapcheck", "--spec", str(SPEC), "--shift2", "0.05,0.02", "--r", "0.19556"),
        _BASE | {"thickgap.cli", "thickgap.gaplemma", "thickgap.metrics"},
    ),
    "cli thickness": (
        _cli("thickness", "--spec", str(SPEC), "--depth", "2", "--tol", "1e-3"),
        _BASE | {"thickgap.cli", "thickgap.metrics"},
    ),
}


@pytest.mark.parametrize("run", list(_RUNS))
def test_entry_points_load_only_what_they_use(run):
    code, want = _RUNS[run]
    report = (
        "\nimport json\nprint(json.dumps([sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'thickgap'), 'numpy' in sys.modules]))"
    )
    src = str(SRC.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code + report], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    loaded, numpy = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(loaded) == want
    # none of these runs a numpy path (test_game checks that one loads it)
    assert not numpy
