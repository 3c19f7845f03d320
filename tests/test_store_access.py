"""Only `ballsystem` reads a system's node stores, and no library module
calls `children()`.

A stdlib `ast` walk over `src/thickgap/*.py`: every other library module
reads a tree through BallSystem's methods (ball, child_block, walk, path and
the rest), so the one store, the child blocks `_blocks`, can change inside
one module.
Child blocks are the one adjacency: `children()` wraps a block in fresh
Balls for callers outside the library, and the library reads blocks.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "thickgap"
ALL_MODULES = sorted(p.name for p in SRC.glob("*.py"))
MODULES = [name for name in ALL_MODULES if name != "ballsystem.py"]
STORES = {"_blocks"}


def test_every_module_is_checked():
    assert {"metrics.py", "gaplemma.py", "game.py", "dimension.py", "cli.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_no_node_store(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    reads = [
        f".{node.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in STORES
    ]
    assert not reads, f"{module} reads node stores outside ballsystem: {', '.join(reads)}"


@pytest.mark.parametrize("module", ALL_MODULES)
def test_module_calls_no_children(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    calls = [
        f".children() (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "children"
    ]
    assert not calls, f"{module} calls children() instead of reading child blocks: {', '.join(calls)}"
