"""Every import of the library sits at module level.

An import inside a function body is how a module cycle gets dodged;
the element types live in ``crystals`` so that no module needs one."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "gkmcrystals").glob("*.py"))


def function_local_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append(f"{path.name}:{node.lineno} in {fn.name}")
    return found


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"crystals.py", "graph.py", "tensor.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    assert function_local_imports(path) == []
