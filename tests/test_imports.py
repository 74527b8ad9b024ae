"""Every import of the library sits at module level, and the CLI's
import graph holds neither ``dataclasses`` nor ``typing``.

An import inside a function body is how a module cycle gets dodged;
the element types live in ``crystals`` so that no module needs one.
Every record is a tuple or a plain class, so no module needs the two
code generators either, nor ``inspect``, which ``dataclasses`` loads."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "gkmcrystals").glob("*.py"))


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


def test_cli_import_graph_has_no_code_generators():
    # -I -S: no environment, user site or site hooks; src is put on sys.path
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import gkmcrystals.cli; "
            "print(sorted({'dataclasses', 'typing', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
