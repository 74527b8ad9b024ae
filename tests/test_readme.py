"""The README's "Library quick start" block runs and prints what it
promises: two clean check reports, then an oracle comparison whose
multiplicities agree."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library quick start\n\n```python\n(.*?)^```", text, re.S | re.M)
    assert match, "README has no Library quick start python block"
    return match.group(1)


def test_library_quick_start_runs_clean():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start_block(), str(README), "exec"), {})
    axioms, projection, oracle = out.getvalue().splitlines()
    assert " 0 violations" in axioms and int(axioms.split()[0]) > 0
    assert projection.startswith("0 violations")
    assert "multiplicities agree" in oracle
