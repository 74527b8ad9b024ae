"""The README's examples run: the "Library quick start" block prints
what it promises (two clean check reports, then an oracle comparison
whose multiplicities agree), and every line of the "Command line" block
exits 0 on the rank-2 datum the README says it assumes."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

import gkmcrystals as G

from conftest import make_d1
from test_cli_golden import run_case

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading, language) -> str:
    """The first ``language`` block of the README section ``heading``."""
    sections = README.read_text(encoding="utf-8").split("\n## ")
    [section] = [s for s in sections if s.startswith(heading + "\n")]
    match = re.search(rf"^```{language}\n(.*?)^```", section, re.S | re.M)
    assert match, f"README's {heading} section has no {language} block"
    return match.group(1)


def test_library_quick_start_runs_clean():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(readme_block("Library quick start", "python"), str(README), "exec"), {})
    axioms, projection, oracle = out.getvalue().splitlines()
    assert " 0 violations" in axioms and int(axioms.split()[0]) > 0
    assert projection.startswith("0 violations")
    assert "multiplicities agree" in oracle


def command_lines():
    """Each ``gkmc`` line of the block as argv, its optional ``[...]``
    parts given and ``NAME`` set to the index name ``1``."""
    lines = readme_block("Command line", "sh").splitlines()
    return [shlex.split(re.sub(r"\[([^]]*)\]", r"\1", line).replace("NAME", "1"))[1:]
            for line in lines]


@pytest.mark.parametrize("argv", command_lines(), ids=" ".join)
def test_command_line_example_exits_zero(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    G.save_datum_file("d.json", make_d1())
    assert run_case(argv, {}, tmp_path)["exit"] == 0
