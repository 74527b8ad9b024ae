"""The ``gkmc`` exit contract where the golden cases cannot reach:
exports too large to pin, a failed generation audit, and the module's
``__main__`` block, which only ``python -m gkmcrystals.cli`` runs.  One
child process per exit code checks the status it hands the shell."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from gkmcrystals import tensor

from test_cli_golden import datum_files, run_case  # datum_files: the shared fixture

SRC = Path(__file__).resolve().parent.parent / "src"


def test_wide_monster_export(datum_files):
    assert run_case(["gen", "--datum", "{wide}", "--depth", "2"], *datum_files)["exit"] == 0


def test_two_spellings_of_the_block_sequence_export_the_same_bytes(datum_files):
    # depth-5 strings reach 18 positions, so the cached index array regrows
    block, explicit = (
        run_case(["gen", "--datum", "{monster}", "--depth", "5", "--seq", seq], *datum_files)
        for seq in ["monster", "explicit:(-1,1),(1,1),(1,2);(-1,1),(1,1),(1,2),(2,1)"]
    )
    assert block["exit"] == 0 and block == explicit


@pytest.mark.parametrize("verb", [["gen", "--mode", "hw"], ["check", "projection"]],
                         ids=["gen-hw", "check-projection"])
def test_failed_audit_exits_one(datum_files, monkeypatch, verb):
    # lowering on ties breaks B(lambda), and the audit catches it
    monkeypatch.setattr(
        tensor, "lowering_side", lambda phi, eps: tensor.LEFT if phi >= eps else tensor.RIGHT
    )
    result = run_case([*verb, "--datum", "{d1}", "--lambda", "1,1", "--depth", "3"], *datum_files)
    assert result["exit"] == 1
    assert result["stderr"].startswith("audit failed: ") and "admits no raising" in result["stderr"]


@pytest.mark.parametrize("code, argv", [
    (0, ["validate", "--datum", "{d1}"]),
    (1, ["validate", "--datum", "{violation}"]),
    (2, ["gen", "--datum", "{d1}", "--depth", " 3"]),
], ids=["valid", "condition-violation", "spaced-integer"])
def test_module_entry_point(datum_files, code, argv):
    files, _ = datum_files
    proc = subprocess.run(
        [sys.executable, "-m", "gkmcrystals.cli", *(files.get(a[1:-1], a) for a in argv)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code and "Traceback" not in proc.stderr, proc.stderr
