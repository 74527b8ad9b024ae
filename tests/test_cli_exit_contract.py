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
from gkmcrystals.cli import main

from test_cli_golden import run_case, write_datum_files

SRC = Path(__file__).resolve().parent.parent / "src"


def test_wide_monster_export(tmp_path):
    files = write_datum_files(tmp_path)
    assert run_case(["gen", "--datum", "{wide}", "--depth", "2"], files, tmp_path)["exit"] == 0


def test_two_spellings_of_the_block_sequence_export_the_same_bytes(tmp_path):
    # depth-5 strings reach 18 positions, so the cached index array regrows
    files = write_datum_files(tmp_path)
    block, explicit = (
        run_case(["gen", "--datum", "{monster}", "--depth", "5", "--seq", seq], files, tmp_path)
        for seq in ["monster", "explicit:(-1,1),(1,1),(1,2);(-1,1),(1,1),(1,2),(2,1)"]
    )
    assert block["exit"] == 0 and block == explicit


@pytest.mark.parametrize("verb", [["gen", "--mode", "hw"], ["check", "projection"]],
                         ids=["gen-hw", "check-projection"])
def test_failed_audit_exits_one(tmp_path, monkeypatch, capsys, verb):
    # lowering on ties breaks B(lambda), and the audit catches it
    monkeypatch.setattr(
        tensor, "lowering_side", lambda phi, eps: tensor.LEFT if phi >= eps else tensor.RIGHT
    )
    datum = write_datum_files(tmp_path)["d1"]
    assert main([*verb, "--datum", datum, "--lambda", "1,1", "--depth", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("audit failed: ") and "admits no raising" in err


@pytest.mark.parametrize("code, argv", [
    (0, ["validate", "--datum", "{d1}"]),
    (1, ["validate", "--datum", "{violation}"]),
    (2, ["gen", "--datum", "{d1}", "--depth", " 3"]),
], ids=["valid", "condition-violation", "spaced-integer"])
def test_module_entry_point(tmp_path, code, argv):
    files = write_datum_files(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "gkmcrystals.cli", *(files.get(a[1:-1], a) for a in argv)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code and "Traceback" not in proc.stderr, proc.stderr
