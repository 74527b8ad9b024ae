"""The ``gkmc`` exit contract where the golden cases cannot reach:
exports too large to pin, a failed generation audit, the module's
``__main__`` block, which only ``python -m gkmcrystals.cli`` runs,
selected Monster oracles down to depth 0, and oracle boxes refused by
their size before any work.  One child process
per exit code checks the status it hands the shell."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gkmcrystals import cli, tensor

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


@pytest.mark.parametrize("level, mult, depth", [(1, "1", 0), (2, "1,1", 0), (1, "2", 3)],
                         ids=["1-1-depth0", "2-11-depth0", "1-2-depth3"])
def test_a_selected_monster_oracle_runs_from_depth_zero(datum_files, level, mult, depth):
    # the window selection reads its bounds off the sequence: the depth-0
    # box ends at the last first occurrence, before any window past it
    argv = ["check", "oracle-monster", "--level", str(level), "--mult", mult,
            "--depth", str(depth)]
    result = run_case(argv, *datum_files)
    assert result["exit"] == 0, result
    assert result["stdout"].startswith(
        f"oracle-monster level={level} m={mult}: predicate-only 0, generation-only 0, "
        "multiplicities agree")


@pytest.mark.parametrize("argv", [
    ["check", "oracle-rank2", "--abc", "1,1,0", "--depth", "12"],
    ["check", "oracle-monster", "--level", "1", "--mult", "40", "--depth", "4"],
    ["check", "oracle-rank2", "--abc", "1,1,0", "--depth", "6000"],
    ["check", "oracle-rank2", "--abc", "1,1,0", "--depth", "1000000000"],
], ids=["rank2-depth12", "monster-1-40-depth4", "rank2-depth6000", "rank2-depth1e9"])
def test_an_oracle_box_over_budget_exits_two_at_once(argv):
    # C(38,12) and C(209,4) candidates; C(18002,6000) has more digits
    # than Python turns into a string, and C(3e9 + 2, 1e9) more than fit
    # in memory: each is refused before any string is enumerated
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "gkmcrystals.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=60,
    )
    assert time.perf_counter() - start < 10
    assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr
    assert "oracle box holds more than 10,000,000 candidate strings" in proc.stderr


@pytest.mark.parametrize("limit, code", [(5, 0), (4, 2)], ids=["exact", "one-short"])
def test_an_oracle_box_at_the_budget_runs(datum_files, monkeypatch, limit, code):
    # the depth-1 box holds C(5,1) = 5 strings
    monkeypatch.setattr(cli, "_MAX_CANDIDATES", limit)
    argv = ["check", "oracle-rank2", "--abc", "1,1,0", "--depth", "1"]
    result = run_case(argv, *datum_files)
    assert result["exit"] == code
    if code:
        assert result["stderr"] == (
            "error: the depth-1 oracle box holds more than 4 candidate strings\n")
