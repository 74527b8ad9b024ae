"""The benchmark's own self-test, run by tier-1 and so by every CI run.

``gkmcbench/tracer.py`` patches library functions and methods by name
(``bracket_wt``, ``reassociate``, the class-level ``StringCrystal`` and
``TensorCrystal`` operators, among others), and the self-test asserts
that a traced run reaches the string operators.  A rename or a rewiring
in the library that breaks either shows up here, not only in CI."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "gkmcbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
