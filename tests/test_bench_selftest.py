"""The benchmark's own self-test, run by tier-1 and so by every CI run.

``gkmcbench/tracer.py`` patches library functions and methods by name
(``bracket_wt``, ``reassociate``, the class-level ``StringCrystal`` and
``TensorCrystal`` operators, among others), and the self-test asserts
that a traced run reaches the string operators.  A rename or a rewiring
in the library that breaks either shows up here, not only in CI.

The self-test traces ``tensor-witness`` items only; the second test
traces one ``binf-gen`` and two ``oracle`` items, whose coverage checks
compare the BFS node count with the export and the oracle's candidate
count with its box.  Both run in a child process with ``gkmcbench/`` as
the working directory, since ``run.import_library`` re-imports the
package."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_ITEMS = """
import tempfile

import menu
import run
from tracer import Tracer

ITEMS = {"binf-gen": ["gen-json r110 d9"],
         "oracle": ["oracle-rank2 r110 d5", "oracle-monster L2 m2,1 d3"]}
G = run.import_library()
expected = menu.load_expected(run.BENCH_DIR / "expected.json")
before, tracer = Tracer.snapshot(), Tracer()
with tempfile.TemporaryDirectory() as tmp, tracer.installed():
    assert tracer.unpatched_references() == [], tracer.unpatched_references()
    for workload, keys in ITEMS.items():
        items = [item for item in menu.MENUS[workload] if item.key in keys]
        assert len(items) == len(keys), keys
        paths = menu.write_datum_files(G, menu.datum_names(items), tmp)
        for item in items:
            with tracer.job(item.key) as delta:
                code, stdout = menu.run_item(G, item, paths)
            assert run.check_job(item, code, stdout, expected[workload]), item.key
            assert run.coverage_problems(G, item, stdout, delta) == [], item.key
assert Tracer.snapshot() == before
"""


def run_in_bench_dir(args):
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT / "gkmcbench", capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_bench_selftest_passes():
    run_in_bench_dir(["selftest.py"])


def test_traced_binf_gen_and_oracle_items_pass_their_coverage_checks():
    run_in_bench_dir(["-c", TRACED_ITEMS])
