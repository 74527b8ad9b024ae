"""Self-tests of the benchmark itself (not of gkmcrystals).

    python3 gkmcbench/selftest.py

They check that job lists follow the seed, that tracing leaves the
library exactly as it found it, and that the output and coverage checks
can fail.
"""

from __future__ import annotations

import copy
import sys
import tempfile
import unittest

import menu
import run
from tracer import Tracer

# Small tensor-witness items: one CLI check, one gen export, one
# library call, so every job path runs in well under a second.
SMALL = ("profile-hw r110 lam2,0 d5", "gen-hw r110 lam2,0 d5", "decomposition-lib r110 (1, 0)+(0, 1) d4")


class BenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.G = run.import_library()
        run.WORK_DIR.mkdir(exist_ok=True)
        cls.tmp = tempfile.TemporaryDirectory(dir=run.WORK_DIR)
        by_key = {item.key: item for item in menu.MENUS["tensor-witness"]}
        cls.items = [by_key[key] for key in SMALL]
        cls.paths = menu.write_datum_files(cls.G, menu.datum_names(cls.items), cls.tmp.name)
        cls.expected = menu.load_expected(run.BENCH_DIR / "expected.json")

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_job_list_follows_seed(self):
        for items in menu.MENUS.values():
            n = len(items)
            self.assertEqual(menu.job_list(n, 7, 3 * n), menu.job_list(n, 7, 3 * n))
            self.assertNotEqual(menu.job_list(n, 7, 3 * n), menu.job_list(n, 8, 3 * n))
            first_round = menu.job_list(n, 7, n)
            self.assertEqual(sorted(first_round), list(range(n)))

    def test_expected_table_covers_every_item(self):
        for workload, items in menu.MENUS.items():
            self.assertEqual(set(self.expected[workload]), {item.key for item in items})

    def test_tracing_restores_every_attribute(self):
        before = Tracer.snapshot()
        tracer = Tracer()
        with tracer.installed():
            self.assertNotEqual(Tracer.snapshot(), before)
            self.assertEqual(tracer.unpatched_references(), [])
            for item in self.items:
                with tracer.job(item.key) as delta:
                    code, stdout = menu.run_item(self.G, item, self.paths)
                self.assertEqual(
                    run.coverage_problems(self.G, item, stdout, delta), [], item.key
                )
        self.assertEqual(Tracer.snapshot(), before)
        self.assertGreater(tracer.counts["string.f.calls"], 0)
        self.assertGreater(len(tracer.spans), len(self.items))

    def test_corrupted_digest_fails(self):
        expected = copy.deepcopy(self.expected["tensor-witness"])
        _, failed, metrics, _ = self._timed(expected)
        self.assertEqual(failed, 0)
        self.assertEqual(metrics["pass_frac"][0], 1.0)
        expected[SMALL[0]]["sha256"] = "0" * 64
        attempted, failed, metrics, summary = self._timed(expected)
        self.assertGreater(failed, 0)
        self.assertGreater(summary["fail_frac"], 0)
        self.assertLess(metrics["pass_frac"][0], 1.0)

    def test_coverage_check_can_fail(self):
        item = self.items[0]
        code, stdout = menu.run_item(self.G, item, self.paths)
        self.assertNotEqual(run.coverage_problems(self.G, item, stdout, {}), [])

    def _timed(self, expected):
        jobs = menu.job_stream(len(self.items), 1)
        return run.timed_run(self.G, self.items, self.paths, jobs, expected, 0.3)


if __name__ == "__main__":
    sys.exit(unittest.main())
