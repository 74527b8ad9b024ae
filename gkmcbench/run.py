"""gkmc benchmark driver.

    python3 gkmcbench/run.py --workload {binf-gen|oracle|tensor-witness}
        --seed N --seconds S --trace {0|1}

Run from the root of a source checkout: the library is imported from
``src/`` of that checkout and nowhere else.  One client runs jobs in a
closed loop in this process; each job is one in-process ``gkmc``
invocation (``gkmcrystals.cli.main``) with its stdout captured, or one
of the two library calls that have no CLI verb.  Every job's exit code,
verdict line and stdout digest are checked against ``expected.json``.

``--trace 0`` times jobs for S seconds and reports the end-to-end
metrics.  ``--trace 1`` runs one seeded round of the menu (every item
once), each job first untraced and then traced, and reports the
per-layer metrics; the traced spans are written to
``.bench_work/trace-<workload>-<seed>.json``.

Timings are reported in reference-host seconds (see ``ReferenceClock``).
The last line of stdout is the result object; the line before it holds
the run's context, which is not a metric: code identity, interpreter,
cpu count, a calibration loop timed before and after the workload, the
raw wall-clock timings and ``fail_frac``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import menu
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".bench_work"
SETUP_REPEATS = 5
# The host's speed drifts by tens of percent within minutes, so timings
# are reported in reference-host seconds: each timed interval is scaled
# by CAL_REF_S over the mean time of calibrate() just before and just
# after it.  CAL_REF_S is what calibrate() took on the host the
# benchmark was defined on; it fixes the unit and must not change.
CAL_WIDTH, CAL_DEPTH = 5, 7
CAL_REF_S = 0.0015


class SetupError(Exception):
    pass


def import_library():
    """Import gkmcrystals (and its CLI) afresh from this checkout."""
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "gkmcrystals" or n.startswith("gkmcrystals.")]:
        del sys.modules[name]
    try:
        G = importlib.import_module("gkmcrystals")
        importlib.import_module("gkmcrystals.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import gkmcrystals from {src}: {exc}") from exc
    if not Path(G.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SetupError(f"gkmcrystals was imported from {G.__file__}, not from {src}")
    return G


def setup(workload, seed, directory):
    """Import the library, write the datum files and start the seeded
    job stream; returns (G, datum paths, job stream)."""
    G = import_library()
    items = menu.MENUS[workload]
    paths = menu.write_datum_files(G, menu.datum_names(items), directory)
    return G, paths, menu.job_stream(len(items), seed)


def calibrate(repeats=1) -> float:
    """Seconds for a fixed breadth-first enumeration of integer tuples,
    the same kind of work as the library (tuples, lists, dicts, sorting)
    but none of its code; tracks host speed.  The garbage collector is
    paused, so that its pauses, which grow with the heap, stay out."""
    gc.disable()
    start = perf_counter()
    for _ in range(repeats):
        seen = {(): 0}
        layer = [()]
        for _ in range(CAL_DEPTH):
            found = []
            for x in layer:
                for i in range(CAL_WIDTH):
                    y = list(x) + [0] * (i + 1 - len(x))
                    y[i] += 1
                    t = tuple(y)
                    if t not in seen:
                        seen[t] = len(seen)
                        found.append(t)
            layer = sorted(found)
    elapsed = perf_counter() - start
    gc.enable()
    return elapsed


class ReferenceClock:
    """Times calls in wall seconds and in reference-host seconds."""

    def __init__(self):
        self.last_calibration = calibrate()

    def time(self, fn, *args):
        """Return (result, wall seconds, reference seconds)."""
        start = perf_counter()
        result = fn(*args)
        wall = perf_counter() - start
        calibration = calibrate()
        scale = 2 * CAL_REF_S / (self.last_calibration + calibration)
        self.last_calibration = calibration
        return result, wall, wall * scale


def _git_sha():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            ref = (git / ref[5:]).read_text().strip()
    except OSError:
        return None
    return ref


def _src_sha256():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gkmcrystals").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def context(calib_before, calib_after):
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "calib_before_s": calib_before,
        "calib_after_s": calib_after,
    }


def check_job(item, code, stdout, expected) -> bool:
    return expected.get(item.key) == menu.outcome(code, stdout)


def latency_metrics(done, column) -> dict:
    """Latency statistics over ``done`` = [(item key, wall s, reference
    s)], taking times from the given column."""
    times = [job[column] for job in done]
    per_item = {}
    for job in done:
        per_item.setdefault(job[0], []).append(job[column])
    log_medians = [math.log(statistics.median(v)) for v in per_item.values()]
    return {
        "job_s.p50": statistics.median(times),
        "job_s.p90": statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0],
        "job_s.geomean": math.exp(statistics.fmean(log_medians)),
        "jobs_per_s": len(times) / sum(times),
    }


def timed_run(G, items, paths, jobs, expected, seconds):
    clock = ReferenceClock()
    done = []  # (item key, wall seconds, reference seconds)
    failed = 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        item = items[next(jobs)]
        (code, stdout), wall, ref = clock.time(menu.run_item, G, item, paths)
        done.append((item.key, wall, ref))
        failed += not check_job(item, code, stdout, expected)
    n = len(done)
    # Timings come from complete rounds only, so that every item weighs
    # the same in every run; the jobs of the last, partial round are
    # checked but not timed.
    timed = done[: n - n % len(items)] or done
    units = {"job_s.p50": "s", "job_s.p90": "s", "job_s.geomean": "s", "jobs_per_s": "1/s"}
    metrics = {name: (v, units[name]) for name, v in latency_metrics(timed, 2).items()}
    metrics["pass_frac"] = ((n - failed) / n, "frac")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    summary = {
        "jobs": n,
        "timed_jobs": len(timed),
        "fail_frac": failed / n,
        "wall": latency_metrics(timed, 1),
    }
    return n, failed, metrics, summary


def _option(argv, flag):
    return argv[argv.index(flag) + 1]


def coverage_problems(G, item, stdout, delta) -> list:
    """Cross-check the tracer's counters against the job's own output."""
    problems = []

    def expect(counter, want):
        got = delta.get(counter, 0)
        if got != want:
            problems.append(f"{item.key}: {counter} = {got}, output says {want}")

    verdict = menu.VERDICT_RE.match(menu.verdict_line(stdout))
    command = item.command
    if command == "gen" and "dot" not in item.argv:
        expect("graph.bfs.nodes", len(json.loads(stdout)["nodes"]))
    elif command in ("check axioms", "check profile", "axioms"):
        expect("checks.checked", int(verdict.group(2)))
    elif command == "check assoc":
        expect("tensor.assoc.checked", int(verdict.group(2)))
    elif command.startswith("check oracle"):
        depth = int(_option(item.argv, "--depth"))
        if command == "check oracle-rank2":
            abc = (int(v) for v in _option(item.argv, "--abc").split(","))
            seq = G.cyclic_sequence(G.rank2_datum(G.Rank2Params(*abc)))
        else:
            mult = tuple(int(v) for v in _option(item.argv, "--mult").split(","))
            params = G.MonsterParams(int(_option(item.argv, "--level")), mult)
            seq = G.MonsterModel(params).sequence
        bound = len(seq.prefix) + (depth + 1) * len(seq.cycle)
        expect("oracle.enumerate.candidates", math.comb(bound + depth, depth))
    return problems


def traced_run(G, items, paths, jobs, expected, trace_path):
    tracer = Tracer()
    before = Tracer.snapshot()
    untraced_s = traced_s = 0.0
    failed = 0
    problems = []
    for _ in range(len(items)):
        item = items[next(jobs)]
        start = perf_counter()
        code, stdout = menu.run_item(G, item, paths)
        untraced_s += perf_counter() - start
        failed += not check_job(item, code, stdout, expected)

        with tracer.installed():
            stale = tracer.unpatched_references()
            problems.extend(f"unpatched reference {name}" for name in stale)
            failed += bool(stale)
            start = perf_counter()
            with tracer.job(item.key) as delta:
                code, stdout = menu.run_item(G, item, paths)
            traced_s += perf_counter() - start
        ok = check_job(item, code, stdout, expected)
        job_problems = coverage_problems(G, item, stdout, delta) if ok else []
        problems.extend(job_problems)
        failed += not ok or bool(job_problems)
    if Tracer.snapshot() != before:
        problems.append("patched attributes were not all restored")
        failed += 1
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"span_fields": ["name", "start", "end", "parent", "job"], "spans": tracer.spans,
                   "counts": tracer.counts, "self_s": tracer.self_s}, fh)
    metrics = tracer.layer_metrics(traced_s / untraced_s - 1)
    summary = {"jobs": 2 * len(items), "untraced_s": untraced_s, "traced_s": traced_s,
               "spans": len(tracer.spans), "problems": problems[:20]}
    return 2 * len(items), failed, metrics, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(menu.MENUS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    calib_before = calibrate(50)
    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        clock = ReferenceClock()
        setup_times = []  # (wall, reference) seconds
        for r in range(SETUP_REPEATS):
            directory = os.path.join(workdir, f"setup{r}")
            os.mkdir(directory)
            (G, paths, jobs), wall, ref = clock.time(setup, args.workload, args.seed, directory)
            setup_times.append((wall, ref))
        expected = menu.load_expected(BENCH_DIR / "expected.json")[args.workload]
        items = menu.MENUS[args.workload]
        if args.trace:
            trace_path = WORK_DIR / f"trace-{args.workload}-{args.seed}.json"
            attempted, failed, metrics, summary = traced_run(
                G, items, paths, jobs, expected, trace_path
            )
        else:
            attempted, failed, raw, summary = timed_run(
                G, items, paths, jobs, expected, args.seconds
            )
            raw["setup_s"] = (statistics.median(ref for _, ref in setup_times), "s")
            summary["wall"]["setup_s"] = statistics.median(wall for wall, _ in setup_times)
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in raw.items()}
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calib_after = calibrate(50)

    print(json.dumps({"context": context(calib_before, calib_after), **summary}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
