"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
tolerance and budget is asserted, so a plain `pytest` run is equivalent.
"""

import json
import random
import time

import pytest

import gkmcrystals as G
from gkmcrystals.checks import check_axioms
from gkmcrystals.cli import main
from gkmcrystals.fuzzing import random_factor_graph, random_universe_graph
from gkmcrystals.tensor import verify_associativity

from conftest import make_d1, make_d2, make_imaginary_only, make_toy_monster

RANK2_PARAMS = [(1, 1, 0), (1, 2, 2), (2, 1, 4)]
RANK2_LAMBDAS = [(h1, h2) for h1 in (0, 1, 2) for h2 in (0, 1)]
MONSTER_MODELS = [(2, (2, 1)), (3, (1, 1, 1))]
SEED = 20260809


def _report(number, ok, elapsed, budget, detail):
    flag = "PASS" if ok else "FAIL"
    bound = f" < {budget}s" if budget else ""
    print(f"criterion-{number:02d} {flag} ({elapsed:.1f}s{bound}): {detail}")


def fuzz_datums():
    return [make_d1(), make_d2(), make_toy_monster().datum]


def rank2_hw_configs():
    for abc in RANK2_PARAMS:
        p = G.Rank2Params(*abc)
        datum = G.rank2_datum(p)
        seq = G.cyclic_sequence(datum)
        for h1, h2 in RANK2_LAMBDAS:
            yield p, datum, seq, datum.weight(lam=[h1, h2])


def monster_hw_configs():
    for level, mults in MONSTER_MODELS:
        model = G.MonsterModel(G.MonsterParams(level, mults))
        for k in (0, 1):
            yield model, model.datum.fundamental(0).scaled(k)


def test_criterion_01_axiom_suite():
    start = time.perf_counter()
    datums = fuzz_datums()
    rng = random.Random(SEED)
    violations = 0
    for trial in range(500):
        report = check_axioms(random_universe_graph(rng, datums[trial % 3]))
        violations += len(report.violations) + len(report.coverage_errors)
    elapsed = time.perf_counter() - start
    _report(1, violations == 0 and elapsed < 30, elapsed, 30,
            f"500 random crystals, {violations} violations")
    assert violations == 0
    assert elapsed < 30


def test_criterion_02_associativity():
    start = time.perf_counter()
    datums = fuzz_datums()
    rng = random.Random(SEED + 1)
    mismatches = 0
    triples = 0
    for trial in range(50):
        graphs = [random_factor_graph(rng, datums[trial % 3]) for _ in range(3)]
        assert all(len(g) <= 15 for g in graphs)
        report = verify_associativity(*graphs)
        mismatches += len(report.violations)
        triples += 1
    elapsed = time.perf_counter() - start
    _report(2, mismatches == 0 and elapsed < 30, elapsed, 30,
            f"{triples} random triples, {mismatches} mismatches")
    assert mismatches == 0
    assert elapsed < 30


@pytest.mark.parametrize("abc", RANK2_PARAMS)
def test_criterion_03_rank2_binfinity_oracle(abc):
    start = time.perf_counter()
    p = G.Rank2Params(*abc)
    datum = G.rank2_datum(p)
    seq = G.cyclic_sequence(datum)
    report = G.compare_predicate_with_bfs(
        lambda x: G.rank2_member(x, p), datum, seq, 8
    )
    elapsed = time.perf_counter() - start
    _report(3, report.ok and elapsed < 60, elapsed, 60,
            f"(a,b,c)={abc} depth 8: {report.summary()}")
    assert report.ok, report.summary()
    assert report.char == report.predicate_char
    assert elapsed < 60


def test_criterion_04_rank2_highest_weight_oracle():
    start = time.perf_counter()
    failures = []
    edge_case_present = False
    for p, datum, seq, lam in rank2_hw_configs():
        report = G.compare_predicate_with_bfs(
            lambda x: G.rank2_highest_weight_member(x, p, lam),
            datum, seq, 6, lam=lam,
        )
        if not report.ok:
            failures.append(((p.a, p.b, p.c), lam.lam, report.summary()))
        if datum.pairing(1, lam) == 0:
            generated = {n.elt.factors[0].x for n in
                         G.realize_highest_weight(datum, seq, lam, 3).nodes}
            if any(len(x) >= 2 and x[1] > 0 for x in generated):
                edge_case_present = True
    elapsed = time.perf_counter() - start
    _report(4, not failures, elapsed, None,
            f"{3 * len(RANK2_LAMBDAS)} configurations at depth 6, {len(failures)} failures")
    assert not failures, failures
    # the <h_2,lam> = 0 with x_2 > 0 edge case really occurs in the data
    assert edge_case_present


def test_criterion_05_monster_oracle():
    start = time.perf_counter()
    failures = []
    for level, mults in MONSTER_MODELS:
        model = G.MonsterModel(G.MonsterParams(level, mults))
        for n in range(9):
            position = model.real_position(n)
            assert model.sequence.at(position) == 0, (mults, n)
        report = G.compare_predicate_with_bfs(
            model.member, model.datum, model.sequence, 5
        )
        if not report.ok:
            failures.append((mults, None, report.summary()))
    for model, lam in monster_hw_configs():
        report = G.compare_predicate_with_bfs(
            lambda x: model.highest_weight_member(x, lam),
            model.datum, model.sequence, 4, lam=lam,
        )
        if not report.ok:
            failures.append((model.params.multiplicities, lam.lam, report.summary()))
    elapsed = time.perf_counter() - start
    _report(5, not failures, elapsed, None,
            f"2 block models, base depth 5 and highest-weight depth 4, "
            f"{len(failures)} failures")
    assert not failures, failures


def test_criterion_06_projection_laws():
    start = time.perf_counter()
    violations = 0
    configs = 0
    for p, datum, seq, lam in rank2_hw_configs():
        hw = G.realize_highest_weight(datum, seq, lam, 6)
        binf = G.realize_binfinity(datum, seq, 6)
        result = G.highest_weight_projection(hw, binf)
        violations += len(result.report.violations) + len(result.report.coverage_errors)
        configs += 1
    for model, lam in monster_hw_configs():
        hw = G.realize_highest_weight(model.datum, model.sequence, lam, 4)
        binf = G.realize_binfinity(model.datum, model.sequence, 4)
        result = G.highest_weight_projection(hw, binf)
        violations += len(result.report.violations) + len(result.report.coverage_errors)
        configs += 1
    d2 = make_d2()
    seq2 = G.cyclic_sequence(d2)
    binf2 = G.realize_binfinity(d2, seq2, 6)
    for k in range(6):
        hw = G.realize_highest_weight(d2, seq2, d2.weight(lam=[k]), 6)
        result = G.highest_weight_projection(hw, binf2)
        violations += len(result.report.violations) + len(result.report.coverage_errors)
        configs += 1
    elapsed = time.perf_counter() - start
    _report(6, violations == 0, elapsed, None,
            f"projection laws on {configs} components, {violations} violations")
    assert violations == 0


def test_criterion_07_embedding_witnesses():
    start = time.perf_counter()
    problems = []
    d1 = make_d1()
    toy = make_toy_monster()
    for datum, seq in (
        (d1, G.cyclic_sequence(d1)),
        (toy.datum, toy.sequence),
    ):
        binf = G.realize_binfinity(datum, seq, 5)
        for i in datum.indices():
            result = G.crystal_embedding(binf, i)
            if not result.report.ok:
                problems.append((datum.index_names[i], result.report.lines(3)))
            if len(result.witness.mapping) != len(binf):
                problems.append((datum.index_names[i], "incomplete transport"))
    d2 = make_d2()
    pairs = [
        (d2, G.cyclic_sequence(d2), d2.fundamental(0), d2.fundamental(0), 3),
        (d1, G.cyclic_sequence(d1), d1.fundamental(0), d1.fundamental(1), 4),
    ]
    for datum, seq, lam, mu, depth in pairs:
        result = G.tensor_decomposition_embedding(datum, seq, lam, mu, depth)
        if not result.report.ok:
            problems.append(("sum-into-product", result.report.lines(3)))
    elapsed = time.perf_counter() - start
    _report(7, not problems, elapsed, None,
            f"elementary embeddings (all indices, depth 5) and two "
            f"sum-into-product witnesses, {len(problems)} problems")
    assert not problems, problems


def test_criterion_08_rank1_counts():
    start = time.perf_counter()
    d2 = make_d2()
    seq2 = G.cyclic_sequence(d2)
    for k in range(6):
        g = G.realize_highest_weight(d2, seq2, d2.weight(lam=[k]), 5)
        assert len(g) == k + 1, (k, len(g))
    imaginary = make_imaginary_only()
    seqi = G.cyclic_sequence(imaginary)
    assert len(G.realize_highest_weight(imaginary, seqi, imaginary.zero_weight(), 5)) == 1
    for depth in (3, 5, 7):
        g = G.realize_highest_weight(imaginary, seqi, imaginary.fundamental(0), depth)
        assert len(g) >= depth + 1, (depth, len(g))
    elapsed = time.perf_counter() - start
    _report(8, True, elapsed, None,
            "real chain sizes <h,lam>+1 for 0..5; imaginary gate point and "
            "unbounded chain")


def test_criterion_09_binfinity_audit():
    start = time.perf_counter()
    violations = 0
    configs = 0
    runs = []
    for abc in RANK2_PARAMS:
        datum = G.rank2_datum(G.Rank2Params(*abc))
        runs.append((datum, G.cyclic_sequence(datum), 8))
    for level, mults in MONSTER_MODELS:
        model = G.MonsterModel(G.MonsterParams(level, mults))
        runs.append((model.datum, model.sequence, 5))
    d2 = make_d2()
    runs.append((d2, G.cyclic_sequence(d2), 6))
    for datum, seq, depth in runs:
        graph = G.realize_binfinity(datum, seq, depth)  # audits internally
        zero_nodes = [n for n in graph.nodes if n.wt.is_zero()]
        if len(zero_nodes) != 1 or zero_nodes[0] is not graph.nodes[graph.root]:
            violations += 1
        if any(any(n.wt.lam) or any(v > 0 for v in n.wt.rt) for n in graph.nodes):
            violations += 1
        for u, node in enumerate(graph.nodes):
            if u != graph.root and all(w is None for w in node.e_ids):
                violations += 1
        configs += 1
    elapsed = time.perf_counter() - start
    _report(9, violations == 0, elapsed, None,
            f"{configs} truncations audited, {violations} violations")
    assert violations == 0


def test_criterion_10_generation_determinism(tmp_path):
    start = time.perf_counter()
    jobs = []
    for abc in RANK2_PARAMS:
        datum = G.rank2_datum(G.Rank2Params(*abc))
        path = tmp_path / f"rank2_{abc[0]}{abc[1]}{abc[2]}.json"
        G.save_datum_file(path, datum)
        jobs.append(["gen", "--datum", str(path), "--mode", "binf", "--depth", "8"])
        for h1, h2 in RANK2_LAMBDAS:
            jobs.append([
                "gen", "--datum", str(path), "--mode", "hw",
                "--lambda", f"{h1},{h2}", "--depth", "6",
            ])
    for level, mults in MONSTER_MODELS:
        model = G.MonsterModel(G.MonsterParams(level, mults))
        path = tmp_path / f"monster_{level}.json"
        G.save_datum_file(path, model.datum, sequence_spec={
            "kind": "monster", "level": level, "multiplicities": list(mults),
        })
        jobs.append(["gen", "--datum", str(path), "--mode", "binf", "--depth", "5"])
        for k in (0, 1):
            lam = ",".join(
                str(k if i == 0 else 0) for i in range(model.datum.size)
            )
            jobs.append([
                "gen", "--datum", str(path), "--mode", "hw",
                "--lambda", lam, "--depth", "4",
            ])
    unstable = 0
    for number, job in enumerate(jobs):
        outs = []
        for run in (0, 1):
            out = tmp_path / f"out_{number}_{run}.json"
            assert main(job + ["--out", str(out)]) == 0
            outs.append(out.read_bytes())
        if outs[0] != outs[1]:
            unstable += 1
        json.loads(outs[0])  # emitted graphs are well-formed JSON
    elapsed = time.perf_counter() - start
    _report(10, unstable == 0, elapsed, None,
            f"{len(jobs)} generation configurations run twice, "
            f"{unstable} byte differences")
    assert unstable == 0
