"""TensorCrystal, which evaluates a product as the left-nested bracket
tree of its factors, against the flat signature-rule recursion it
replaces: wt, eps, phi, e and f, one by one and as one ``stats`` tuple,
on every node and index of the B(lambda) carriers, the
crystal-embedding and tensor-decomposition targets, and random products
of small crystals.  Also ``verify_associativity``, which reads each
element and inner pair once per call, against the per-triple check it
replaces: full reports on random factor triples and on a planted
fault; on sampled triples, both bracketings' ``bracket_stats`` targets
are the flat recursion's, as leaf tuples."""

import random

import pytest

import gkmcrystals as G
from gkmcrystals.fuzzing import random_factor_graph, random_universe_graph
from gkmcrystals.graph import graph_from_universe
from gkmcrystals.tensor import BracketLeaf, BracketPair, bracket_stats, reassociate

import tensor_reference as ref
from conftest import make_d1, make_d2, make_toy_monster


def hw_graph(datum, seq, lam, depth):
    return G.realize_highest_weight(datum, seq, lam, depth)


def rank2_hw(lam):
    d1 = make_d1()
    return hw_graph(d1, G.cyclic_sequence(d1), d1.weight(lam=lam), 5)


def monster_hw():
    model = make_toy_monster()
    return hw_graph(model.datum, model.sequence, model.datum.fundamental(0), 4)


def embedding_target(i):
    d1 = make_d1()
    return G.crystal_embedding(G.realize_binfinity(d1, G.cyclic_sequence(d1), 5), i).target


def decomposition_target():
    d1 = make_d1()
    return G.tensor_decomposition_embedding(
        d1, G.cyclic_sequence(d1), d1.fundamental(0), d1.fundamental(1), 4
    ).target


def random_products(datum):
    graphs = []
    for seed in range(50):
        g = random_universe_graph(random.Random(seed), datum)
        if isinstance(g.crystal, G.TensorCrystal):
            graphs.append(g)
    return graphs


def disagreements(graph):
    crystal = graph.crystal
    assert isinstance(crystal, G.TensorCrystal)
    bad = []
    for b in graph.elements():
        if crystal.wt(b) != ref.wt(crystal, b):
            bad.append(("wt", b))
        for i in crystal.datum.indices():
            for op in ("eps", "phi", "e", "f"):
                if getattr(crystal, op)(i, b) != getattr(ref, op)(crystal, i, b):
                    bad.append((op, i, b))
        indices = crystal.datum.indices()
        expected = (ref.wt(crystal, b),) + tuple(
            tuple(getattr(ref, op)(crystal, i, b) for i in indices)
            for op in ("eps", "phi", "e", "f")
        )
        if crystal.stats(b) != expected:
            bad.append(("stats", b))
    return bad


@pytest.mark.parametrize("lam", [(1, 1), (2, 0), (1, 2)])
def test_rank2_highest_weight_carrier(lam):
    assert disagreements(rank2_hw(lam)) == []


def test_monster_highest_weight_carrier():
    assert disagreements(monster_hw()) == []


@pytest.mark.parametrize("i", [0, 1])
def test_crystal_embedding_target(i):
    assert disagreements(embedding_target(i)) == []


def test_tensor_decomposition_target():
    assert disagreements(decomposition_target()) == []


@pytest.mark.parametrize("make_datum", [make_d1, lambda: make_toy_monster().datum],
                         ids=["rank2", "monster"])
def test_random_products(make_datum):
    graphs = random_products(make_datum())
    assert graphs
    for g in graphs:
        assert disagreements(g) == []


def test_foreign_elements_rejected(d1):
    c0 = G.ElementaryCrystal(d1, 0)
    product = G.TensorCrystal(c0, c0, c0)
    b = G.TensorCrystal(c0, c0).element(c0.top(), c0.top())
    with pytest.raises(ValueError):
        product.wt(b)
    with pytest.raises(ValueError):
        ref.wt(product, b)


def report_rows(report):
    rows = [(v.node, v.index, v.law, v.expected, v.found) for v in report.violations]
    return rows, report.checked, report.skipped, report.coverage_errors


def assert_same_report(g1, g2, g3):
    new = report_rows(G.verify_associativity(g1, g2, g3))
    assert new == report_rows(ref.verify_associativity(g1, g2, g3))
    return new


# which of three drawn graphs fill the slots of a triple; the last
# three reuse a graph, so one graph feeds both inner-pair tables
TRIPLE_SHAPES = ((0, 1, 2), (0, 1, 0), (0, 0, 1), (1, 0, 0))


@pytest.mark.parametrize("make_datum", [make_d1, lambda: make_toy_monster().datum],
                         ids=["rank2", "monster"])
def test_associativity_random_factor_triples(make_datum):
    datum = make_datum()
    for seed in range(32):
        rng = random.Random(seed)
        graphs = [random_factor_graph(rng, datum) for _ in range(3)]
        shape = TRIPLE_SHAPES[seed % len(TRIPLE_SHAPES)]
        rows, *_ = assert_same_report(*(graphs[n] for n in shape))
        assert rows == []
        triples = [tuple(rng.choice(graphs[n].elements()) for n in shape) for _ in range(6)]
        assert_bracketings_give_flat_targets(datum, [graphs[n] for n in shape], triples)


def assert_bracketings_give_flat_targets(datum, graphs, triples):
    """bracket_stats of both bracketings of each triple gives the flat
    reference's e and f targets, as tuples of leaf elements."""
    flat = G.TensorCrystal(*(g.crystal for g in graphs))
    for triple in triples:
        x, y, z = (BracketLeaf(g.crystal, b) for g, b in zip(graphs, triple))
        lhs = BracketPair(BracketPair(x, y), z)
        elt = flat.element(*triple)
        want = tuple(
            tuple(None if t is None else t.factors
                  for t in (getattr(ref, op)(flat, i, elt) for i in datum.indices()))
            for op in ("e", "f")
        )
        for tree in (lhs, reassociate(lhs)):
            assert bracket_stats(datum, tree)[3:] == want


class WrongPhi(G.ElementaryCrystal):
    """phi of b(-1) is 3 too large, as in the associativity fault test."""

    def phi(self, i, b):
        return super().phi(i, b) + (3 if b.steps == 1 else 0)


# F is the faulty crystal, H a healthy one; the fault is only seen when
# both factors of the left inner pair carry it
@pytest.mark.parametrize("slots", ["FFF", "FFH", "FHH", "HFH", "HHF"])
def test_associativity_fault_placements(slots):
    d = make_d2()
    faulty, healthy = WrongPhi(d, 0), G.ElementaryCrystal(d, 0)
    graphs = {
        "F": graph_from_universe(faulty, [faulty.element(n) for n in range(2)]),
        "H": graph_from_universe(healthy, [healthy.element(n) for n in range(3)]),
    }
    rows, *_ = assert_same_report(*(graphs[c] for c in slots))
    assert bool(rows) == slots.startswith("FF")
