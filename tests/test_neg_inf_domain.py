"""NEG_INF in the library's own data: it survives copy and pickle as
itself, every statistic a graph stores stays in Z ∪ {-inf}, and ints
far past the float range pass through the tensor rule unconverted."""

import copy
import pickle
import random

import pytest

import gkmcrystals as G
from gkmcrystals.cartan import NEG_INF, is_neg_inf
from gkmcrystals.fuzzing import random_universe_graph

from conftest import make_d1, make_huge, make_toy_monster

HUGE = 10**400

DATA = {"d1": make_d1, "monster": lambda: make_toy_monster().datum, "huge": make_huge}


def statistics(graph):
    return [(node.eps, node.phi) for node in graph.nodes]


def neg_inf_positions(graph):
    return [tuple(map(is_neg_inf, node.eps + node.phi)) for node in graph.nodes]


def outside_domain(graph):
    """Stored eps/phi entries that are neither a plain int nor -inf."""
    return [
        (u, v) for u, node in enumerate(graph.nodes) for v in node.eps + node.phi
        if not (type(v) is int or is_neg_inf(v))
    ]


def graphs(datum):
    """B(infinity), B(lambda), the crystal_embedding targets and 20 random
    universe graphs over ``datum``."""
    seq = G.cyclic_sequence(datum)
    binf = G.realize_binfinity(datum, seq, 3)
    yield binf
    yield G.realize_highest_weight(datum, seq, datum.weight(lam=[1] * datum.size), 3)
    for i in datum.indices():
        yield G.crystal_embedding(binf, i).target
    for seed in range(20):
        yield random_universe_graph(random.Random(seed), datum)


class TestCopies:
    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v)),
    ])
    def test_neg_inf_survives(self, clone):
        value = clone(NEG_INF)
        assert is_neg_inf(value)
        assert value == NEG_INF
        assert value + HUGE == NEG_INF and is_neg_inf(value + HUGE)

    def test_deepcopy_of_graphs(self):
        d1 = make_d1()
        hw = G.realize_highest_weight(d1, G.cyclic_sequence(d1), d1.weight(lam=[1, 1]), 3)
        elementary = G.ElementaryCrystal(d1, 0)
        line = G.graph_from_universe(elementary, [elementary.element(n) for n in range(3)])
        assert all(is_neg_inf(node.eps[1]) for node in line.nodes)
        for graph in (hw, line):
            clone = copy.deepcopy(graph)
            assert statistics(clone) == statistics(graph)
            assert neg_inf_positions(clone) == neg_inf_positions(graph)


@pytest.mark.parametrize("name", sorted(DATA))
def test_statistics_stay_in_domain(name):
    seen_neg_inf = False
    for graph in graphs(DATA[name]()):
        assert outside_domain(graph) == []
        seen_neg_inf |= any(any(row) for row in neg_inf_positions(graph))
    assert seen_neg_inf


class TestHugeIntegers:
    @pytest.mark.parametrize("name", ["d1", "huge"])
    def test_tensor_decomposition_with_huge_lambda(self, name):
        datum = DATA[name]()
        seq = G.cyclic_sequence(datum)
        lam = datum.weight(lam=[HUGE] + [0] * (datum.size - 1))
        mu = datum.weight(lam=[1] * datum.size)
        result = G.tensor_decomposition_embedding(datum, seq, lam, mu, 2)
        assert result.report.violations == []
        assert result.report.checked > 0

    @pytest.mark.parametrize("name", ["d1", "huge"])
    def test_phi_of_shift_product_is_neg_inf(self, name):
        datum = DATA[name]()
        small = G.ShiftCrystal(datum, datum.fundamental(0))
        big = G.ShiftCrystal(datum, datum.weight(lam=[HUGE] + [0] * (datum.size - 1)))
        pair = G.TensorCrystal(small, big)
        b = pair.element(small.element(), big.element())
        for i in datum.indices():
            assert is_neg_inf(pair.phi(i, b))
            assert is_neg_inf(pair.eps(i, b))
