"""StringCrystal, which reads all of a node's statistics in one scan per
index over the cached index array, against the per-operator rescans it
replaces: ``stats`` and each of wt, eps, phi, e and f on every node of
B(infinity) truncations, on the string factors of the B(lambda)
carriers, and on every string of a small box (which reaches strings
outside the component of the zero string)."""

from itertools import product

import pytest

import gkmcrystals as G

import string_reference as ref
from conftest import make_d1, make_toy_monster


def disagreements(crystal, strings):
    bad = []
    for b in strings:
        want = ref.stats(crystal, b)
        if crystal.stats(b) != want:
            bad.append(("stats", b))
        # the base-class default calls wt, eps, phi, e and f one by one
        if G.Crystal.stats(crystal, b) != want:
            bad.append(("operators", b))
    return bad


def binfinity_strings(datum, seq, depth):
    graph = G.realize_binfinity(datum, seq, depth)
    return graph.crystal, graph.elements()


def box_strings(crystal, length=6, top=2):
    return {crystal.element(x) for x in product(range(top + 1), repeat=length)}


def monster(level, mult):
    model = G.MonsterModel(G.MonsterParams(level, mult))
    return model.datum, model.sequence


def explicit_with_prefix():
    d1 = make_d1()
    return d1, G.explicit_sequence(d1, [1, 1, 0], [0, 1])


@pytest.mark.parametrize("abc", [(1, 1, 0), (1, 2, 2), (2, 1, 4), (3, 3, 2)],
                         ids=lambda abc: "%d%d%d" % abc)
def test_rank2_binfinity(abc):
    assert disagreements(*binfinity_strings(*cyclic_rank2(*abc), 7)) == []


@pytest.mark.parametrize("level, mult", [(2, (2, 1)), (3, (1, 1, 1))], ids=["2-21", "3-111"])
def test_monster_binfinity(level, mult):
    assert disagreements(*binfinity_strings(*monster(level, mult), 4)) == []


def test_explicit_sequence_with_prefix():
    assert disagreements(*binfinity_strings(*explicit_with_prefix(), 6)) == []


@pytest.mark.parametrize("lam", [(1, 1), (2, 0), (1, 2)])
def test_rank2_highest_weight_carrier(lam):
    d1 = make_d1()
    graph = G.realize_highest_weight(d1, G.cyclic_sequence(d1), d1.weight(lam=lam), 5)
    strings = graph.crystal.factors[0]
    assert disagreements(strings, {elt.factors[0] for elt in graph.elements()}) == []


def test_monster_highest_weight_carrier():
    model = make_toy_monster()
    graph = G.realize_highest_weight(
        model.datum, model.sequence, model.datum.fundamental(0), 4
    )
    strings = graph.crystal.factors[0]
    assert disagreements(strings, {elt.factors[0] for elt in graph.elements()}) == []


def cyclic_rank2(*abc):
    datum = G.rank2_datum(G.Rank2Params(*abc))
    return datum, G.cyclic_sequence(datum)


@pytest.mark.parametrize("make", [
    lambda: cyclic_rank2(1, 1, 0),
    lambda: cyclic_rank2(2, 1, 4),
    explicit_with_prefix,
    lambda: monster(2, (2, 1)),
    lambda: monster(3, (1, 1, 1)),
], ids=["rank2-110", "rank2-214", "explicit", "monster-2-21", "monster-3-111"])
def test_box_strings(make):
    crystal = G.StringCrystal(*make())
    assert disagreements(crystal, box_strings(crystal)) == []


@pytest.mark.parametrize("make", [explicit_with_prefix, lambda: monster(3, (1, 1, 1))],
                         ids=["explicit", "monster"])
def test_index_array_matches_at(make):
    seq = make()[1]
    previous = 0
    for n in (0, 1, 5, 17, 3, 40, 41, 100, 7, 333):
        idx = seq.indices(n)
        assert len(idx) >= n
        assert idx[:n] == [seq.at(k) for k in range(1, n + 1)]
        if len(idx) > previous > 0:
            assert len(idx) >= 2 * previous
        previous = len(idx)
