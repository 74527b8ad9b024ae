"""StringCrystal, which reads all of a node's statistics from one
prefix-sum pass per index over per-sequence Cartan tables, against the
per-operator rescans it replaces: ``stats`` and each of wt, eps, phi, e
and f on every node of B(infinity) truncations, on the string factors of
the B(lambda) carriers, and on every string of a small box (which
reaches strings outside the component of the zero string).  Extreme
data (an entry past the float range, a lone imaginary index, 21 indices)
and tables regrown, with their index array, for a longer string are
covered too, as is the one-Weight-per-weight interning of each crystal."""

from itertools import product

import pytest

import gkmcrystals as G

import string_reference as ref
from conftest import make_d1, make_huge, make_imaginary_only, make_toy_monster


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


def cyclic_rank2(*abc):
    datum = G.rank2_datum(G.Rank2Params(*abc))
    return datum, G.cyclic_sequence(datum)


def imaginary_only():
    datum = make_imaginary_only()
    return datum, G.cyclic_sequence(datum)


def huge():
    datum = make_huge()
    return datum, G.cyclic_sequence(datum)


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


@pytest.mark.parametrize("make", [
    explicit_with_prefix,
    lambda: monster(3, (1, 1, 1)),
    huge,
    lambda: cyclic_rank2(2, 1, 4),  # not symmetric: rows are rows, not columns
], ids=["explicit", "monster", "huge", "rank2-214"])
def test_index_array_matches_at(make):
    """The index array and the tables read along it against ``seq.at``
    and the datum, position by position, as both grow out of order."""
    datum, seq = make()
    previous = 0
    for n in (0, 1, 5, 17, 3, 40, 41, 100, 7, 333):
        idx = seq.indices(n)
        assert len(idx) >= n
        assert idx[:n] == [seq.at(k) for k in range(1, n + 1)]
        if len(idx) > previous > 0:
            assert len(idx) >= 2 * previous
        t = seq.tables(n)
        assert seq.scan_bound(n) <= len(t.idx)
        assert n <= t.reach == len(t.idx) - len(seq.cycle)
        at = [seq.at(k) for k in range(1, len(t.idx) + 1)]
        assert t.idx == at
        for i in datum.indices():
            assert t.rows[i] == [datum.a(i, j) for j in at]
            assert t.occ[i] == [k for k, j in enumerate(at, start=1) if j == i]
            assert t.plans[i] == (t.rows[i], t.occ[i], datum.is_real(i), datum.a(i, i))
        for k, i in enumerate(at, start=1):
            assert t.prev[k - 1] == next((l for l in range(k - 1, 0, -1) if at[l - 1] == i), 0)
        assert all(seq.tables(m) is t for m in (0, n, t.reach))
        previous = len(seq.indices(0))
    # the first tables of this block sequence hold one real slot, and the
    # closed-form conditions read the next one even for the empty string
    model = G.MonsterModel(G.MonsterParams(1, (15,)))
    assert len(model.sequence.tables(0).occ[0]) == 1
    assert model.member(())
    assert model.highest_weight_member((), model.datum.fundamental(0))


@pytest.mark.parametrize("make, depth", [
    (huge, 6),
    (imaginary_only, 6),
    (lambda: monster(1, (20,)), 2),
], ids=["huge", "imaginary-only", "monster-1-20"])
def test_wide_and_extreme_binfinity(make, depth):
    assert disagreements(*binfinity_strings(*make(), depth)) == []


@pytest.mark.parametrize("make, length", [
    (huge, 6),
    (imaginary_only, 6),
    (lambda: monster(1, (20,)), 3),
], ids=["huge", "imaginary-only", "monster-1-20"])
def test_wide_and_extreme_box_strings(make, length):
    crystal = G.StringCrystal(*make())
    assert disagreements(crystal, box_strings(crystal, length=length)) == []


@pytest.mark.parametrize("make", [explicit_with_prefix, lambda: monster(2, (2, 1))],
                         ids=["explicit", "monster-2-21"])
def test_tables_follow_a_regrown_index_array(make):
    """Tables built for a short index array must not serve a string more
    than twice as long, read by this crystal or by another one over the
    same sequence."""
    datum, seq = make()
    crystal, other = G.StringCrystal(datum, seq), G.StringCrystal(datum, seq)
    crystal.stats(crystal.zero())
    other.stats(other.zero())
    short = len(seq.indices(0))
    length = 2 * short + 3
    tails = product(range(3), repeat=3)
    strings = [crystal.element((1,) + (0,) * (length - 4) + tail) for tail in tails]
    assert disagreements(crystal, strings) == []
    assert len(seq.indices(0)) > 2 * short
    assert disagreements(other, strings) == []


def test_a_regrowth_by_another_crystal_replaces_the_array():
    """Two crystals share one Monster block sequence, which has a prefix,
    and so share its tables, which hold its one index array.  A long
    string read by one of them makes the sequence build new tables over
    an array at least twice as long, and ``indices`` hands out that
    array; both crystals read every string against the new tables, the
    longest ones the old tables covered included."""
    datum, seq = monster(2, (2, 1))
    assert seq.prefix
    grower, keeper = G.StringCrystal(datum, seq), G.StringCrystal(datum, seq)
    keeper.stats(keeper.zero())
    assert seq.indices(0) is seq.tables(0).idx
    short = len(seq.indices(0))
    reach = short - len(seq.cycle)  # the longest support the first tables cover
    covered, edge = ([keeper.element((0,) * (n - 2) + tail)
                      for n in lengths for tail in product(range(3), repeat=2)]
                     for lengths in ((reach - 1, reach), (reach + 1, reach + 2)))
    long = [grower.element((1,) + (0,) * (2 * short) + tail)
            for tail in product(range(3), repeat=2)]
    for b in long:
        grower.wt(b)
    assert seq.indices(0) is seq.tables(0).idx
    assert len(seq.indices(0)) >= 2 * short
    for crystal in (keeper, grower):
        assert disagreements(crystal, covered) == []
        assert disagreements(crystal, edge) == []
        assert disagreements(crystal, long) == []


@pytest.mark.parametrize("make", [
    lambda: cyclic_rank2(2, 1, 4),
    explicit_with_prefix,
    huge,
    lambda: monster(2, (2, 1)),
], ids=["rank2-214", "explicit", "huge", "monster-2-21"])
def test_wt_interned_per_crystal(make):
    crystal = G.StringCrystal(*make())
    strings = box_strings(crystal, length=5)
    weights = {b: crystal.wt(b) for b in strings}
    assert all(w == ref.wt(crystal, b) for b, w in weights.items())
    # one Weight object per distinct weight, handed out again on a repeat
    assert len({id(w) for w in weights.values()}) == len(set(weights.values()))
    assert all(crystal.wt(b) is w for b, w in weights.items())


def test_crystals_never_share_interned_weights():
    d1, prefixed = explicit_with_prefix()
    crystals = [
        G.StringCrystal(d1, G.cyclic_sequence(d1)),
        G.StringCrystal(d1, G.cyclic_sequence(d1)),
        G.StringCrystal(d1, prefixed),
        G.StringCrystal(*huge()),
        G.StringCrystal(*cyclic_rank2(2, 1, 4)),
    ]
    xs = list(product(range(3), repeat=4))
    seen = {}
    for n, crystal in enumerate(crystals):
        for x in xs:
            seen.setdefault(id(crystal.wt(crystal.element(x))), set()).add(n)
    assert all(len(owners) == 1 for owners in seen.values())
