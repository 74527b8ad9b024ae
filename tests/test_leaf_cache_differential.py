"""The two one-entry caches of product leaf reads, against uncached paths.

``TensorCrystal.stats`` folds a product's leaves, with their pairing
vectors, without building a tree, and each factor keeps its last leaf
read; it must equal ``bracket_stats``, the tree reference, of the
left-nested tree of b and the flat recursion of ``tensor_reference`` on
every element of rank-2 and Monster B(lambda), the
``crystal_embedding`` targets and 50 seeded random products, read in
sorted, reversed, shuffled and repeated order, with all those crystals
interleaved.  The scalar operators wt, eps, phi, e and f read their
entry of ``stats``, so they go through the same cache; each of their
reads, one by one in the same four orders, must equal that entry.
``StringCrystal``'s eps, phi, e and f share the scan of the last string
read; they must equal its ``stats`` in interleaved orders, on equal
strings that are not identical, on one string tuple read by two
crystals over different sequences, and on strings that are freed as
soon as they are read."""

import random

import pytest

import gkmcrystals as G
from gkmcrystals.crystals import StringElement, sort_key
from gkmcrystals.fuzzing import random_universe
from gkmcrystals.tensor import bracket_stats

import tensor_reference as ref
from conftest import make_d1, make_toy_monster

OPS = ("eps", "phi", "e", "f")


def tensor_universes():
    """(crystal, elements) of B(lambda) carriers, embedding targets and
    random products, over a rank-2 and a Monster datum."""
    d1, model = make_d1(), make_toy_monster()
    mdatum, seq = model.datum, model.sequence
    graphs = [
        G.realize_highest_weight(d1, G.cyclic_sequence(d1), d1.weight(lam=(1, 1)), 7),
        G.realize_highest_weight(d1, G.cyclic_sequence(d1), d1.weight(lam=(2, 0)), 7),
        G.realize_highest_weight(mdatum, seq, mdatum.fundamental(0), 6),
        G.realize_highest_weight(mdatum, seq, mdatum.weight(lam=(1, 1, 0, 0)), 5),
    ]
    binf = G.realize_binfinity(d1, G.cyclic_sequence(d1), 5)
    graphs += [G.crystal_embedding(binf, i).target for i in d1.indices()]
    binf = G.realize_binfinity(mdatum, seq, 3)
    graphs += [G.crystal_embedding(binf, i).target for i in (0, 2)]
    universes = [(g.crystal, g.elements()) for g in graphs]
    seed = 0
    while len(universes) < len(graphs) + 50:
        crystal, elements = random_universe(random.Random(seed), (d1, mdatum)[seed % 2])
        if isinstance(crystal, G.TensorCrystal):
            universes.append((crystal, elements))
        seed += 1
    return universes


def expected_tensor_stats(crystal, b):
    """b's statistics from its bracket tree, after checking them against
    the flat recursion; neither path reads ``TensorCrystal.stats``."""
    wt, eps, phi, e, f = bracket_stats(crystal.datum, ref.left_nested_tree(crystal, b))
    want = wt, eps, phi, tuple(map(crystal._flat, e)), tuple(map(crystal._flat, f))
    indices = crystal.datum.indices()
    flat = (ref.wt(crystal, b),) + tuple(
        tuple(getattr(ref, op)(crystal, i, b) for i in indices) for op in OPS)
    assert want == flat, b
    return want


@pytest.fixture(scope="module")
def reads():
    """(crystal, element, expected statistics) of every universe element."""
    return [(c, b, expected_tensor_stats(c, b)) for c, elements in tensor_universes()
            for b in elements]


def orders(reads) -> dict:
    """The reads in sorted, reversed, shuffled and repeated order; the
    crystals are interleaved in all four."""
    by_key = sorted(reads, key=lambda r: sort_key(r[1]))
    shuffled = random.Random(7).sample(reads, len(reads))
    return {"sorted": by_key, "reversed": by_key[::-1], "shuffled": shuffled,
            "repeated": [r for r in shuffled for _ in range(2)]}


def test_every_kind_of_universe_is_read(reads):
    assert len({id(c) for c, _, _ in reads}) == 8 + 50
    assert len(reads) >= 1000


@pytest.mark.parametrize("order", ["sorted", "reversed", "shuffled", "repeated"])
def test_tensor_stats_in_every_order(reads, order):
    bad = [(c, b) for c, b, want in orders(reads)[order] if c.stats(b) != want]
    assert bad == []


def operator_reads(reads) -> list:
    """(crystal, element, operator, index, expected value) of every
    scalar read of every element: wt, and eps, phi, e and f at each index."""
    out = []
    for c, b, want in reads:
        out.append((c, b, "wt", None, want[0]))
        out += [(c, b, op, i, want[col][i]) for col, op in enumerate(OPS, start=1)
                for i in c.datum.indices()]
    return out


@pytest.mark.parametrize("order", ["sorted", "reversed", "shuffled", "repeated"])
def test_tensor_operators_one_by_one_in_every_order(reads, order):
    # shuffled order scatters an element's reads among other elements
    # and crystals; repeated order makes each read twice in a row
    bad = []
    for c, b, op, i, want in orders(operator_reads(reads))[order]:
        got = c.wt(b) if op == "wt" else getattr(c, op)(i, b)
        if got != want:
            bad.append((c, b, op, i))
    assert bad == []


def test_an_equal_leaf_from_another_crystal_is_read_again():
    # UnitElement() is equal in every unit crystal, but its weight has
    # the size of that crystal's datum
    d1, mdatum = make_d1(), make_toy_monster().datum
    for datum in (d1, mdatum, d1):
        crystal = G.TensorCrystal(G.ElementaryCrystal(datum, 0), G.UnitCrystal(datum))
        b = crystal.element(G.ElementaryElement(0, 1), G.UnitElement())
        assert crystal.stats(b) == expected_tensor_stats(crystal, b)


def string_crystals():
    d1 = make_d1()
    cyclic = G.StringCrystal(d1, G.cyclic_sequence(d1))
    prefixed = G.StringCrystal(d1, G.explicit_sequence(d1, [1, 1, 0], [0, 1]))
    model = make_toy_monster()
    return cyclic, prefixed, G.StringCrystal(model.datum, model.sequence)


def box(length=5, top=2):
    rng = random.Random(3)
    return [tuple(rng.randrange(top + 1) for _ in range(length)) for _ in range(120)]


def assert_operators_match_stats(reads):
    """Each (crystal, op, i, b) read equals the matching entry of stats."""
    bad = []
    for crystal, op, i, b in reads:
        if getattr(crystal, op)(i, b) != crystal.stats(b)[1 + OPS.index(op)][i]:
            bad.append((op, i, b))
    assert bad == []


@pytest.mark.parametrize("crystal", string_crystals(), ids=["cyclic", "prefixed", "monster"])
def test_string_operators_in_interleaved_orders(crystal):
    strings = [crystal.element(x) for x in box()]
    per_string = [(crystal, op, i, b) for b in strings
                  for i in crystal.datum.indices() for op in OPS]
    # every read a different string: one operator and index at a time
    per_operator = sorted(per_string, key=lambda r: (r[1], r[2]))
    shuffled = random.Random(5).sample(per_string, len(per_string))
    for reads in (per_string, per_operator, shuffled):
        assert_operators_match_stats(reads)


def test_equal_strings_that_are_not_identical():
    crystal = string_crystals()[0]
    for x in filter(any, box()):  # the empty tuple is a singleton
        b = crystal.element(x)
        twin = StringElement(list(b.x), b.seq_id)
        assert twin == b and twin.x is not b.x
        assert_operators_match_stats(
            [(crystal, op, i, s) for i in (0, 1) for op in OPS for s in (b, twin)])


def test_one_string_tuple_read_by_two_sequences():
    cyclic, prefixed, _ = string_crystals()
    reads = []
    for x in box():
        x = cyclic.element(x).x  # canonical, so both crystals share this tuple
        pair = cyclic.element(x), prefixed.element(x)
        assert pair[0].x is pair[1].x
        reads += [(c, op, i, b) for i in (0, 1) for op in OPS
                  for c, b in zip((cyclic, prefixed), pair)]
    assert_operators_match_stats(reads)


def test_strings_freed_as_soon_as_they_are_read():
    # with no tuple of its length built in between, the next string
    # usually takes the memory, and so the id, of the one just freed
    crystal = string_crystals()[0]
    strings = [x for x in box() if x[-1]]
    want = [crystal.stats(crystal.element(x)) for x in strings]
    for col, op in enumerate(OPS, start=1):
        for i in (0, 1):
            got = [getattr(crystal, op)(i, crystal.element(list(x))) for x in strings]
            assert got == [w[col][i] for w in want]
