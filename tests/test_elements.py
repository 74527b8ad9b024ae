"""The tuple-backed element types ``StringElement`` and ``TensorElement``:
their validating constructors, immutability, repr, copy and pickle, and
value equality; and the operator targets that ``StringCrystal.stats`` and
``TensorCrystal._flat`` build without re-validation, diffed against the
validating constructors on whole generated graphs."""

import copy
import pickle

import pytest

import gkmcrystals as G
from gkmcrystals import StringElement, TensorElement

from conftest import make_d1, make_huge, make_toy_monster


SEQ_ID = "((), (0, 1))"


def string(x=(1, 2)):
    return StringElement(x, SEQ_ID)


def tensor():
    return TensorElement((string(()), G.UnitElement()))


class TestConstructors:
    @pytest.mark.parametrize("x, error", [
        ((-1,), ValueError),
        ((2, -1, 3), ValueError),
        ((1, 0), ValueError),
        ((0,), ValueError),
        ((1.0,), TypeError),
        (("3",), TypeError),
        ((1, None), TypeError),
        (5, TypeError),
        ((True, 2), TypeError),
        ((1, False), TypeError),
        ((1, 0.0), TypeError),
    ], ids=["negative", "negative-inside", "trailing-zero", "lone-zero", "float", "str",
            "none", "not-iterable", "bool", "trailing-bool", "trailing-float"])
    def test_string_rejects(self, x, error):
        with pytest.raises(error):
            StringElement(x, SEQ_ID)

    def test_string_stores_entries_as_a_tuple(self):
        b = StringElement([1, 3, 2], SEQ_ID)
        assert b.x == (1, 3, 2)
        assert type(b.x) is tuple
        assert b.seq_id == SEQ_ID

    @pytest.mark.parametrize("factors", [
        (),
        (G.UnitElement(),),
        (G.UnitElement(), TensorElement((G.UnitElement(), G.UnitElement()))),
    ], ids=["empty", "one-factor", "nested"])
    def test_tensor_rejects(self, factors):
        with pytest.raises(ValueError):
            TensorElement(factors)

    def test_tensor_rejects_a_non_iterable(self):
        with pytest.raises(TypeError):
            TensorElement(3)

    def test_tensor_accepts_any_iterable(self):
        b = TensorElement(iter([G.UnitElement(), G.UnitElement()]))
        assert b.factors == (G.UnitElement(), G.UnitElement())
        assert type(b.factors) is tuple


class TestImmutable:
    @pytest.mark.parametrize("make, attr", [
        (string, "x"), (string, "seq_id"), (string, "other"),
        (tensor, "factors"), (tensor, "other"),
    ])
    def test_attributes_cannot_be_assigned(self, make, attr):
        with pytest.raises(AttributeError):
            setattr(make(), attr, ())


def test_repr_is_pinned():
    assert repr(string()) == "StringElement(x=(1, 2), seq_id='((), (0, 1))')"
    assert repr(tensor()) == (
        "TensorElement(factors=(StringElement(x=(), seq_id='((), (0, 1))'), UnitElement()))"
    )


@pytest.mark.parametrize("make", [string, tensor])
@pytest.mark.parametrize("clone", [
    copy.copy,
    copy.deepcopy,
    *(lambda b, p=p: pickle.loads(pickle.dumps(b, protocol=p))
      for p in range(pickle.HIGHEST_PROTOCOL + 1)),
], ids=["copy", "deepcopy", *(f"pickle-{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1))])
def test_copies_are_equal_elements_of_the_same_type(make, clone):
    b = make()
    c = clone(b)
    assert type(c) is type(b)
    assert c == b and hash(c) == hash(b)
    assert repr(c) == repr(b)


class TestEquality:
    def test_strings_over_different_sequences(self):
        d1 = make_d1()
        crystals = [G.StringCrystal(d1, G.cyclic_sequence(d1)),
                    G.StringCrystal(d1, G.explicit_sequence(d1, (), (1, 0)))]
        a, b = (c.element((1,)) for c in crystals)
        assert a.x == b.x
        assert a != b
        assert len({a: 0, b: 1}) == 2

    def test_equal_by_value(self):
        assert string() == string() and hash(string()) == hash(string())
        assert string() == ((1, 2), SEQ_ID)
        assert string() != string((1, 3))
        assert tensor() == ((string(()), G.UnitElement()),)


class TestStringCrystalElement:
    def test_non_integer_entries_raise(self, d1):
        # a bool or a float zero is not an int, so it is not stripped
        crystal = G.StringCrystal(d1, G.cyclic_sequence(d1))
        for x in ([1.7], ["3"], [1, 2.0, 0], [1, 0.0, False], [1, False], [1, 0, 0.0, 0], [True]):
            with pytest.raises(TypeError):
                crystal.element(x)

    def test_trailing_zeros_are_stripped(self, d1):
        crystal = G.StringCrystal(d1, G.cyclic_sequence(d1))
        assert crystal.element([1, 0, 0]).x == (1,)
        assert crystal.element([0, 0]).x == ()


def assert_validated_targets(crystal, elements, cls, args):
    """Every e/f target of ``crystal.stats`` on ``elements`` has type
    ``cls`` and equals the validating constructor's element."""
    seen = 0
    for b in elements:
        _, _, _, e, f = crystal.stats(b)
        for t in e + f:
            if t is None:
                continue
            assert type(t) is cls, (b, t)
            assert t == cls(*args(t)), (b, t)
            seen += 1
    assert seen


def monster_blocks(datum):
    return G.monster_block_sequence(datum, 2, (2, 1))


@pytest.mark.parametrize("make, make_seq, depth, regrows", [
    (lambda: G.rank2_datum(G.Rank2Params(2, 1, 4)), G.cyclic_sequence, 9, False),
    # at depth 5 the block sequence's index array regrows from 19 entries
    (lambda: make_toy_monster().datum, monster_blocks, 5, True),
    (make_huge, G.cyclic_sequence, 3, False),
], ids=["rank2-214", "monster-2-21", "huge"])
def test_string_targets_equal_validated_elements(make, make_seq, depth, regrows):
    datum = make()
    seq = make_seq(datum)
    crystal = G.StringCrystal(datum, seq)
    crystal.stats(crystal.zero())
    first = len(seq.indices(0))
    graph = G.bfs_component(crystal, crystal.zero(), depth)
    assert_validated_targets(crystal, graph.elements(), StringElement,
                             lambda t: (t.x, t.seq_id))
    if regrows:
        assert len(seq.indices(0)) > first


@pytest.mark.parametrize("make, lam, depth", [
    (make_d1, (1, 1), 5),
    (lambda: make_toy_monster().datum, (1, 0, 0, 0), 4),
], ids=["rank2-110", "monster-2-21"])
def test_tensor_targets_equal_validated_elements(make, lam, depth):
    datum = make()
    graph = G.realize_highest_weight(
        datum, G.cyclic_sequence(datum), datum.weight(lam=list(lam)), depth
    )
    assert_validated_targets(graph.crystal, graph.elements(), TensorElement,
                             lambda t: (t.factors,))
    for node in graph.nodes:
        assert type(node.elt) is TensorElement
