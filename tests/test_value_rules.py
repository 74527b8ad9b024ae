"""Each value rule of index sequences and model parameters is checked
once, by the constructor that consumes it.  An integer is an ``int``
that is not a ``bool``, and nothing is converted: a float, a numeric
string, a bool or None where an integer belongs raises ValueError.
Valid inputs build the sequences and parameters they always built.
Weight coordinates and scales follow the same integer rule and raise
TypeError, as string and elementary entries do."""

import pytest

import gkmcrystals as G
from gkmcrystals.cartan import is_int

from conftest import make_d1, make_toy_monster

BAD_VALUES = [1.7, "0", True, None, 2.5]
BAD_VALUE_IDS = ["float", "numeric-str", "bool", "none", "half"]
# multiplicities that are not a list or tuple
BAD_MULTIPLICITIES = [2, None, "21", {2: 1}, {2, 1}]


def _monster_spec(level, multiplicities):
    return {"kind": "monster", "level": level, "multiplicities": multiplicities}


# one integer slot per entry: build(value) puts ``value`` into it
SLOTS = {
    "IndexSequence-prefix": lambda v: G.IndexSequence(make_d1(), [v], [0, 1]),
    "IndexSequence-cycle": lambda v: G.IndexSequence(make_d1(), [], [0, 1, v]),
    "explicit_sequence-prefix": lambda v: G.explicit_sequence(make_d1(), [1, v], [0, 1]),
    "explicit_sequence-cycle": lambda v: G.explicit_sequence(make_d1(), [], [v, 0, 1]),
    "monster_block_sequence-level":
        lambda v: G.monster_block_sequence(make_toy_monster().datum, v, (2, 1)),
    "monster_block_sequence-multiplicity":
        lambda v: G.monster_block_sequence(make_toy_monster().datum, 2, (2, v)),
    "MonsterParams-level": lambda v: G.MonsterParams(v, (2, 1)),
    "MonsterParams-multiplicity": lambda v: G.MonsterParams(2, [v, 1]),
    "Rank2Params-a": lambda v: G.Rank2Params(v, 1, 0),
    "Rank2Params-b": lambda v: G.Rank2Params(1, v, 0),
    "Rank2Params-c": lambda v: G.Rank2Params(1, 1, v),
    "sequence_from_spec-explicit-cycle":
        lambda v: G.sequence_from_spec(make_d1(), {"kind": "explicit", "cycle": [0, 1, v]}),
    "sequence_from_spec-explicit-prefix":
        lambda v: G.sequence_from_spec(make_d1(), {"kind": "explicit", "prefix": [v],
                                                   "cycle": [0, 1]}),
    "sequence_from_spec-monster-level":
        lambda v: G.sequence_from_spec(make_toy_monster().datum, _monster_spec(v, [2, 1])),
    "sequence_from_spec-monster-multiplicity":
        lambda v: G.sequence_from_spec(make_toy_monster().datum,
                                       _monster_spec(2, [2, v])),
}

# a string in an explicit spec is an index name, looked up by name
_NAME_SLOTS = {"sequence_from_spec-explicit-cycle", "sequence_from_spec-explicit-prefix"}


@pytest.mark.parametrize("slot", sorted(SLOTS))
@pytest.mark.parametrize("value", BAD_VALUES, ids=BAD_VALUE_IDS)
def test_non_integer_rejected(slot, value):
    if slot in _NAME_SLOTS and isinstance(value, str):
        with pytest.raises(KeyError):
            SLOTS[slot](value)
        return
    with pytest.raises(ValueError):
        SLOTS[slot](value)


MULTIPLICITY_HOLDERS = {
    "monster_block_sequence": lambda m: G.monster_block_sequence(make_toy_monster().datum, 2, m),
    "MonsterParams": lambda m: G.MonsterParams(2, m),
    "sequence_from_spec":
        lambda m: G.sequence_from_spec(make_toy_monster().datum, _monster_spec(2, m)),
}


@pytest.mark.parametrize("holder", sorted(MULTIPLICITY_HOLDERS))
@pytest.mark.parametrize("mults", BAD_MULTIPLICITIES,
                         ids=["int", "none", "str", "dict", "set"])
def test_non_list_multiplicities_rejected(holder, mults):
    with pytest.raises(ValueError):
        MULTIPLICITY_HOLDERS[holder](mults)


@pytest.mark.parametrize("level, mults", [
    (2, [2, 2.0]), (2, [2]), (2, [2, 1, 1]), (2, [2, 0]), (0, []), (-1, [1]),
], ids=["float-entry", "too-few", "too-many", "zero", "level-zero", "level-negative"])
def test_block_rule_has_one_owner(level, mults):
    """The three ways in to the Monster block parameters reject alike,
    with the one message of ``MonsterParams``."""
    datum = make_toy_monster().datum
    messages = set()
    for build in (lambda: G.MonsterParams(level, mults),
                  lambda: G.monster_block_sequence(datum, level, mults),
                  lambda: G.sequence_from_spec(datum, _monster_spec(level, mults))):
        with pytest.raises(ValueError) as exc:
            build()
        messages.add(str(exc.value))
    assert len(messages) == 1, messages


@pytest.mark.parametrize("entry", [-1, 2, 10**30], ids=["negative", "past-the-end", "huge"])
def test_out_of_range_entry_rejected(entry):
    with pytest.raises(ValueError):
        G.IndexSequence(make_d1(), [], [0, 1, entry])


@pytest.mark.parametrize("index", [True, 1.0], ids=["bool", "float"])
def test_elementary_crystal_index_is_an_int(index):
    with pytest.raises(TypeError):
        G.ElementaryCrystal(make_d1(), index)
    with pytest.raises(ValueError):
        G.ElementaryCrystal(make_d1(), 2)


def test_is_int():
    assert all(map(is_int, (0, -3, 10**400)))
    assert not any(map(is_int, (True, False, 1.0, "1", None, 2.5)))


def test_cartan_entries_follow_the_rule():
    for matrix, syms in [([[2, True], [-1, 2]], [1, 1]), ([[2, -1], [-1, 2]], [True, 1]),
                         ([[2.0, -1], [-1, 2]], [1, 1])]:
        with pytest.raises(G.DatumShapeError):
            G.validate_cartan_data(matrix, syms)


# (build, prefix, cycle, seq_id), pinned from the coercing constructors
VALID_SEQUENCES = [
    (lambda: G.IndexSequence(make_d1(), (), (0, 1)), (), (0, 1), "((), (0, 1))"),
    (lambda: G.IndexSequence(make_d1(), [1, 1], [0, 1]), (1, 1), (0, 1), "((1,), (1, 0))"),
    (lambda: G.IndexSequence(make_d1(), iter([1]), range(2)), (1,), (0, 1), "((), (1, 0))"),
    (lambda: G.explicit_sequence(make_d1(), (0, 1, 0), (1, 0, 1, 0, 1, 0)),
     (0, 1, 0), (1, 0, 1, 0, 1, 0), "((), (0, 1))"),
    (lambda: G.monster_block_sequence(make_toy_monster().datum, 2, (2, 1)),
     (0, 1, 2), (0, 1, 2, 3), "((0, 1, 2), (0, 1, 2, 3))"),
    (lambda: G.monster_block_sequence(make_toy_monster().datum, 2, [2, 1]),
     (0, 1, 2), (0, 1, 2, 3), "((0, 1, 2), (0, 1, 2, 3))"),
    (lambda: G.monster_block_sequence(G.monster_datum(G.MonsterParams(3, (1, 1, 1))), 3,
                                      (1, 1, 1)),
     (0, 1, 0, 1, 2), (0, 1, 2, 3), "((0, 1, 0, 1, 2), (0, 1, 2, 3))"),
    (lambda: G.monster_block_sequence(G.monster_datum(G.MonsterParams(3, (2, 1, 3))), 3,
                                      (2, 1, 3)),
     (0, 1, 2, 0, 1, 2, 3), (0, 1, 2, 3, 4, 5, 6),
     "((0, 1, 2, 0, 1, 2, 3), (0, 1, 2, 3, 4, 5, 6))"),
    (lambda: G.sequence_from_spec(make_d1(), {"kind": "cyclic"}), (), (0, 1), "((), (0, 1))"),
    (lambda: G.sequence_from_spec(make_d1(), {"kind": "explicit", "prefix": ["2"],
                                              "cycle": ["1", 1]}),
     (1,), (0, 1), "((), (1, 0))"),
    (lambda: G.sequence_from_spec(make_toy_monster().datum, _monster_spec(2, [2, 1])),
     (0, 1, 2), (0, 1, 2, 3), "((0, 1, 2), (0, 1, 2, 3))"),
]


@pytest.mark.parametrize("build, prefix, cycle, seq_id", VALID_SEQUENCES)
def test_valid_sequences_unchanged(build, prefix, cycle, seq_id):
    seq = build()
    assert (seq.prefix, seq.cycle, seq.seq_id) == (prefix, cycle, seq_id)


def test_valid_parameters_unchanged():
    assert G.MonsterParams(2, [2, 1]) == G.MonsterParams(2, (2, 1))
    assert G.MonsterParams(2, [2, 1]).multiplicities == (2, 1)
    assert repr(G.MonsterParams(1, (20,))) == "MonsterParams(level=1, multiplicities=(20,))"
    assert repr(G.Rank2Params(2, 1, 4)) == "Rank2Params(a=2, b=1, c=4)"
    assert G.rank2_datum(G.Rank2Params(2, 4, 2)).cartan == ((2, -2), (-4, -2))


@pytest.mark.parametrize("build", [
    lambda d: d.weight(lam=[True, 0]),
    lambda d: d.weight(rt=[0, 2.5]),
    lambda d: G.Weight((1.0,), (0,)),
    lambda d: G.Weight((0,), (False,)),
    lambda d: G.Weight(("1",), (0,)),
    lambda d: G.Weight((None, 0), (0, 0)),
    lambda d: d.fundamental(0).scaled(True),
    lambda d: d.fundamental(0).scaled(2.0),
], ids=["datum-lam-bool", "datum-rt-float", "lam-float", "rt-bool", "lam-str", "lam-none",
        "scale-bool", "scale-float"])
def test_weight_coordinates_follow_the_rule(build):
    with pytest.raises(TypeError):
        build(make_d1())


def test_valid_weights_unchanged():
    d = make_d1()
    w = G.Weight(iter([1, 2]), range(2))
    assert (w.lam, w.rt) == ((1, 2), (0, 1))
    assert d.weight(lam=[1, 0]) == G.Weight((1, 0), (0, 0))
    assert d.weight(lam=[10**400, -3], rt=[0, 1]).lam == (10**400, -3)
    assert d.fundamental(1).scaled(-2) == G.Weight((0, -2), (0, 0))
