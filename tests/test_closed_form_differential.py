"""The table-driven closed-form predicates against the reference
position-by-position evaluation they replace, on every string of the
oracle's height x position box (stripped, as the oracle passes them,
and padded with trailing zeros to the box width)."""

import pytest

import gkmcrystals as G
from gkmcrystals.closed_form import (
    MonsterConditionError,
    default_position_bound,
    iter_bounded_strings,
)

import closed_form_reference as ref

RANK2_PARAMS = [(1, 1, 0), (1, 2, 2), (2, 1, 4), (3, 3, 2)]
RANK2_LAMBDAS = [(h1, h2) for h1 in (0, 1, 2) for h2 in (0, 1)]
MONSTER_MODELS = [(2, (2, 1)), (3, (1, 1, 1)), (2, (1, 1))]


def box(seq, depth):
    """Every box string, stripped and padded to the box width."""
    width = default_position_bound(seq, depth)
    for x in iter_bounded_strings(width, depth):
        yield x
        yield x + (0,) * (width - len(x))


def disagreements(new, old, strings):
    return [x for x in strings if new(x) != old(x)]


@pytest.mark.parametrize("abc", RANK2_PARAMS)
def test_rank2_member_matches_reference(abc):
    p = G.Rank2Params(*abc)
    seq = G.cyclic_sequence(G.rank2_datum(p))
    bad = disagreements(
        lambda x: G.rank2_member(x, p),
        lambda x: ref.rank2_member(x, p),
        box(seq, 6),
    )
    assert not bad, bad[:5]


@pytest.mark.parametrize("abc", RANK2_PARAMS)
def test_rank2_highest_weight_member_matches_reference(abc):
    p = G.Rank2Params(*abc)
    datum = G.rank2_datum(p)
    seq = G.cyclic_sequence(datum)
    strings = list(box(seq, 4))
    for h1, h2 in RANK2_LAMBDAS:
        lam = datum.weight(lam=[h1, h2])
        bad = disagreements(
            lambda x: G.rank2_highest_weight_member(x, p, datum, lam),
            lambda x: ref.rank2_highest_weight_member(x, p, datum, lam),
            strings,
        )
        assert not bad, ((h1, h2), bad[:5])


@pytest.mark.parametrize("level,mults", MONSTER_MODELS)
def test_monster_member_matches_reference(level, mults):
    model = G.MonsterModel(G.MonsterParams(level, mults))
    bad = disagreements(
        model.member,
        lambda x: ref.monster_member(model, x),
        box(model.sequence, 4),
    )
    assert not bad, bad[:5]


@pytest.mark.parametrize("level,mults", [(1, (15,)), (1, (20,)), (2, (15, 1))])
def test_monster_member_matches_reference_past_the_array(level, mults):
    # the second real slot b(1) - 1 = m(1) + 1 >= 16 lies at or past the
    # end of the shortest cached index array
    model = G.MonsterModel(G.MonsterParams(level, mults))
    bad = disagreements(
        model.member,
        lambda x: ref.monster_member(model, x),
        box(model.sequence, 2),
    )
    assert not bad, bad[:5]


def monster_lambdas(datum):
    """0 and Lambda_real, plus weights with a nonzero imaginary budget:
    Lambda_(1,1) and Lambda_real + Lambda_(2,1)."""
    real, i11, i21 = (datum.index_of(n) for n in ("(-1,1)", "(1,1)", "(2,1)"))
    return [
        ("0", datum.zero_weight()),
        ("Lambda_real", datum.fundamental(real)),
        ("Lambda_(1,1)", datum.fundamental(i11)),
        ("Lambda_real + Lambda_(2,1)", datum.fundamental(real) + datum.fundamental(i21)),
    ]


@pytest.mark.parametrize("level,mults", MONSTER_MODELS)
def test_monster_highest_weight_member_matches_reference(level, mults):
    model = G.MonsterModel(G.MonsterParams(level, mults))
    datum = model.datum
    strings = list(box(model.sequence, 3))
    for name, lam in monster_lambdas(datum):
        bad = disagreements(
            lambda x: model.highest_weight_member(x, lam),
            lambda x: ref.monster_highest_weight_member(model, x, lam),
            strings,
        )
        assert not bad, (name, bad[:5])


def test_malformed_sequence_raises(toy_monster):
    x = (0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1)
    assert not toy_monster.member(x)  # tables built for the block sequence
    # the block sequence with the (2,1) at position 11 replaced by (1,1):
    # positions 7 and 13 carry (2,1), and both the array and the formula
    # put two real slots, b(2) = 8 and b(3) = 12, between them
    toy_monster.sequence = G.explicit_sequence(
        toy_monster.datum, (0, 1, 2, 0, 1, 2, 3, 0, 1, 2, 1, 0, 3), (0, 1, 2, 3)
    )
    with pytest.raises(MonsterConditionError, match=r"\(7, 13\), found \[2, 3\]"):
        ref.monster_member(toy_monster, x)
    with pytest.raises(MonsterConditionError, match=r"\(7, 13\), found \[2, 3\]"):
        toy_monster.member(x)
    lam = toy_monster.datum.fundamental(0)
    with pytest.raises(MonsterConditionError):
        toy_monster.highest_weight_member(x, lam)
