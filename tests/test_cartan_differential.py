"""The float-backed NEG_INF against the hand-written class it replaces
(``cartan_reference.py``): every arithmetic and order operation the
crystal statistics use, on -inf, the integers -50..50 and +-10**400,
gives the same value or raises the same exception type."""

import operator

import pytest

from gkmcrystals.cartan import NEG_INF

import cartan_reference as ref

INTS = [*range(-50, 51), 10**400, -(10**400)]

BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "max": max,
    "min": min,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}


def outcome(op, args, bottom):
    """What ``op(*args)`` gives: an instance of ``bottom`` as "-inf" with
    its repr, any other value (a bare float included) as its exact type
    and value, and an exception as its type."""
    try:
        value = op(*args)
    except Exception as exc:
        return ("raises", type(exc))
    if isinstance(value, bottom):
        return ("-inf", repr(value))
    return (type(value), value)


def both(op, *xs):
    """The outcome under the library and under the reference, where each
    None in ``xs`` stands for that side's -inf."""
    new = [NEG_INF if x is None else x for x in xs]
    old = [ref.NEG_INF if x is None else x for x in xs]
    return outcome(op, new, type(NEG_INF)), outcome(op, old, ref.NegInfinity)


@pytest.mark.parametrize("name", sorted(BINARY))
def test_binary_operations_agree(name):
    values = [None, *INTS]
    bad = []
    for x in values:
        for y in values:
            new, old = both(BINARY[name], x, y)
            if new != old:
                bad.append((x, y, new, old))
    assert bad == []


def test_negation_agrees():
    for x in [None, *INTS]:
        new, old = both(operator.neg, x)
        assert new == old, x


def test_repr_agrees():
    assert repr(NEG_INF) == repr(ref.NEG_INF) == "-inf"
    assert str(NEG_INF) == str(ref.NEG_INF)
