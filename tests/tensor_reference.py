"""Reference implementation of the flat tensor signature rule.

This is the recursion on flat factor lists that ``TensorCrystal`` used
before it evaluated products as left-nested bracket trees: the last
factor is peeled off and compared with the product of the others.  It
is kept, unchanged in substance, as the path the bracket evaluation is
diffed against (``test_tensor_differential.py``); nothing in the
library calls it.
"""

from gkmcrystals import TensorElement
from gkmcrystals.tensor import LEFT, ZERO, lowering_side, raising_side


def _pairs(crystal, b: TensorElement):
    if len(b.factors) != len(crystal.factors):
        raise ValueError("element does not belong to this tensor crystal")
    return list(zip(crystal.factors, b.factors))


def wt(crystal, b):
    return _weight(_pairs(crystal, b))


def eps(crystal, i, b):
    return _eps(crystal.datum, i, _pairs(crystal, b))


def phi(crystal, i, b):
    return _phi(crystal.datum, i, _pairs(crystal, b))


def f(crystal, i, b):
    parts = _lower(crystal.datum, i, _pairs(crystal, b))
    return None if parts is None else TensorElement(tuple(parts))


def e(crystal, i, b):
    parts = _raise(crystal.datum, i, _pairs(crystal, b))
    return None if parts is None else TensorElement(tuple(parts))


def _weight(pairs):
    w = pairs[0][0].wt(pairs[0][1])
    for crystal, elt in pairs[1:]:
        w = w + crystal.wt(elt)
    return w


def _eps(datum, i, pairs):
    if len(pairs) == 1:
        crystal, elt = pairs[0]
        return crystal.eps(i, elt)
    left, (crystal, elt) = pairs[:-1], pairs[-1]
    return max(_eps(datum, i, left), crystal.eps(i, elt) - datum.pairing(i, _weight(left)))


def _phi(datum, i, pairs):
    if len(pairs) == 1:
        crystal, elt = pairs[0]
        return crystal.phi(i, elt)
    left, (crystal, elt) = pairs[:-1], pairs[-1]
    wt_last = datum.pairing(i, crystal.wt(elt))
    return max(_phi(datum, i, left) + wt_last, crystal.phi(i, elt))


def _lower(datum, i, pairs):
    if len(pairs) == 1:
        crystal, elt = pairs[0]
        r = crystal.f(i, elt)
        return None if r is None else [r]
    left, (crystal, elt) = pairs[:-1], pairs[-1]
    if lowering_side(_phi(datum, i, left), crystal.eps(i, elt)) == LEFT:
        parts = _lower(datum, i, left)
        return None if parts is None else parts + [elt]
    r = crystal.f(i, elt)
    return None if r is None else [p[1] for p in left] + [r]


def _raise(datum, i, pairs):
    if len(pairs) == 1:
        crystal, elt = pairs[0]
        r = crystal.e(i, elt)
        return None if r is None else [r]
    left, (crystal, elt) = pairs[:-1], pairs[-1]
    side = raising_side(
        datum.is_real(i), datum.a(i, i), _phi(datum, i, left), crystal.eps(i, elt)
    )
    if side == ZERO:
        return None
    if side == LEFT:
        parts = _raise(datum, i, left)
        return None if parts is None else parts + [elt]
    r = crystal.e(i, elt)
    return None if r is None else [p[1] for p in left] + [r]
