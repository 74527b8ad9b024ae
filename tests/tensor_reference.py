"""Reference implementation of the flat tensor signature rule.

This is the recursion on flat factor lists that ``TensorCrystal`` used
before it evaluated products as left-nested bracket trees: the last
factor is peeled off and compared with the product of the others.  It
is kept, unchanged in substance, as the path the bracket evaluation is
diffed against (``test_tensor_differential.py``); nothing in the
library calls it.

``verify_associativity`` is the associativity check as it was before
it read each element and each inner pair once per call: every triple
builds both bracketings afresh and folds them from their leaves.

``left_nested_tree`` builds the explicit bracket tree of a flat
product element, for diffing ``TensorCrystal.stats`` against
``bracket_stats``.

``pair_stats`` is the library's pair step as it was before it made one
pass per index: eps and phi column by column, with -inf entries going
through ``NegInfinity``'s arithmetic, and the sides once per index with
``_replaced`` building the targets (``test_pair_stats_differential.py``).
"""

from itertools import product
from operator import add, sub

from gkmcrystals import TensorElement
from gkmcrystals.checks import CheckReport
from gkmcrystals.tensor import (
    BracketLeaf,
    BracketPair,
    bracket_stats,
    reassociate,
)

# The side rules, copied rather than imported, so that the flat
# recursion does not share the rule it checks with the library.
LEFT = "left"
RIGHT = "right"
ZERO = "zero"


def lowering_side(phi_left, eps_right) -> str:
    return LEFT if phi_left > eps_right else RIGHT


def raising_side(is_real: bool, a_ii: int, phi_left, eps_right) -> str:
    if is_real:
        return LEFT if phi_left >= eps_right else RIGHT
    if phi_left > eps_right - a_ii:
        return LEFT
    if phi_left <= eps_right:
        return RIGHT
    return ZERO


def _pairs(crystal, b: TensorElement):
    if len(b.factors) != len(crystal.factors):
        raise ValueError("element does not belong to this tensor crystal")
    return list(zip(crystal.factors, b.factors))


def left_nested_tree(crystal, b: TensorElement):
    """The left-nested bracket tree ((b1 ⊗ b2) ⊗ ...) ⊗ bn of b, whose
    ``bracket_stats`` ``TensorCrystal.stats`` must equal."""
    pairs = iter(_pairs(crystal, b))
    tree = BracketLeaf(*next(pairs))
    for leaf in pairs:
        tree = BracketPair(tree, BracketLeaf(*leaf))
    return tree


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


def pair_stats(datum, left, right, left_stats, right_stats):
    """The statistics of left ⊗ right, given as leaf tuples, from its
    children's: the signature rule of ``gkmcrystals.tensor``, eps and
    phi column by column and the sides once per index; a pair's pairing
    vector is the sum of its children's."""
    lwt, leps, lphi, lup, ldown, lpv = left_stats
    rwt, reps, rphi, rup, rdown, rpv = right_stats
    e, f = [], []
    for i, (is_real, a_ii, _) in enumerate(datum.index_rows):
        side = raising_side(is_real, a_ii, lphi[i], reps[i])
        e.append(_replaced(side, left, right, lup[i], rup[i]))
        f.append(_replaced(lowering_side(lphi[i], reps[i]), left, right, ldown[i], rdown[i]))
    return (lwt + rwt, tuple(map(max, leps, map(sub, reps, lpv))),
            tuple(map(max, map(add, lphi, rpv), rphi)), tuple(e), tuple(f),
            tuple(map(add, lpv, rpv)))


def _replaced(side, left, right, left_target, right_target):
    """left + right with the picked side replaced by its target, or None."""
    if side == LEFT and left_target is not None:
        return left_target + right
    if side == RIGHT and right_target is not None:
        return left + right_target
    return None


def verify_associativity(g1, g2, g3) -> CheckReport:
    for g in (g1, g2, g3):
        if g.crystal is None:
            raise ValueError("associativity check needs graphs that carry their crystal")
    datum = g1.datum
    if g2.datum != datum or g3.datum != datum:
        raise ValueError("graphs must share one datum")
    laws = ("assoc_eps", "assoc_phi", "assoc_f", "assoc_e")
    rep = CheckReport()
    leaves = [[BracketLeaf(g.crystal, b) for b in g.elements()] for g in (g1, g2, g3)]
    for leaf1, leaf2, leaf3 in product(*leaves):
        lhs = BracketPair(BracketPair(leaf1, leaf2), leaf3)
        (lwt, *lcols), (rwt, *rcols) = (_comparable(datum, t) for t in (lhs, reassociate(lhs)))
        triple = (leaf1.elt, leaf2.elt, leaf3.elt)
        rep.checked += 1 + len(laws) * datum.size
        if lwt != rwt:
            rep.add(triple, None, "assoc_wt", lwt, rwt)
        for i in datum.indices():
            for law, lv, rv in zip(laws, lcols, rcols):
                if lv[i] != rv[i]:
                    rep.add(triple, i, law, lv[i], rv[i])
    return rep


def _comparable(datum, tree):
    """wt, eps, phi, f, e of a tree; targets are leaf tuples, equal
    across bracketings."""
    wt, eps, phi, e, f = bracket_stats(datum, tree)
    return wt, eps, phi, f, e
