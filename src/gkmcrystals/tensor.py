"""Tensor products of crystals.

The statistics of a product are

    wt(b ⊗ b') = wt(b) + wt(b')
    eps_i      = max(eps_i(b), eps_i(b') - wt_i(b))
    phi_i      = max(phi_i(b) + wt_i(b'), phi_i(b'))

and the operators act on one side chosen by comparing phi of the left
factor with eps of the right factor.  Lowering always picks a side;
raising at an imaginary index has a dead band of width -a_ii in which
the result is the crystal zero:

    f_i:  left  iff phi_i(b) >  eps_i(b')
    e_i (real):      left iff phi_i(b) >= eps_i(b')
    e_i (imaginary): left iff phi_i(b) >  eps_i(b') - a_ii
                     zero iff eps_i(b') < phi_i(b) <= eps_i(b') - a_ii
                     right iff phi_i(b) <= eps_i(b')

``TensorCrystal`` stores n-ary products flat and evaluates an element
b1 ⊗ ... ⊗ bn as the left-nested bracket tree ((b1 ⊗ b2) ⊗ ...) ⊗ bn,
with the same ``bracket_*`` functions that ``verify_associativity``
applies to both bracketings of a triple.  So the rule above has one
implementation, and the change of bracketing is an executable fact
rather than an assumption.
"""

from __future__ import annotations

from functools import partial
from itertools import product
from typing import NamedTuple

from .checks import CheckReport
from .crystals import Crystal, TensorElement

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


class BracketLeaf(NamedTuple):
    crystal: object
    elt: object


class BracketPair(NamedTuple):
    left: object
    right: object


class TensorCrystal(Crystal):
    """Tensor product of crystals over one datum, stored flat.

    Nested tensor factors are spliced in, so products of products stay
    flat and evaluation is left-associated throughout.
    """

    def __init__(self, *factors):
        flat = []
        for c in factors:
            if isinstance(c, TensorCrystal):
                flat.extend(c.factors)
            else:
                flat.append(c)
        if len(flat) < 2:
            raise ValueError("a tensor crystal needs at least two factors")
        datum = flat[0].datum
        for c in flat[1:]:
            if c.datum != datum:
                raise ValueError("all factors must share one Borcherds-Cartan datum")
        super().__init__(datum)
        self.factors = tuple(flat)

    def element(self, *parts) -> TensorElement:
        flat = []
        for p in parts:
            if isinstance(p, TensorElement):
                flat.extend(p.factors)
            else:
                flat.append(p)
        if len(flat) != len(self.factors):
            raise ValueError(f"expected {len(self.factors)} factors, got {len(flat)}")
        return TensorElement(tuple(flat))

    def _tree(self, b: TensorElement):
        """The left-nested bracket tree ((b1 ⊗ b2) ⊗ ...) ⊗ bn of b."""
        if len(b.factors) != len(self.factors):
            raise ValueError("element does not belong to this tensor crystal")
        pairs = zip(self.factors, b.factors)
        tree = BracketLeaf(*next(pairs))
        for crystal, elt in pairs:
            tree = BracketPair(tree, BracketLeaf(crystal, elt))
        return tree

    def wt(self, b):
        return bracket_wt(self._tree(b))

    def eps(self, i, b):
        return bracket_eps(self.datum, i, self._tree(b))

    def phi(self, i, b):
        return bracket_phi(self.datum, i, self._tree(b))

    def f(self, i, b):
        parts = bracket_leaves(bracket_lower(self.datum, i, self._tree(b)))
        return None if parts is None else TensorElement(parts)

    def e(self, i, b):
        parts = bracket_leaves(bracket_raise(self.datum, i, self._tree(b)))
        return None if parts is None else TensorElement(parts)


def bracket_wt(tree):
    if isinstance(tree, BracketLeaf):
        return tree.crystal.wt(tree.elt)
    return bracket_wt(tree.left) + bracket_wt(tree.right)


def bracket_eps(datum, i, tree):
    if isinstance(tree, BracketLeaf):
        return tree.crystal.eps(i, tree.elt)
    return max(
        bracket_eps(datum, i, tree.left),
        bracket_eps(datum, i, tree.right) - datum.pairing(i, bracket_wt(tree.left)),
    )


def bracket_phi(datum, i, tree):
    if isinstance(tree, BracketLeaf):
        return tree.crystal.phi(i, tree.elt)
    return max(
        bracket_phi(datum, i, tree.left) + datum.pairing(i, bracket_wt(tree.right)),
        bracket_phi(datum, i, tree.right),
    )


def bracket_lower(datum, i, tree):
    return _bracket_act(datum, i, tree, "f", lowering_side)


def bracket_raise(datum, i, tree):
    return _bracket_act(datum, i, tree, "e", partial(raising_side, datum.is_real(i), datum.a(i, i)))


def _bracket_act(datum, i, tree, op, side):
    """Act with the leaf operator ``op`` ("f" or "e") on the factor that
    ``side`` picks from phi_i(left) and eps_i(right) at each level; a zero
    there, or ZERO (the raising dead band), gives the crystal zero."""
    if isinstance(tree, BracketLeaf):
        r = getattr(tree.crystal, op)(i, tree.elt)
        return None if r is None else BracketLeaf(tree.crystal, r)
    picked = side(bracket_phi(datum, i, tree.left), bracket_eps(datum, i, tree.right))
    if picked == LEFT:
        sub = _bracket_act(datum, i, tree.left, op, side)
        return None if sub is None else BracketPair(sub, tree.right)
    if picked == RIGHT:
        sub = _bracket_act(datum, i, tree.right, op, side)
        return None if sub is None else BracketPair(tree.left, sub)
    return None


def bracket_leaves(tree):
    if tree is None:
        return None
    if isinstance(tree, BracketLeaf):
        return (tree.elt,)
    return bracket_leaves(tree.left) + bracket_leaves(tree.right)


def reassociate(tree: BracketPair) -> BracketPair:
    """((x ⊗ y) ⊗ z)  ->  (x ⊗ (y ⊗ z)), leaving subtrees untouched."""
    if not (isinstance(tree, BracketPair) and isinstance(tree.left, BracketPair)):
        raise ValueError("expected a left-nested pair")
    return BracketPair(tree.left.left, BracketPair(tree.left.right, tree.right))


def verify_associativity(g1, g2, g3) -> CheckReport:
    """Exhaustively compare the two bracketings over three graphs.

    For every element triple and every index, the weights, statistics
    and both operator actions must agree after flattening.  Exact
    equality; any mismatch is reported with the offending triple.
    """
    for g in (g1, g2, g3):
        if g.crystal is None:
            raise ValueError("associativity check needs graphs that carry their crystal")
    datum = g1.datum
    if g2.datum != datum or g3.datum != datum:
        raise ValueError("graphs must share one datum")
    # every comparison made per triple, in report order: (index, law, evaluator)
    laws = [(None, "assoc_wt", lambda d, k, t: bracket_wt(t))] + [
        (i, law, evaluate)
        for i in datum.indices()
        for law, evaluate in (
            ("assoc_eps", bracket_eps),
            ("assoc_phi", bracket_phi),
            ("assoc_f", lambda d, k, t: bracket_leaves(bracket_lower(d, k, t))),
            ("assoc_e", lambda d, k, t: bracket_leaves(bracket_raise(d, k, t))),
        )
    ]
    rep = CheckReport()
    leaves = [[BracketLeaf(g.crystal, b) for b in g.elements()] for g in (g1, g2, g3)]
    for leaf1, leaf2, leaf3 in product(*leaves):
        lhs = BracketPair(BracketPair(leaf1, leaf2), leaf3)
        rhs = reassociate(lhs)
        rep.checked += len(laws)
        for i, law, evaluate in laws:
            lv, rv = evaluate(datum, i, lhs), evaluate(datum, i, rhs)
            if lv != rv:
                rep.add((leaf1.elt, leaf2.elt, leaf3.elt), i, law, lv, rv)
    return rep
