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
b1 ⊗ ... ⊗ bn in the left-nested bracketing ((b1 ⊗ b2) ⊗ ...) ⊗ bn:
its ``stats`` folds the leaves left to right through ``_pair_stats``,
the same pair step that ``bracket_stats`` folds an explicit tree with
and that ``verify_associativity`` applies to both bracketings of a
triple.  So the rule above has one implementation, and the change of
bracketing is an executable fact rather than an assumption.  The pair
step makes one pass per index for eps, phi and both targets, and skips
the arithmetic where the right eps or the left phi is the shared
``NEG_INF``; ``verify_associativity`` compares the two bracketings'
whole statistics first and walks its laws only on a mismatch.  The five
scalar operators read their entry of ``stats``; ``bracket_stats``
stays as the tree reference.  A tree only describes the bracketing:
an operator target is the tuple of its leaf elements, the payload of a
``TensorElement``, whichever bracketing produced it.  A leaf is read
through its crystal's five operators and carries its pairing vector
wt_i = <h_i, wt> for every i (from ``datum.pairing``); a pair's vector
is the sum of its children's.  Each factor keeps its last leaf read
with its statistics, so B(lambda)'s constant t_lambda and c leaves are
read once.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product, repeat
from operator import add

from .cartan import NEG_INF
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


BracketLeaf = namedtuple("BracketLeaf", "crystal elt")
BracketPair = namedtuple("BracketPair", "left right")


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
        # per factor, the last (leaf tuple, statistics) read; never equal to a leaf
        self._last = [((None,), None)] * len(flat)

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

    def wt(self, b):
        return self.stats(b)[0]

    def eps(self, i, b):
        return self.stats(b)[1][i]

    def phi(self, i, b):
        return self.stats(b)[2][i]

    def f(self, i, b):
        return self.stats(b)[4][i]

    def e(self, i, b):
        return self.stats(b)[3][i]

    def stats(self, b):
        """All of b's statistics from one left-to-right fold of its
        leaves through ``_pair``: ``bracket_stats`` of the left-nested
        tree of b, without building it.  Each factor keeps its last leaf
        read, by identity, so a run of identical leaves is read once."""
        parts = b.factors
        if len(parts) != len(self.factors):
            raise ValueError("element does not belong to this tensor crystal")
        datum, last, acc = self.datum, self._last, None
        for k, crystal, elt in zip(range(len(parts)), self.factors, parts):
            read = last[k]
            if read[0][0] is not elt:
                read = last[k] = _leaf(crystal, elt)
            acc = read if acc is None else _pair(datum, acc, read)
        wt, eps, phi, e, f, _ = acc[1]
        return wt, eps, phi, tuple(map(self._flat, e)), tuple(map(self._flat, f))

    @staticmethod
    def _flat(parts):
        """The flat element of a target leaf tuple, or None.  Its leaves
        come from this crystal's own (flattened) factors, so no leaf is
        a ``TensorElement`` and the validating constructor is skipped."""
        return None if parts is None else tuple.__new__(TensorElement, (parts,))


def bracket_stats(datum, tree):
    """(wt, eps, phi, e targets, f targets) of a tree, the last four
    indexed by i, each target a tuple of leaf elements or None.  A leaf
    is read through its crystal's five operators; a pair is folded by
    ``_pair_stats``."""
    return _fold(datum, tree)[1][:5]


def _fold(datum, tree):
    """(leaf tuple, statistics) of a tree."""
    if isinstance(tree, BracketLeaf):
        return _leaf(tree.crystal, tree.elt)
    return _pair(datum, _fold(datum, tree.left), _fold(datum, tree.right))


def _leaf(crystal, elt):
    """(leaf tuple, statistics) of one factor's element, read through
    its crystal's five operators; targets become one-leaf tuples.  The
    statistics end with the pairing vector (<h_i, wt> for every i)."""
    wt, eps, phi, e, f = Crystal.stats(crystal, elt)
    e, f = ([None if t is None else (t,) for t in ts] for ts in (e, f))
    datum = crystal.datum
    pairings = tuple(map(datum.pairing, datum.indices(), repeat(wt)))
    return (elt,), (wt, eps, phi, tuple(e), tuple(f), pairings)


def _pair(datum, left, right):
    """(left ⊗ right, its statistics) from two (leaf tuple, statistics) pairs."""
    return left[0] + right[0], _pair_stats(datum, left[0], right[0], left[1], right[1])


def _pair_stats(datum, left, right, left_stats, right_stats):
    """The statistics of left ⊗ right, given as leaf tuples, from its
    children's: the rule above in one pass per index, giving eps, phi
    and both targets together; a pair's pairing vector is the sum of its
    children's.  A -inf eps on the right or phi on the left leaves the
    other side's value, so the shared ``NEG_INF`` skips the arithmetic
    (any other -inf takes the formula, to the same value).  The side
    rules are read through the module on every call.  This is the only
    code that applies the rule."""
    lwt, leps, lphi, lup, ldown, lpv = left_stats
    rwt, reps, rphi, rup, rdown, rpv = right_stats
    eps, phi, e, f = [], [], [], []
    for i, (is_real, a_ii, _) in enumerate(datum.index_rows):
        lp, re = lphi[i], reps[i]
        eps.append(leps[i] if re is NEG_INF else max(leps[i], re - lpv[i]))
        phi.append(rphi[i] if lp is NEG_INF else max(lp + rpv[i], rphi[i]))
        side, lt, rt = raising_side(is_real, a_ii, lp, re), lup[i], rup[i]
        e.append(lt + right if side == LEFT and lt is not None
                 else left + rt if side == RIGHT and rt is not None else None)
        side, lt, rt = lowering_side(lp, re), ldown[i], rdown[i]
        f.append(lt + right if side == LEFT and lt is not None
                 else left + rt if side == RIGHT and rt is not None else None)
    return (lwt + rwt, tuple(eps), tuple(phi), tuple(e), tuple(f),
            tuple(map(add, lpv, rpv)))


def bracket_wt(datum, tree):
    return bracket_stats(datum, tree)[0]


def bracket_eps(datum, i, tree):
    return bracket_stats(datum, tree)[1][i]


def bracket_phi(datum, i, tree):
    return bracket_stats(datum, tree)[2][i]


def bracket_raise(datum, i, tree):
    return bracket_stats(datum, tree)[3][i]


def bracket_lower(datum, i, tree):
    return bracket_stats(datum, tree)[4][i]


def bracket_leaves(tree):
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
    and both operator actions must agree; targets are leaf tuples, so
    they compare across bracketings as they are.  Exact equality; any
    mismatch is reported with the offending triple.

    Each element is read once and each inner pair (b1 ⊗ b2), (b2 ⊗ b3)
    is folded once per call; a triple folds only its two roots.  Its
    checks are counted, then the two roots' statistics are compared
    whole, and only a mismatch walks the laws index by index.
    """
    for g in (g1, g2, g3):
        if g.crystal is None:
            raise ValueError("associativity check needs graphs that carry their crystal")
    datum = g1.datum
    if g2.datum != datum or g3.datum != datum:
        raise ValueError("graphs must share one datum")
    # each law and its column of the statistics (wt, eps, phi, e, f)
    laws = (("assoc_eps", 1), ("assoc_phi", 2), ("assoc_f", 4), ("assoc_e", 3))
    rep = CheckReport()
    s1, s2, s3 = ([_leaf(g.crystal, b) for b in g.elements()]
                  for g in (g1, g2, g3))
    s12 = [[_pair(datum, x, y) for y in s2] for x in s1]
    s23 = [[_pair(datum, y, z) for z in s3] for y in s2]
    for j, k, l in product(range(len(s1)), range(len(s2)), range(len(s3))):
        triple, lhs = _pair(datum, s12[j][k], s3[l])
        _, rhs = _pair(datum, s1[j], s23[k][l])
        rep.checked += 1 + len(laws) * datum.size
        if lhs[:5] == rhs[:5]:
            continue
        if lhs[0] != rhs[0]:
            rep.add(triple, None, "assoc_wt", lhs[0], rhs[0])
        for i in datum.indices():
            for law, col in laws:
                if lhs[col][i] != rhs[col][i]:
                    rep.add(triple, i, law, lhs[col][i], rhs[col][i])
    return rep
