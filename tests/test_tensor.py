import itertools

import pytest

import gkmcrystals as G
from gkmcrystals.cartan import NEG_INF
from gkmcrystals.checks import check_category_profile
from gkmcrystals.graph import graph_from_universe
from gkmcrystals.tensor import (
    LEFT,
    RIGHT,
    ZERO,
    BracketLeaf,
    BracketPair,
    bracket_lower,
    bracket_raise,
    lowering_side,
    raising_side,
    reassociate,
)


def elementary_universe(datum, i, depth):
    c = G.ElementaryCrystal(datum, i)
    return c, [c.element(n) for n in range(depth + 1)]


class TestStatistics:
    def test_eps_real_example(self, d1):
        c = G.ElementaryCrystal(d1, 0)
        pair = G.TensorCrystal(c, c)
        b = pair.element(c.element(1), c.element(0))
        # max(eps(b), eps(b') - wt_i(b)) = max(1, 0 - (-2)) = 2
        assert pair.eps(0, b) == 2

    def test_neg_inf_absorption_with_shift(self, d1):
        c = G.ElementaryCrystal(d1, 0)
        t = G.ShiftCrystal(d1, d1.weight(lam=[1, 1]))
        pair = G.TensorCrystal(c, t)
        b = pair.element(c.element(2), t.element())
        assert pair.eps(0, b) == c.eps(0, c.element(2))
        assert pair.phi(0, b) == c.phi(0, c.element(2)) + 1

    def test_phi_with_unit_gate(self, d1):
        e2 = G.ElementaryCrystal(d1, 1)
        pair = G.TensorCrystal(e2, G.UnitCrystal(d1))
        b = pair.element(e2.top(), G.UnitElement())
        assert pair.phi(1, b) == 0
        assert pair.eps(1, b) == 0

    def test_weight_adds(self, d1):
        e1 = G.ElementaryCrystal(d1, 0)
        e2 = G.ElementaryCrystal(d1, 1)
        pair = G.TensorCrystal(e1, e2)
        b = pair.element(e1.element(2), e2.element(3))
        assert pair.wt(b) == e1.wt(e1.element(2)) + e2.wt(e2.element(3))


class TestLowering:
    def test_tie_goes_right(self, d1):
        c = G.ElementaryCrystal(d1, 0)
        pair = G.TensorCrystal(c, c)
        b = pair.element(c.top(), c.top())
        assert pair.f(0, b) == pair.element(c.top(), c.element(1))

    def test_negative_phi_goes_right(self, d1):
        c = G.ElementaryCrystal(d1, 0)
        pair = G.TensorCrystal(c, c)
        b = pair.element(c.element(1), c.top())
        assert pair.f(0, b) == pair.element(c.element(1), c.element(1))

    def test_unit_gate_kills(self, d1):
        e2 = G.ElementaryCrystal(d1, 1)
        pair = G.TensorCrystal(e2, G.UnitCrystal(d1))
        b = pair.element(e2.top(), G.UnitElement())
        assert pair.f(1, b) is None


class TestRaising:
    def test_real_tie_goes_left(self):
        assert raising_side(True, 2, 0, 0) == LEFT
        assert lowering_side(0, 0) == RIGHT

    def test_real_example(self, d1):
        c = G.ElementaryCrystal(d1, 0)
        pair = G.TensorCrystal(c, c)
        b = pair.element(c.element(1), c.element(1))
        # phi(b) = -1 < eps(b') = 1, act right
        assert pair.e(0, b) == pair.element(c.element(1), c.element(0))

    def test_imaginary_dead_band(self):
        # a_ii = -2, phi(left) = 1, eps(right) = 0: 0 < 1 <= 2 gives zero
        assert raising_side(False, -2, 1, 0) == ZERO
        assert raising_side(False, -2, 3, 0) == LEFT
        assert raising_side(False, -2, 0, 0) == RIGHT

    def test_imaginary_dead_band_instance(self):
        p = G.rank2_datum(G.Rank2Params(1, 1, 2))
        e2 = G.ElementaryCrystal(p, 1)
        t = G.ShiftCrystal(p, p.fundamental(1))
        triple = G.TensorCrystal(e2, t, G.UnitCrystal(p))
        b = triple.element(e2.top(), t.element(), G.UnitElement())
        # phi_2(b_2(0) x t) = 0 + <h_2, L_2> = 1, eps_2(c) = 0, a_22 = -2
        assert triple.e(1, b) is None

    def test_imaginary_zero_diagonal_no_dead_band(self, d1):
        assert raising_side(False, 0, 0, 0) == RIGHT
        e2 = G.ElementaryCrystal(d1, 1)
        pair = G.TensorCrystal(e2, e2)
        b = pair.element(e2.top(), e2.element(1))
        assert pair.e(1, b) == pair.element(e2.top(), e2.top())


class TestShiftProduct:
    def test_two_shifts_behave_as_their_sum(self, d1):
        lam = d1.weight(lam=[2, 0])
        mu = d1.weight(lam=[0, 1], rt=[-1, 0])
        tl, tm = G.ShiftCrystal(d1, lam), G.ShiftCrystal(d1, mu)
        pair = G.TensorCrystal(tl, tm)
        b = pair.element(tl.element(), tm.element())
        assert pair.wt(b) == lam + mu
        for i in (0, 1):
            assert pair.eps(i, b) == NEG_INF
            assert pair.phi(i, b) == NEG_INF
            assert pair.e(i, b) is None
            assert pair.f(i, b) is None


class TestFlattening:
    def test_nested_crystals_flatten(self, d1):
        e1 = G.ElementaryCrystal(d1, 0)
        e2 = G.ElementaryCrystal(d1, 1)
        nested = G.TensorCrystal(G.TensorCrystal(e1, e2), e1)
        assert len(nested.factors) == 3
        b = nested.element(G.TensorElement((e1.top(), e2.top())), e1.top())
        assert len(b.factors) == 3

    def test_flat_element_invariants(self):
        with pytest.raises(ValueError):
            G.TensorElement((G.UnitElement(),))
        with pytest.raises(ValueError):
            G.TensorElement((G.UnitElement(), G.TensorElement((G.UnitElement(), G.UnitElement()))))

    def test_mixed_datum_rejected(self, d1, d2):
        with pytest.raises(ValueError):
            G.TensorCrystal(G.ElementaryCrystal(d1, 0), G.ElementaryCrystal(d2, 0))


def product_universe(pieces):
    crystal = G.TensorCrystal(*[c for c, _ in pieces])
    elements = [
        crystal.element(*combo)
        for combo in itertools.product(*[els for _, els in pieces])
    ]
    return crystal, elements


class TestProductLaws:
    def universes(self, datum):
        e_first = elementary_universe(datum, 0, 3)
        e_second = elementary_universe(datum, 1, 3)
        shift = G.ShiftCrystal(datum, datum.weight(lam=[1, 0], rt=[0, -1]))
        unit = G.UnitCrystal(datum)
        return [
            product_universe([e_first, e_second]),
            product_universe([e_second, (shift, [shift.element()])]),
            product_universe([e_first, (unit, [unit.element()]), e_second]),
        ]

    def test_duality_on_products(self, d1):
        # e(f(b)) = b whenever f(b) is nonzero, with no universe caveat:
        # the operators are total functions on elements
        for crystal, elements in self.universes(d1):
            for b in elements:
                for i in (0, 1):
                    low = crystal.f(i, b)
                    if low is not None:
                        assert crystal.e(i, low) == b
                    up = crystal.e(i, b)
                    if up is not None:
                        assert crystal.f(i, up) == b

    def test_statistics_identity_is_a_theorem(self, d1):
        for crystal, elements in self.universes(d1):
            for b in elements:
                for i in (0, 1):
                    eps, phi = crystal.eps(i, b), crystal.phi(i, b)
                    wt_i = d1.pairing(i, crystal.wt(b))
                    assert phi == eps + wt_i

    def test_imaginary_profile_closed_under_product(self, d1):
        # both factors satisfy eps_i = 0, phi_i = wt_i >= 0 at the
        # imaginary index; the product must as well
        e2 = elementary_universe(d1, 1, 4)
        crystal, elements = product_universe([e2, e2])
        report = check_category_profile(graph_from_universe(crystal, elements))
        assert report.ok, report.lines()


class TestAssociativity:
    def graph_of(self, datum, i, depth):
        c, els = elementary_universe(datum, i, depth)
        return graph_from_universe(c, els)

    def test_elementary_triples(self, d1):
        g1 = self.graph_of(d1, 0, 3)
        g2 = self.graph_of(d1, 1, 3)
        report = G.verify_associativity(g1, g2, g1)
        assert report.ok, report.lines()
        assert report.checked == len(g1) * len(g2) * len(g1) * (1 + 4 * d1.size)

    def test_triples_with_shifts(self, d1):
        shift = G.ShiftCrystal(d1, d1.weight(lam=[1, 0]))
        gs = graph_from_universe(shift, [shift.element()])
        g1 = self.graph_of(d1, 0, 3)
        g2 = self.graph_of(d1, 1, 3)
        assert G.verify_associativity(g1, gs, g2).ok
        assert G.verify_associativity(gs, g1, gs).ok

    def test_monster_triples(self, toy_monster):
        md = toy_monster.datum
        g1 = self.graph_of(md, 0, 2)
        g2 = self.graph_of(md, md.index_of("(1,1)"), 2)
        g3 = self.graph_of(md, md.index_of("(2,1)"), 2)
        assert G.verify_associativity(g1, g2, g3).ok

    def test_imaginary_left_overflow_acts_leftmost(self, toy_monster):
        # when phi_i(b1) > eps_i(b2) - a_ii, both bracketings raise the
        # leftmost factor
        md = toy_monster.datum
        i = md.index_of("(1,1)")
        c = G.ElementaryCrystal(md, i)
        seen = 0
        for n1, n2, n3 in itertools.product(range(3), repeat=3):
            b1, b2, b3 = c.element(n1), c.element(n2), c.element(n3)
            if not c.phi(i, b1) > c.eps(i, b2) - md.a(i, i):
                continue
            lhs = BracketPair(BracketPair(BracketLeaf(c, b1), BracketLeaf(c, b2)), BracketLeaf(c, b3))
            rhs = reassociate(lhs)
            for tree in (lhs, rhs):
                raised = bracket_raise(md, i, tree)
                if c.e(i, b1) is None:
                    assert raised is None
                else:
                    assert raised == (c.e(i, b1), b2, b3)
            seen += 1
        assert seen > 0

    def test_reassociate_shape(self, d1):
        c = G.ElementaryCrystal(d1, 0)
        leaf = BracketLeaf(c, c.top())
        tree = BracketPair(BracketPair(leaf, leaf), leaf)
        assert reassociate(tree) == BracketPair(leaf, BracketPair(leaf, leaf))
        with pytest.raises(ValueError):
            reassociate(BracketPair(leaf, BracketPair(leaf, leaf)))

    def test_lowering_matches_flat_tensor(self, d1):
        # bracket evaluation and the flat left-associated crystal agree
        c0, els0 = elementary_universe(d1, 0, 2)
        c1, els1 = elementary_universe(d1, 1, 2)
        flat = G.TensorCrystal(c0, c1, c0)
        for b0, b1, b2 in itertools.product(els0, els1, els0):
            elt = flat.element(b0, b1, b2)
            lhs = BracketPair(
                BracketPair(BracketLeaf(c0, b0), BracketLeaf(c1, b1)), BracketLeaf(c0, b2)
            )
            for i in (0, 1):
                got = flat.f(i, elt)
                want = bracket_lower(d1, i, lhs)
                assert (got.factors if got else None) == want
                got = flat.e(i, elt)
                want = bracket_raise(d1, i, lhs)
                assert (got.factors if got else None) == want
