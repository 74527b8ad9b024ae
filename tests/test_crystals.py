import pytest
from hypothesis import given
from hypothesis import strategies as st

import gkmcrystals as G
from gkmcrystals.cartan import NEG_INF
from gkmcrystals.crystals import sort_key

from conftest import make_d1, make_toy_monster


class TestElementary:
    def test_real_statistics(self, d1):
        c = G.ElementaryCrystal(d1, 0)
        b = c.element(3)
        assert c.eps(0, b) == 3
        assert c.phi(0, b) == -3
        assert c.wt(b) == d1.alpha(0).scaled(-3)

    def test_imaginary_statistics_zero_diagonal(self, d1):
        c = G.ElementaryCrystal(d1, 1)
        b = c.element(5)
        assert c.eps(1, b) == 0
        assert c.phi(1, b) == 0  # -n * a_ii with a_ii = 0

    def test_imaginary_statistics_negative_diagonal(self, toy_monster):
        md = toy_monster.datum
        i = md.index_of("(1,1)")  # a_ii = -2
        c = G.ElementaryCrystal(md, i)
        assert c.phi(i, c.element(4)) == 8
        assert c.eps(i, c.element(4)) == 0

    def test_other_indices_frozen(self, d1):
        c = G.ElementaryCrystal(d1, 0)
        b = c.element(2)
        assert c.eps(1, b) == NEG_INF
        assert c.phi(1, b) == NEG_INF
        assert c.e(1, b) is None
        assert c.f(1, b) is None

    def test_raising_stops_at_top(self, d1):
        c = G.ElementaryCrystal(d1, 0)
        assert c.e(0, c.top()) is None
        assert c.f(0, c.top()) == c.element(1)

    def test_negative_steps_unrepresentable(self):
        with pytest.raises(ValueError):
            G.ElementaryElement(0, -1)

    @pytest.mark.parametrize("index, steps", [(0, True), (0, 1.5), (True, 0), (0.0, 1)])
    def test_index_and_steps_are_ints(self, index, steps):
        with pytest.raises(TypeError):
            G.ElementaryElement(index, steps)

    @given(n=st.integers(0, 40), i=st.integers(0, 1))
    def test_duality(self, n, i):
        d = make_d1()
        c = G.ElementaryCrystal(d, i)
        b = c.element(n)
        assert c.e(i, c.f(i, b)) == b
        if n > 0:
            assert c.f(i, c.e(i, b)) == b

    def test_statistics_identity(self, d1):
        for i in (0, 1):
            c = G.ElementaryCrystal(d1, i)
            for n in range(6):
                b = c.element(n)
                for j in (0, 1):
                    assert c.phi(j, b) == c.eps(j, b) + d1.pairing(j, c.wt(b))


class TestShift:
    def test_table(self, d1):
        lam = d1.weight(lam=[2, 0])
        c = G.ShiftCrystal(d1, lam)
        t = c.element()
        assert c.wt(t) == lam
        for i in (0, 1):
            assert c.eps(i, t) == NEG_INF
            assert c.phi(i, t) == NEG_INF
            assert c.e(i, t) is None
            assert c.f(i, t) is None

    def test_wt_coordinates(self, d1):
        lam = d1.weight(lam=[2, 0])
        assert G.ShiftCrystal(d1, lam).wt(G.ShiftElement(lam)) == G.Weight((2, 0), (0, 0))

    def test_size_checked(self, d1):
        with pytest.raises(ValueError):
            G.ShiftCrystal(d1, G.Weight((1,), (0,)))


class TestUnit:
    def test_table(self, d1):
        c = G.UnitCrystal(d1)
        u = c.element()
        assert c.wt(u).is_zero()
        for i in (0, 1):
            assert c.eps(i, u) == 0
            assert c.phi(i, u) == 0
            assert c.e(i, u) is None
            assert c.f(i, u) is None


class TestSortKey:
    def test_orders_each_kind(self, d1):
        es = [G.ElementaryElement(0, n) for n in (3, 0, 1)]
        assert sorted(es, key=sort_key) == [es[1], es[2], es[0]]
        assert sort_key(G.UnitElement()) == (2,)

    def test_rejects_unknown(self):
        for value in (True, 4.2, "x"):
            with pytest.raises(TypeError):
                sort_key(value)

    def test_orders_node_ids_after_elements(self):
        # a GraphCrystal's elements are node ids
        leaves = [3, G.UnitElement(), 0, G.ElementaryElement(0, 1)]
        assert sorted(leaves, key=sort_key) == [leaves[3], leaves[1], 0, 3]


def test_unit_gate_differs_from_bare_elementary(d1):
    # f kills b_2(0) x c because phi_2 = 0 is not > 0, while on the bare
    # elementary crystal f lowers freely: the unit factor is a real gate.
    e2 = G.ElementaryCrystal(d1, 1)
    assert e2.f(1, e2.top()) == e2.element(1)
    pair = G.TensorCrystal(e2, G.UnitCrystal(d1))
    b = pair.element(e2.top(), G.UnitElement())
    assert pair.f(1, b) is None
