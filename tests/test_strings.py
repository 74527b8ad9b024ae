import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gkmcrystals as G
from gkmcrystals.binfinity import monster_real_position
from gkmcrystals.closed_form import iter_bounded_strings

from conftest import make_d1, make_toy_monster


class TestIndexSequence:
    def test_cyclic(self, d1):
        seq = G.cyclic_sequence(d1)
        assert [seq.at(k) for k in range(1, 7)] == [0, 1, 0, 1, 0, 1]

    def test_explicit(self, d1):
        seq = G.explicit_sequence(d1, [1, 1], [0, 1])
        assert [seq.at(k) for k in range(1, 7)] == [1, 1, 0, 1, 0, 1]

    def test_positions_are_one_based(self, d1):
        with pytest.raises(ValueError):
            G.cyclic_sequence(d1).at(0)

    def test_every_index_must_recur(self, d1):
        with pytest.raises(ValueError):
            G.explicit_sequence(d1, [1], [0])
        with pytest.raises(ValueError):
            G.IndexSequence(d1, (), ())

    def test_identity_is_prefix_and_cycle(self, d1):
        spellings = [
            G.cyclic_sequence(d1),
            G.explicit_sequence(d1, (), (0, 1)),
            G.explicit_sequence(d1, (0, 1), (0, 1)),
            G.explicit_sequence(d1, (), (0, 1, 0, 1)),
            G.explicit_sequence(d1, (0, 1, 0), (1, 0, 1, 0, 1, 0)),
        ]
        a, *others = (G.StringCrystal(d1, seq) for seq in spellings)
        for b in others:
            assert a.element((1, 1)) == b.element((1, 1)), b.seq
            assert hash(a.element((1, 1))) == hash(b.element((1, 1)))

    def test_identity_keeps_the_given_spelling(self, d1):
        seq = G.explicit_sequence(d1, (1, 0, 1), (0, 1, 0, 1))
        assert (seq.prefix, seq.cycle) == ((1, 0, 1), (0, 1, 0, 1))
        assert seq.seq_id == str(((), (1, 0)))
        assert seq.scan_bound(0) == 7
        for model in (G.MonsterModel(G.MonsterParams(2, (2, 1))),
                      G.MonsterModel(G.MonsterParams(3, (1, 1, 1)))):
            seq = model.sequence
            assert seq.seq_id == str((seq.prefix, seq.cycle))

    def test_different_sequences_share_no_element(self, d1):
        crystals = [
            G.StringCrystal(d1, G.explicit_sequence(d1, prefix, cycle))
            for prefix, cycle in [((), (0, 1)), ((), (1, 0)), ((), (0, 1, 1)), ((0,), (0, 1))]
        ]
        for j, a in enumerate(crystals):
            for b in crystals[j + 1:]:
                for x in iter_bounded_strings(4, 2):
                    assert a.element(x) != b.element(x), (a.seq, b.seq, x)

    def test_monster_blocks(self, toy_monster):
        seq = toy_monster.sequence
        names = toy_monster.datum.index_names
        got = [names[seq.at(k)] for k in range(1, 12)]
        assert got == [
            "(-1,1)", "(1,1)", "(1,2)",
            "(-1,1)", "(1,1)", "(1,2)", "(2,1)",
            "(-1,1)", "(1,1)", "(1,2)", "(2,1)",
        ]

    def test_monster_real_positions(self, toy_monster):
        # b(n) = n m(1) + (n-1) m(2) + ... + m(n) + n + 1
        assert monster_real_position(0, (2, 1)) == 1
        assert monster_real_position(1, (2, 1)) == 4
        assert monster_real_position(2, (2, 1)) == 8
        seq = toy_monster.sequence
        for n in range(7):
            assert seq.at(monster_real_position(n, (2, 1))) == 0

    def test_monster_level3(self):
        model = G.MonsterModel(G.MonsterParams(3, (1, 1, 1)))
        for n in range(8):
            assert model.sequence.at(model.real_position(n)) == 0

    def test_monster_layout_validated(self, d1):
        with pytest.raises(ValueError):
            G.monster_block_sequence(d1, 2, (1, 1))  # needs 3 indices
        flipped = G.make_datum(("a", "b"), ((0, -1), (-1, 2)))
        with pytest.raises(ValueError):
            G.monster_block_sequence(flipped, 1, (1,))  # real index not first

    def test_spec_round_trip(self, d1, toy_monster):
        assert G.sequence_from_spec(d1, {"kind": "cyclic"}).cycle == (0, 1)
        seq = G.sequence_from_spec(d1, {"kind": "explicit", "prefix": ["2"], "cycle": ["1", "2"]})
        assert seq.prefix == (1,) and seq.cycle == (0, 1)
        md = toy_monster.datum
        seq = G.sequence_from_spec(md, {"kind": "monster", "level": 2, "multiplicities": [2, 1]})
        assert seq.cycle == toy_monster.sequence.cycle
        with pytest.raises(ValueError):
            G.sequence_from_spec(d1, {"kind": "nope"})
        for bad in [
            {"kind": "explicit", "prefix": 5, "cycle": [0, 1]},
            {"kind": "explicit", "cycle": [True, 1]},
            {"kind": "explicit", "cycle": [0, 1.0]},
            {"kind": "monster", "level": True, "multiplicities": [1]},
            {"kind": "monster", "level": 1, "multiplicities": 1},
        ]:
            with pytest.raises(ValueError):
                G.sequence_from_spec(d1, bad)

    @pytest.mark.parametrize("spec", [
        {"kind": "cyclic", "prefix": ["2"], "cycle": ["2", "1"]},
        {"kind": "cyclic", "level": 2},
        {"kind": "explicit", "prefix": ["2"], "cycle": ["1", "2"], "cylce": ["2"]},
        {"kind": "explicit", "cycle": ["1", "2"], "level": 2},
        {"kind": "monster", "level": 2, "multiplicities": [2, 1], "cycle": [0]},
    ], ids=["cyclic-with-explicit-keys", "cyclic-with-level", "misspelled-explicit-key",
            "explicit-with-level", "monster-with-cycle"])
    def test_spec_rejects_keys_its_kind_does_not_read(self, d1, toy_monster, spec):
        datum = toy_monster.datum if spec["kind"] == "monster" else d1
        with pytest.raises(ValueError, match="unknown keys"):
            G.sequence_from_spec(datum, spec)
        # the same spec without the stray key builds
        keys = {"cyclic": {"kind"}, "explicit": {"kind", "prefix", "cycle"},
                "monster": {"kind", "level", "multiplicities"}}[spec["kind"]]
        G.sequence_from_spec(datum, {k: v for k, v in spec.items() if k in keys})


class TestCanonicalStrings:
    def test_trailing_zeros_stripped(self, d1):
        crystal = G.StringCrystal(d1, G.cyclic_sequence(d1))
        assert crystal.element((1, 0, 0)).x == (1,)
        assert crystal.element(()).x == ()

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            G.StringElement((1, 0), "cyclic:2")
        with pytest.raises(ValueError):
            G.StringElement((-1,), "cyclic:2")

    def test_sequence_mismatch_rejected(self, d1, d2):
        with pytest.raises(ValueError):
            G.StringCrystal(d2, G.cyclic_sequence(d1))


class TestFrozenExamples:
    """Values fixed by evaluating the displayed operator formulas by hand."""

    def test_eps_phi_single_real_entry(self, d1):
        crystal = G.StringCrystal(d1, G.cyclic_sequence(d1))
        b = crystal.element((1,))
        assert crystal.eps(0, b) == 1
        assert crystal.phi(0, b) == -1
        assert d1.pairing(0, crystal.wt(b)) == -2

    def test_empty_string_statistics(self, d1):
        crystal = G.StringCrystal(d1, G.cyclic_sequence(d1))
        z = crystal.zero()
        for i in (0, 1):
            assert crystal.eps(i, z) == 0
            assert crystal.phi(i, z) == 0

    def test_imaginary_statistics(self, d1):
        crystal = G.StringCrystal(d1, G.cyclic_sequence(d1))
        b = crystal.element((1, 1))
        assert crystal.eps(1, b) == 0
        assert crystal.phi(1, b) == 1
        assert crystal.phi(1, b) == d1.pairing(1, crystal.wt(b))

    def test_lowering(self, d1):
        crystal = G.StringCrystal(d1, G.cyclic_sequence(d1))
        assert crystal.f(0, crystal.zero()).x == (1,)
        assert crystal.f(1, crystal.element((1,))).x == (1, 1)
        assert crystal.f(0, crystal.element((1,))).x == (2,)

    def test_raising(self, d1):
        crystal = G.StringCrystal(d1, G.cyclic_sequence(d1))
        assert crystal.e(0, crystal.element((1,))).x == ()
        assert crystal.e(1, crystal.element((1, 1))).x == (1,)
        for i in (0, 1):
            assert crystal.e(i, crystal.zero()) is None

    def test_weight(self, d1):
        crystal = G.StringCrystal(d1, G.cyclic_sequence(d1))
        b = crystal.element((2, 1, 1))
        assert crystal.wt(b) == d1.weight(rt=[-3, -1])

    def test_imaginary_raising_side_condition(self):
        # a_22 = -2: raising at the second occurrence is blocked when the
        # pairing mass between the occurrences fails to stay below a_ii
        p = G.Rank2Params(1, 1, 2)
        d = G.rank2_datum(p)
        crystal = G.StringCrystal(d, G.cyclic_sequence(d))
        assert crystal.e(1, crystal.element((0, 1, 0, 1))) is None
        assert crystal.e(1, crystal.element((1, 1, 1, 1))).x == (1, 1, 1)


def string_universe(datum, seq, depth, positions):
    crystal = G.StringCrystal(datum, seq)
    return crystal, [crystal.element(x) for x in iter_bounded_strings(positions, depth)]


class TestOperatorLaws:
    def test_lowering_total_and_dual(self, d1):
        crystal, elements = string_universe(d1, G.cyclic_sequence(d1), 4, 8)
        for b in elements:
            for i in (0, 1):
                low = crystal.f(i, b)
                assert low is not None
                assert crystal.e(i, low) == b

    def test_raising_dual(self, d1):
        crystal, elements = string_universe(d1, G.cyclic_sequence(d1), 4, 8)
        for b in elements:
            for i in (0, 1):
                up = crystal.e(i, b)
                if up is not None:
                    assert crystal.f(i, up) == b

    def test_statistics_identity(self, toy_monster):
        md, seq = toy_monster.datum, toy_monster.sequence
        crystal, elements = string_universe(md, seq, 3, 9)
        for b in elements:
            wt = crystal.wt(b)
            for i in md.indices():
                assert crystal.phi(i, b) == crystal.eps(i, b) + md.pairing(i, wt)
                if md.is_imaginary(i):
                    assert crystal.eps(i, b) == 0

    def test_real_raising_zero_when_eps_nonpositive(self, d1):
        p = G.Rank2Params(1, 1, 0)
        crystal, elements = string_universe(d1, G.cyclic_sequence(d1), 4, 8)
        for b in elements:
            if crystal.eps(0, b) <= 0:
                assert crystal.e(0, b) is None
            elif G.rank2_member(b.x, p):
                # on the component the converse holds as well
                assert crystal.e(0, b) is not None


def finite_tensor_of_elementaries(datum, seq, size):
    """The product B_{i_N} x ... x B_{i_1}, the object the string crystal
    is the limit of; position k corresponds to factor N - k."""
    factors = [G.ElementaryCrystal(datum, seq.at(k)) for k in range(size, 0, -1)]
    return G.TensorCrystal(*factors)


def as_tensor_element(tensor, x, size):
    padded = tuple(x) + (0,) * (size - len(x))
    return tensor.element(*[
        G.ElementaryElement(tensor.factors[j].index, padded[size - 1 - j])
        for j in range(size)
    ])


def from_tensor_element(crystal, elt):
    return crystal.element(tuple(f.steps for f in reversed(elt.factors)))


class TestAgainstFiniteTensors:
    """The string operators must agree with a long enough finite tensor
    of elementary crystals computed purely by the product rule; the two
    code paths share nothing beyond the datum."""

    def assert_agree(self, datum, seq, x):
        crystal = G.StringCrystal(datum, seq)
        b = crystal.element(x)
        size = seq.scan_bound(len(b.x))
        tensor = finite_tensor_of_elementaries(datum, seq, size)
        tb = as_tensor_element(tensor, b.x, size)
        assert crystal.wt(b) == tensor.wt(tb)
        for i in datum.indices():
            assert crystal.eps(i, b) == tensor.eps(i, tb), (x, i, "eps")
            assert crystal.phi(i, b) == tensor.phi(i, tb), (x, i, "phi")
            low, tlow = crystal.f(i, b), tensor.f(i, tb)
            assert tlow is not None
            assert low == from_tensor_element(crystal, tlow), (x, i, "f")
            up, tup = crystal.e(i, b), tensor.e(i, tb)
            if up is None:
                assert tup is None, (x, i, "e")
            else:
                assert tup is not None and up == from_tensor_element(crystal, tup)

    def test_exhaustive_small_rank2(self, d1):
        seq = G.cyclic_sequence(d1)
        for x in iter_bounded_strings(6, 3):
            self.assert_agree(d1, seq, x)

    def test_exhaustive_small_monster(self, toy_monster):
        md, seq = toy_monster.datum, toy_monster.sequence
        for x in iter_bounded_strings(8, 2):
            self.assert_agree(md, seq, x)

    @given(x=st.lists(st.integers(0, 3), max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_random_rank2_negative_c(self, x):
        p = G.Rank2Params(2, 1, 4)
        datum = G.rank2_datum(p)
        self.assert_agree(datum, G.cyclic_sequence(datum), tuple(x))

    @given(x=st.lists(st.integers(0, 2), max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_random_monster(self, x):
        model = make_toy_monster()
        self.assert_agree(model.datum, model.sequence, tuple(x))

    @given(x=st.lists(st.integers(0, 4), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_random_rank2(self, x):
        datum = make_d1()
        self.assert_agree(datum, G.cyclic_sequence(datum), tuple(x))
