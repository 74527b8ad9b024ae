import copy
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gkmcrystals as G
from gkmcrystals.cartan import NEG_INF, Weight, ext_to_json


class TestNegInfinity:
    def test_ordering_against_ints(self):
        assert NEG_INF < -(10**30)
        assert NEG_INF <= 0
        assert not NEG_INF > 5
        assert not NEG_INF >= -5
        assert 3 > NEG_INF
        assert not NEG_INF < NEG_INF
        assert NEG_INF <= NEG_INF

    def test_equality_and_hash(self):
        assert NEG_INF == G.NegInfinity()
        assert NEG_INF != 0
        assert 0 != NEG_INF
        assert hash(NEG_INF) == hash(G.NegInfinity())
        assert repr(NEG_INF) == "-inf"

    def test_saturating_arithmetic(self):
        assert NEG_INF + 7 == NEG_INF
        assert 7 + NEG_INF == NEG_INF
        assert NEG_INF + NEG_INF == NEG_INF
        assert NEG_INF - 3 == NEG_INF
        with pytest.raises(ArithmeticError):
            -NEG_INF

    def test_max_absorption(self):
        assert max(NEG_INF, 4) == 4
        assert max(4, NEG_INF) == 4
        assert max(NEG_INF, NEG_INF) == NEG_INF

    def test_window_exhaustive(self):
        # commutativity, associativity of max and +, absorption of -inf,
        # exhaustively on the integers -50..50 together with -inf
        vals = [NEG_INF] + list(range(-50, 51))
        for a in vals:
            for b in vals:
                assert max(a, b) == max(b, a)
                assert a + b == b + a
        for a in vals:
            assert a + NEG_INF == NEG_INF
            assert max(a, NEG_INF) == a
        for a in vals:
            for b in vals:
                ab = a + b
                mab = max(a, b)
                for c in vals:
                    assert max(mab, c) == max(a, max(b, c))
                    assert ab + c == a + (b + c)

    def test_json_round_trip(self):
        assert ext_to_json(NEG_INF) == "-inf"
        assert ext_to_json(5) == 5


class TestWeight:
    def test_algebra(self):
        w1 = Weight((1, 0), (0, -2))
        w2 = Weight((0, 3), (1, 1))
        assert w1 + w2 == Weight((1, 3), (1, -1))
        assert w1 - w2 == Weight((1, -3), (-1, -3))
        assert -w1 == Weight((-1, 0), (0, 2))
        assert w1.scaled(3) == Weight((3, 0), (0, -6))
        assert Weight.zero(2).is_zero()
        assert not w1.is_zero()

    def test_root_height(self):
        assert Weight((0, 0), (-2, -3)).root_height() == 5
        assert Weight((5, 1), (0, 0)).root_height() == 0

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Weight((1,), (0, 0))
        with pytest.raises(ValueError):
            Weight((1, 0), (0, 0)) + Weight((1,), (0,))


class TestValidation:
    def test_valid_rank2(self):
        report = G.validate_cartan_data([[2, -1], [-1, 0]], [1, 1])
        assert report.ok

    def test_valid_rank1(self):
        assert G.validate_cartan_data([[2]], [1]).ok

    def test_zero_symmetry_violation(self):
        report = G.validate_cartan_data([[2, -1], [0, 0]], [1, 1])
        assert not report.ok
        assert any(v.condition == "zero-symmetry" for v in report.violations)

    def test_odd_diagonal_violation(self):
        report = G.validate_cartan_data([[-1]], [1])
        assert [v.condition for v in report.violations] == ["diagonal"]

    def test_positive_diagonal_not_two(self):
        report = G.validate_cartan_data([[4]], [1])
        assert any(v.condition == "diagonal" for v in report.violations)

    def test_positive_off_diagonal(self):
        report = G.validate_cartan_data([[2, 1], [1, 2]], [1, 1])
        assert any(v.condition == "sign" for v in report.violations)

    def test_not_symmetrizable(self):
        report = G.validate_cartan_data([[2, -2], [-1, 2]], [1, 1])
        assert any(v.condition == "symmetrizable" for v in report.violations)

    def test_shape_errors_are_distinct(self):
        with pytest.raises(G.DatumShapeError):
            G.validate_cartan_data([[2, -1]], [1])
        with pytest.raises(G.DatumShapeError):
            G.validate_cartan_data([[2]], [1, 1])
        with pytest.raises(G.DatumShapeError):
            G.validate_cartan_data([[2]], [0])
        with pytest.raises(G.DatumShapeError):
            G.validate_cartan_data([[2.5]], [1])
        with pytest.raises(G.DatumShapeError):
            G.validate_cartan_data([], [])

    def test_datum_constructor_rejects_violations(self):
        with pytest.raises(G.DatumConditionError):
            G.make_datum(("1", "2"), ((2, -1), (0, 0)))
        with pytest.raises(G.DatumShapeError):
            G.make_datum(("1", "1"), ((2, 0), (0, 2)))
        for names in ((1, 2), ("1", 2), ("1", None), (b"1", "2")):
            with pytest.raises(G.DatumShapeError):
                G.make_datum(names, ((2, -1), (-1, 2)))


class TestDatum:
    def test_real_imaginary_split(self, d1, toy_monster):
        assert d1.is_real(0)
        assert not d1.is_real(1)
        assert d1.imaginary_indices == (1,)
        md = toy_monster.datum
        assert md.is_real(0)
        # degree-1 index (1,1) has diagonal -2, hence imaginary
        assert not md.is_real(md.index_of("(1,1)"))

    def test_pairing_examples(self, d1):
        minus_alpha1 = -d1.alpha(0)
        assert d1.pairing(0, minus_alpha1) == -2
        assert d1.pairing(1, d1.fundamental(1) - d1.alpha(0)) == 2
        assert d1.pairing(0, d1.fundamental(0)) == 1

    def test_dominance(self, d1):
        assert d1.is_dominant(d1.fundamental(0) + d1.fundamental(1))
        assert not d1.is_dominant(-d1.fundamental(0))

    def test_index_of(self, d1):
        assert d1.index_of("2") == 1
        with pytest.raises(KeyError):
            d1.index_of("3")
        with pytest.raises(KeyError):
            d1.index_of(1)

    def test_zero_weight_built_once(self, d1, toy_monster):
        for d in (d1, toy_monster.datum, G.make_datum(["1"], [[0]])):
            assert d.zero_weight() is d.zero_weight()
            assert d.zero_weight() == Weight.zero(d.size)
            assert d.zero_weight().is_zero()

    def test_size_equality_and_hash_survive_copies(self, d1, toy_monster):
        for d in (d1, toy_monster.datum):
            size, digest = d.size, hash(d)  # size is cached from here on
            fresh = G.make_datum(d.index_names, d.cartan, d.symmetrizers)
            for twin in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
                assert twin.size == size == len(twin.cartan)
                assert twin == d == fresh
                assert hash(twin) == digest == hash(fresh)
                assert twin.zero_weight() == d.zero_weight()

    @given(
        l1=st.integers(-30, 30), r1=st.integers(-30, 30),
        l2=st.integers(-30, 30), r2=st.integers(-30, 30),
        i=st.integers(0, 1),
    )
    def test_pairing_linear(self, l1, r1, l2, r2, i):
        d = G.rank2_datum(G.Rank2Params(1, 1, 0))
        w1 = d.weight(lam=[l1, 0], rt=[0, r1])
        w2 = d.weight(lam=[0, l2], rt=[r2, 0])
        assert d.pairing(i, w1 + w2) == d.pairing(i, w1) + d.pairing(i, w2)


@st.composite
def random_valid_datum(draw):
    # symmetric kernel t_ij scaled by s_j keeps DA symmetric by design
    n = draw(st.integers(1, 4))
    s = [draw(st.integers(1, 3)) for _ in range(n)]
    t = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            t[i][j] = t[j][i] = draw(st.integers(-3, 0))
    a = [[s[j] * t[i][j] for j in range(n)] for i in range(n)]
    for i in range(n):
        a[i][i] = draw(st.sampled_from([2, 0, -2, -4]))
    return a, s


class TestRandomValidData:
    @given(random_valid_datum())
    @settings(max_examples=60)
    def test_symmetrized_matrix_is_exactly_symmetric(self, data):
        a, s = data
        report = G.validate_cartan_data(a, s)
        assert report.ok, report.lines()
        n = len(a)
        for i in range(n):
            for j in range(n):
                assert s[i] * a[i][j] == s[j] * a[j][i]


class TestDatumFiles:
    def test_round_trip(self, tmp_path, d1):
        path = tmp_path / "d1.json"
        G.save_datum_file(path, d1, sequence_spec={"kind": "cyclic"})
        loaded, seq = G.load_datum_file(path)
        assert loaded == d1
        assert seq == {"kind": "cyclic"}

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "indices": ["1"], "cartan": [[2]], "symmetrizers": [1], "extra": 1,
        }))
        with pytest.raises(G.DatumFormatError):
            G.load_datum_file(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"indices": ["1"], "cartan": [[2]]}))
        with pytest.raises(G.DatumFormatError):
            G.load_datum_file(path)

    def test_field_order_irrelevant(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({
            "symmetrizers": [1, 1],
            "cartan": [[2, -1], [-1, 0]],
            "indices": ["1", "2"],
        }))
        datum, seq = G.load_datum_file(path)
        assert datum.cartan == ((2, -1), (-1, 0))
        assert seq is None
