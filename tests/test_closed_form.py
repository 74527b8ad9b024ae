import json
from itertools import product

import pytest

import gkmcrystals as G
from gkmcrystals.closed_form import default_position_bound, iter_bounded_strings

import closed_form_reference as ref
from test_closed_form_differential import RANK2_LAMBDAS, RANK2_PARAMS


class TestRank2Params:
    def test_validation(self):
        with pytest.raises(ValueError):
            G.Rank2Params(0, 1, 0)
        with pytest.raises(ValueError):
            G.Rank2Params(1, 1, 1)  # odd c
        with pytest.raises(ValueError):
            G.Rank2Params(1, 1, -2)

    def test_datum_symmetrizers(self):
        d = G.rank2_datum(G.Rank2Params(2, 4, 2))
        assert d.cartan == ((2, -2), (-4, -2))
        assert d.symmetrizers == (2, 1)


class TestRank2Membership:
    def test_empty_string(self):
        assert G.rank2_member((), G.Rank2Params(1, 1, 0))

    def test_unsupported_real_slot_fails(self):
        # x_3 > 0 with a x_2 = 0 violates the gate inequality at k = 1
        assert not G.rank2_member((0, 0, 1), G.Rank2Params(1, 1, 0))

    def test_basic_pair(self, d1):
        p = G.Rank2Params(1, 1, 0)
        assert G.rank2_member((1, 1), p)
        g = G.realize_binfinity(d1, G.cyclic_sequence(d1), 2)
        assert G.StringCrystal(d1, G.cyclic_sequence(d1)).element((1, 1)) in g.ids

    def test_repeat_imaginary_needs_support(self):
        p = G.Rank2Params(1, 1, 0)
        # x_4 > 0 requires x_3 > 0 and a strict gate a x_4 - x_5 > 0
        assert not G.rank2_member((1, 1, 0, 1), p)
        assert G.rank2_member((1, 1, 1, 1), p)
        assert not G.rank2_member((1, 1, 1, 1, 1), p)
        assert G.rank2_member((1, 2, 1, 1), p)


class TestRank2HighestWeight:
    def test_budget_bound(self, d1):
        p = G.Rank2Params(1, 1, 0)
        lam = d1.weight(lam=[1, 0])
        assert not G.rank2_highest_weight_member((2,), p, lam)
        assert G.rank2_highest_weight_member((), p, lam)
        assert G.rank2_highest_weight_member((1,), p, lam)

    def test_imaginary_needs_license(self, d1):
        p = G.Rank2Params(1, 1, 0)
        zero2 = d1.weight(lam=[1, 0])
        one2 = d1.weight(lam=[1, 1])
        assert not G.rank2_highest_weight_member((0, 1), p, zero2)
        assert G.rank2_highest_weight_member((0, 1), p, one2)

    def test_strict_gate_when_unlicensed(self, d1):
        p = G.Rank2Params(1, 1, 0)
        zero2 = d1.weight(lam=[1, 0])
        one2 = d1.weight(lam=[1, 1])
        # with <h_2, lam> = 0 the first imaginary entry also needs the
        # strict gate a x_2 - x_3 > 0
        assert not G.rank2_highest_weight_member((1, 1, 1), p, zero2)
        assert G.rank2_highest_weight_member((1, 1, 1), p, one2)
        assert G.rank2_highest_weight_member((1, 2, 1), p, zero2)


class TestRank2SupportShape:
    """The lemma behind the shape test that ``rank2_member`` runs
    first, checked on the reference predicates and the depth-6 box: no
    accepted string has a zero strictly between position 1 and its last
    nonzero position, for B(inf) or for any lam."""

    @pytest.mark.parametrize("abc", RANK2_PARAMS)
    def test_accepted_strings_are_zero_free_from_x2(self, abc):
        p = G.Rank2Params(*abc)
        datum = G.rank2_datum(p)
        box = list(iter_bounded_strings(default_position_bound(G.cyclic_sequence(datum), 6), 6))
        predicates = [lambda x: ref.rank2_member(x, p)] + [
            lambda x, lam=datum.weight(lam=list(h)): ref.rank2_highest_weight_member(x, p, datum, lam)
            for h in RANK2_LAMBDAS
        ]
        led_by_zero = 0
        for member in predicates:
            accepted = list(filter(member, box))
            assert accepted
            assert [x for x in accepted if 0 in x[1:]] == []  # box strings end nonzero
            led_by_zero += sum(1 for x in accepted if x and x[0] == 0)
        # x_1 is the one position a member may leave zero before its support
        assert led_by_zero


class TestMonsterModel:
    def test_datum_entries_from_degrees(self, toy_monster):
        md = toy_monster.datum
        assert md.index_names == ("(-1,1)", "(1,1)", "(1,2)", "(2,1)")
        r, one, two = 0, md.index_of("(1,1)"), md.index_of("(2,1)")
        assert md.a(r, r) == 2
        assert md.a(r, one) == 0
        assert md.a(r, two) == -1
        assert md.a(one, one) == -2
        assert md.a(one, two) == -3
        assert md.a(two, two) == -4

    def test_params_validation(self):
        with pytest.raises(ValueError):
            G.MonsterParams(2, (1,))
        with pytest.raises(ValueError):
            G.MonsterParams(1, (0,))

    def test_second_real_slot_must_vanish(self, toy_monster):
        x = [0, 0, 0, 1]  # position b(1) = 4
        assert not toy_monster.member(tuple(x))

    def test_empty_and_first_slot(self, toy_monster):
        assert toy_monster.member(())
        assert toy_monster.member((1,))
        g = G.realize_binfinity(toy_monster.datum, toy_monster.sequence, 1)
        crystal = G.StringCrystal(toy_monster.datum, toy_monster.sequence)
        assert crystal.element((1,)) in g.ids

    def test_real_gate_between_blocks(self, toy_monster):
        # x_8 at b(2) is supported only by pairing-negative mass in (4, 8)
        x = [0] * 8
        x[7] = 1
        assert not toy_monster.member(tuple(x))
        x[6] = 1  # (2,1) slot pairs with the real index
        assert toy_monster.member(tuple(x))

    def test_repeat_occurrence_needs_negative_mass(self, toy_monster):
        # two (1,1) entries with nothing pairing-negative in between
        x = [0] * 9
        x[1] = 1
        x[8] = 1
        assert not toy_monster.member(tuple(x))

    def test_highest_weight_budget(self, toy_monster):
        lam = toy_monster.datum.fundamental(0)
        assert toy_monster.highest_weight_member((), lam)
        assert not toy_monster.highest_weight_member((2,), lam)
        assert toy_monster.highest_weight_member((1,), lam)

    def test_highest_weight_first_occurrence_support(self, toy_monster):
        lam = toy_monster.datum.fundamental(0)
        x = [0] * 7
        x[6] = 1  # first (2,1) entry, <h,lam> = 0, no earlier support
        assert not toy_monster.highest_weight_member(tuple(x), lam)
        x[0] = 1  # real slot pairs with (2,1): condition satisfied
        assert toy_monster.highest_weight_member(tuple(x), lam)
        hw = G.realize_highest_weight(toy_monster.datum, toy_monster.sequence, lam, 2)
        assert tuple(x) in {n.elt.factors[0].x for n in hw.nodes}

    def test_highest_weight_strict_gate(self, toy_monster):
        # real-only support forces the strict gate at the slot before k:
        # adding x_8 = 1 makes it an equality, which the component avoids
        lam = toy_monster.datum.fundamental(0)
        x = [1, 0, 0, 0, 0, 0, 1, 1]
        assert toy_monster.member(tuple(x))
        assert not toy_monster.highest_weight_member(tuple(x), lam)

    @pytest.mark.parametrize("level,mults", [(2, (2, 1)), (3, (1, 1, 1)), (2, (1, 1))])
    def test_real_slots_read_off_the_sequence(self, level, mults):
        model = G.MonsterModel(G.MonsterParams(level, mults))
        for n in (0, 20, 100):
            t = model.sequence.tables(n)
            formula = [model.real_position(k) for k in range(len(t.idx))]
            assert t.occ[0] == [b for b in formula if b <= len(t.idx)]

    def test_uniqueness_guard_does_not_fire_on_block_sequences(self, toy_monster):
        for x in iter_bounded_strings(14, 3):
            toy_monster.member(x)  # must never raise


def _sweep_cases():
    """Rank 2: every (a, b, c) with a, b in {1, 2, 3} and c in {0, 2, 4},
    B(inf) at depth 5 and three lam at depth 4.  Monster: nine
    truncations up to level 3, B(inf) at depth 4 and lam = Lambda_real,
    Lambda_(1,1) and their sum at depth 3."""
    for abc in product((1, 2, 3), (1, 2, 3), (0, 2, 4)):
        tag = "rank2-" + ",".join(map(str, abc))
        yield pytest.param("rank2", abc, None, 5, id=f"{tag}-binf")
        for h in ((1, 0), (0, 1), (1, 1)):
            yield pytest.param("rank2", abc, h, 4, id=f"{tag}-lam{h[0]}{h[1]}")
    for level, mults in [(1, (1,)), (1, (2,)), (1, (3,)), (2, (1, 1)), (2, (1, 2)),
                         (2, (2, 1)), (2, (3, 1)), (3, (1, 1, 1)), (3, (2, 1, 1))]:
        tag = f"monster-{level};" + ",".join(map(str, mults))
        yield pytest.param("monster", (level, mults), None, 4, id=f"{tag}-binf")
        for names in (("(-1,1)",), ("(1,1)",), ("(-1,1)", "(1,1)")):
            yield pytest.param("monster", (level, mults), names, 3, id=f"{tag}-lam" + "+".join(names))


@pytest.mark.parametrize("family,params,lam,depth", _sweep_cases())
def test_closed_form_sweep(family, params, lam, depth):
    """Both families run one condition body; the oracle diffs it against
    generation over a sweep of data, for B(inf) and for B(lam)."""
    if family == "rank2":
        p = G.Rank2Params(*params)
        datum = G.rank2_datum(p)
        seq = G.cyclic_sequence(datum)
        lam = None if lam is None else datum.weight(lam=list(lam))
        if lam is None:
            member = lambda x: G.rank2_member(x, p)
        else:
            member = lambda x: G.rank2_highest_weight_member(x, p, lam)
    else:
        model = G.MonsterModel(G.MonsterParams(*params))
        datum, seq = model.datum, model.sequence
        if lam is None:
            member = model.member
        else:
            lam = datum.weight(lam=[int(n in lam) for n in datum.index_names])
            member = lambda x: model.highest_weight_member(x, lam)
    report = G.compare_predicate_with_bfs(member, datum, seq, depth, lam=lam)
    assert report.ok, report.summary()
    assert report.char


class TestEnumeration:
    @pytest.mark.parametrize("positions,height", [(0, 2), (1, 3), (2, 2), (3, 3), (4, 2)])
    def test_box_is_the_stripped_product_filter(self, positions, height):
        got = list(iter_bounded_strings(positions, height))
        assert len(got) == len(set(got))
        assert all(not x or x[-1] for x in got)
        heights = [sum(x) for x in got]
        assert heights == sorted(heights)
        brute = set()
        for x in product(range(height + 1), repeat=positions):
            if sum(x) <= height:
                while x and not x[-1]:
                    x = x[:-1]
                brute.add(x)
        assert set(got) == brute

    def test_counts(self):
        assert len(list(iter_bounded_strings(4, 3))) == 35  # C(7,3)

    def test_position_bound_covers_generation(self, d1):
        seq = G.cyclic_sequence(d1)
        depth = 5
        g = G.realize_binfinity(d1, seq, depth)
        bound = default_position_bound(seq, depth)
        assert all(len(n.elt.x) <= bound for n in g.nodes)


class TestOracleCompare:
    def test_rank2_base(self, d1):
        p = G.Rank2Params(1, 1, 0)
        report = G.compare_predicate_with_bfs(
            lambda x: G.rank2_member(x, p), d1, G.cyclic_sequence(d1), 5
        )
        assert report.ok, report.summary()
        assert report.char == report.predicate_char

    def test_rank2_highest_weight(self, d1):
        p = G.Rank2Params(1, 1, 0)
        lam = d1.weight(lam=[1, 0])
        report = G.compare_predicate_with_bfs(
            lambda x: G.rank2_highest_weight_member(x, p, lam),
            d1, G.cyclic_sequence(d1), 4, lam=lam,
        )
        assert report.ok, report.summary()

    def test_monster_base(self, toy_monster):
        report = G.compare_predicate_with_bfs(
            toy_monster.member, toy_monster.datum, toy_monster.sequence, 3
        )
        assert report.ok, report.summary()

    @pytest.mark.parametrize("names", [("(1,1)",), ("(-1,1)", "(2,1)")])
    def test_monster_highest_weight_imaginary_budget(self, toy_monster, names):
        datum = toy_monster.datum
        lam = datum.weight(lam=[int(n in names) for n in datum.index_names])
        report = G.compare_predicate_with_bfs(
            lambda x: toy_monster.highest_weight_member(x, lam),
            datum, toy_monster.sequence, 3, lam=lam,
        )
        assert report.ok, report.summary()

    @pytest.mark.parametrize("lam", [None, (1, 0), (0, 1)], ids=["binf", "lam-10", "lam-01"])
    def test_character_does_not_read_the_string_weights(self, monkeypatch, lam):
        """A weight map in generation that reverses the root coordinates
        changes the generated character; the oracle sums its own weights,
        so it reports differing multiplicities over the same string set."""
        p = G.Rank2Params(1, 2, 2)
        datum = G.rank2_datum(p)
        lam = None if lam is None else datum.weight(lam=lam)
        if lam is None:
            member = lambda x: G.rank2_member(x, p)
        else:
            member = lambda x: G.rank2_highest_weight_member(x, p, lam)

        def compare():
            return G.compare_predicate_with_bfs(member, datum, G.cyclic_sequence(datum), 5, lam=lam)

        honest = compare()
        assert honest.ok, honest.summary()
        stats = G.StringCrystal.stats

        def reversed_stats(self, b):
            w, *rest = stats(self, b)
            return (G.Weight(w.lam, w.rt[::-1]), *rest)

        monkeypatch.setattr(G.StringCrystal, "stats", reversed_stats)
        report = compare()
        assert not report.missing_in_bfs and not report.missing_in_predicate
        assert report.predicate_char == honest.predicate_char
        assert report.char != honest.char
        assert not report.ok
        assert "multiplicities differ" in report.summary()

    def test_report_flags_wrong_predicate(self, d1):
        report = G.compare_predicate_with_bfs(
            lambda x: len(x) <= 1 or x == (0, 0, 1), d1, G.cyclic_sequence(d1), 2
        )
        assert not report.ok
        assert (0, 1) in report.missing_in_predicate  # generation finds more
        assert report.missing_in_bfs == [(0, 0, 1)]   # fake positive

    def test_json_schema(self, d1):
        p = G.Rank2Params(1, 1, 0)
        report = G.compare_predicate_with_bfs(
            lambda x: G.rank2_member(x, p), d1, G.cyclic_sequence(d1), 3
        )
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert set(payload) == {"missing_in_bfs", "missing_in_predicate", "char"}
        assert payload["missing_in_bfs"] == []
        assert payload["char"][0] == {"wt": {"lam": [0, 0], "rt": [0, 0]}, "mult": 1}

    def test_operator_stability_of_predicate_set(self, d1):
        # lowering a passing string passes; raising passes or vanishes
        p = G.Rank2Params(1, 1, 0)
        crystal = G.StringCrystal(d1, G.cyclic_sequence(d1))
        for x in iter_bounded_strings(10, 4):
            if not G.rank2_member(x, p):
                continue
            b = crystal.element(x)
            for i in (0, 1):
                assert G.rank2_member(crystal.f(i, b).x, p)
                up = crystal.e(i, b)
                if up is not None:
                    assert G.rank2_member(up.x, p)
