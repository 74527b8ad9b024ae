import random

import pytest

import gkmcrystals as G
from gkmcrystals.checks import MorphismWitness, check_morphism
from gkmcrystals.fuzzing import random_universe_graph
from gkmcrystals.graph import graph_from_universe


def elementary_graph(datum, i, depth):
    c = G.ElementaryCrystal(datum, i)
    return graph_from_universe(c, [c.element(n) for n in range(depth + 1)])


class TestCheckAxioms:
    def test_elementary_truncation_passes(self, d1):
        report = G.check_axioms(elementary_graph(d1, 0, 4))
        assert report.ok
        assert report.violations == []
        # the bottom node's lowering is cut, so something was skipped
        assert report.skipped > 0

    def test_shift_graph_passes_with_neg_inf(self, d1):
        shift = G.ShiftCrystal(d1, d1.weight(lam=[2, 0]))
        g = graph_from_universe(shift, [shift.element()])
        report = G.check_axioms(g)
        assert report.ok
        # the dead-end law at phi = -inf was actually exercised
        assert report.checked > 0

    def test_unit_graph_passes(self, d1):
        unit = G.UnitCrystal(d1)
        assert G.check_axioms(graph_from_universe(unit, [unit.element()])).ok

    def test_string_component_passes(self, d1):
        g = G.realize_binfinity(d1, G.cyclic_sequence(d1), 4)
        report = G.check_axioms(g)
        assert report.ok, report.lines()

    def test_corrupted_phi_fails_pairing_law(self, d1):
        g = elementary_graph(d1, 0, 4)
        node = g.nodes[2]  # b_1(-2)
        node.phi = (-1, node.phi[1])
        report = G.check_axioms(g)
        laws = {v.law for v in report.violations}
        assert "phi_eps_pairing" in laws

    def test_corrupted_weight_fails_step_law(self, d1):
        g = elementary_graph(d1, 0, 3)
        g.nodes[1].wt = d1.zero_weight()
        laws = {v.law for v in G.check_axioms(g).violations}
        assert "f_weight_step" in laws or "e_weight_step" in laws

    def test_broken_duality_detected(self, d1):
        g = elementary_graph(d1, 0, 3)
        node = g.nodes[1]
        node.e_ids = (None, node.e_ids[1])
        laws = {v.law for v in G.check_axioms(g).violations}
        assert "ef_duality" in laws

    def test_malformed_graph_raises(self, d1):
        g = elementary_graph(d1, 0, 3)
        g.nodes[0].f_ids = (999, None)
        with pytest.raises(G.GraphStructureError):
            G.check_axioms(g)

    def test_dead_end_law(self, d1):
        shift = G.ShiftCrystal(d1, d1.weight(lam=[1, 0]))
        g = graph_from_universe(shift, [shift.element()])
        g.nodes[0].f_ids = (0, None)  # a lowering edge despite phi = -inf
        laws = {v.law for v in G.check_axioms(g).violations}
        assert "neg_inf_dead_end" in laws

    def test_randomized_universes_pass(self, d1, toy_monster):
        rng = random.Random(20260809)
        for datum in (d1, toy_monster.datum):
            for _ in range(25):
                report = G.check_axioms(random_universe_graph(rng, datum))
                assert report.ok, report.lines()


class TestCategoryProfile:
    def test_highest_weight_component_passes(self, d1):
        lam = d1.weight(lam=[1, 1])
        g = G.realize_highest_weight(d1, G.cyclic_sequence(d1), lam, 3)
        assert G.check_category_profile(g).ok

    def test_shift_graph_passes(self, d1):
        shift = G.ShiftCrystal(d1, d1.weight(lam=[0, 2]))
        g = graph_from_universe(shift, [shift.element()])
        assert G.check_category_profile(g).ok

    def test_zero_diagonal_elementary_passes(self, d1):
        assert G.check_category_profile(elementary_graph(d1, 1, 5)).ok

    def test_violations_reported(self, d1):
        g = elementary_graph(d1, 1, 2)
        g.nodes[1].eps = (g.nodes[1].eps[0], 3)
        report = G.check_category_profile(g)
        assert any(v.law == "imaginary_eps_nonpositive" for v in report.violations)


class TestCheckMorphism:
    def test_identity_is_strict_embedding(self, d1):
        g = G.realize_binfinity(d1, G.cyclic_sequence(d1), 3)
        witness = MorphismWitness({u: u for u in range(len(g))}, strict=True, embedding=True)
        report = check_morphism(witness, g, g)
        assert report.ok, report.lines()

    def test_collapse_to_root_fails(self, d1):
        g = G.realize_binfinity(d1, G.cyclic_sequence(d1), 2)
        witness = MorphismWitness({u: g.root for u in range(len(g))})
        report = check_morphism(witness, g, g)
        assert any(v.law == "morphism_wt" for v in report.violations)

    def test_injectivity_flagged(self, d2):
        g = G.realize_binfinity(d2, G.cyclic_sequence(d2), 2)
        witness = MorphismWitness({0: 0, 1: 1, 2: 1}, embedding=True)
        report = check_morphism(witness, g, g)
        assert any(v.law == "injective" for v in report.violations)

    @pytest.mark.parametrize("target", [True, 1.0], ids=["bool", "float"])
    def test_target_that_is_not_an_int_is_missing(self, d1, target):
        g = G.realize_binfinity(d1, G.cyclic_sequence(d1), 2)
        mapping = {u: u for u in range(len(g))}
        mapping[1] = target  # equal to node 1, but not a node id
        report = check_morphism(MorphismWitness(mapping), g, g)
        assert report.coverage_errors == [f"node 1 maps to missing target {target!r}"]

    @pytest.mark.parametrize("make_key", [len, lambda g: -1, lambda g: "x"],
                             ids=["out-of-range", "negative", "str"])
    def test_key_that_is_not_a_source_node_is_a_coverage_error(self, d1, make_key):
        g = G.realize_binfinity(d1, G.cyclic_sequence(d1), 2)
        key = make_key(g)
        identity = {u: u for u in range(len(g))}
        clean = check_morphism(MorphismWitness(identity, embedding=True), g, g)
        report = check_morphism(MorphismWitness({**identity, key: 0}, embedding=True), g, g)
        # the key takes no part in the laws, the injectivity check or the count
        assert report.coverage_errors == [f"mapping key {key!r} is not a source node"]
        assert report.violations == clean.violations == []
        assert report.checked == clean.checked

    def test_bool_key_is_not_read_as_a_node(self, d1):
        g = G.realize_binfinity(d1, G.cyclic_sequence(d1), 2)
        assert not g.nodes[1].frontier
        mapping = {True: 1}  # equal to node 1, but not a node id
        mapping.update((u, u) for u in range(len(g)) if u != 1)
        report = check_morphism(MorphismWitness(mapping, embedding=True), g, g)
        assert report.coverage_errors == [
            "mapping key True is not a source node", "non-frontier source node 1 is unmapped",
        ]

    def test_coverage_error_for_missing_interior_node(self, d1):
        g = G.realize_binfinity(d1, G.cyclic_sequence(d1), 2)
        mapping = {u: u for u in range(len(g)) if not g.nodes[u].frontier}
        del mapping[g.root]
        report = check_morphism(MorphismWitness(mapping), g, g)
        assert report.coverage_errors
        # frontier nodes may legitimately be absent
        full = {u: u for u in range(len(g)) if not g.nodes[u].frontier}
        assert check_morphism(MorphismWitness(full), g, g).coverage_errors == []

    def test_strict_zero_law(self, d2):
        lam = d2.weight(lam=[1])
        seq = G.cyclic_sequence(d2)
        hw = G.realize_highest_weight(d2, seq, lam, 3)  # two-node chain
        binf = G.realize_binfinity(d2, seq, 3)
        # map u_lam chain onto the start of the infinite chain: lowering of
        # the bottom chain node vanishes, its image keeps lowering, so the
        # map is a morphism but not strict
        mapping = {0: 0, 1: 1}
        lax = MorphismWitness(mapping, strict=False, weight_shift=lam)
        assert check_morphism(lax, hw, binf).ok
        strict = MorphismWitness(mapping, strict=True, weight_shift=lam)
        report = check_morphism(strict, hw, binf)
        assert any(v.law == "f_zero" for v in report.violations)

    def test_weight_shift_must_match(self, d2):
        lam = d2.weight(lam=[1])
        seq = G.cyclic_sequence(d2)
        hw = G.realize_highest_weight(d2, seq, lam, 3)
        binf = G.realize_binfinity(d2, seq, 3)
        wrong = MorphismWitness({0: 0, 1: 1}, weight_shift=d2.zero_weight())
        report = check_morphism(wrong, hw, binf)
        assert any(v.law in ("morphism_wt", "morphism_phi") for v in report.violations)

    @pytest.mark.parametrize("mapping", [{0: 0}, {}], ids=["mapped", "unmapped"])
    @pytest.mark.parametrize("size, text", [(2, "size 2, the datum 1"), (0, "size 0, the datum 1")],
                             ids=["longer", "shorter"])
    def test_weight_shift_of_another_size_raises(self, d2, mapping, size, text):
        seq = G.cyclic_sequence(d2)
        hw = G.realize_highest_weight(d2, seq, d2.weight(lam=[1]), 3)
        binf = G.realize_binfinity(d2, seq, 3)
        witness = MorphismWitness(mapping, weight_shift=G.Weight.zero(size))
        with pytest.raises(ValueError, match=text):
            check_morphism(witness, hw, binf)
