import pytest

import gkmcrystals as G
from gkmcrystals.binfinity import audit_binfinity_truncation
from gkmcrystals.checks import check_morphism

from conftest import make_imaginary_only, manual_graph


class TestRealizeBinfinity:
    def test_rank1_chain(self, d2):
        g = G.realize_binfinity(d2, G.cyclic_sequence(d2), 5)
        assert len(g) == 6
        table = G.weight_multiplicities(g)
        assert table == [(d2.alpha(0).scaled(-k), 1) for k in range(6)]

    def test_rank2_depth1(self, d1):
        g = G.realize_binfinity(d1, G.cyclic_sequence(d1), 1)
        assert {n.elt.x for n in g.nodes} == {(), (1,), (0, 1)}

    def test_unique_weight_zero_node(self, d1, toy_monster):
        for datum, seq in (
            (d1, G.cyclic_sequence(d1)),
            (toy_monster.datum, toy_monster.sequence),
        ):
            g = G.realize_binfinity(datum, seq, 3)
            zeros = [n for n in g.nodes if n.wt.is_zero()]
            assert len(zeros) == 1
            assert zeros[0] is g.nodes[g.root]

    def test_every_nonroot_raisable(self, d1):
        g = G.realize_binfinity(d1, G.cyclic_sequence(d1), 4)
        for u, node in enumerate(g.nodes):
            if u != g.root:
                assert any(w is not None for w in node.e_ids)

    def test_audit_rejects_duplicate_zero_weight(self, d2):
        w0 = d2.zero_weight()
        g = manual_graph(d2, [w0, w0], [(0, 0, 1)])
        problems = audit_binfinity_truncation(g)
        assert any("weight-zero" in p for p in problems)
        assert any("outside -Q+" not in p for p in problems)

    def test_audit_rejects_positive_weight(self, d2):
        g = manual_graph(d2, [d2.zero_weight(), d2.alpha(0)], [(0, 0, 1)])
        assert any("outside -Q+" in p for p in audit_binfinity_truncation(g))

    def test_matches_axioms(self, toy_monster):
        g = G.realize_binfinity(toy_monster.datum, toy_monster.sequence, 3)
        report = G.check_axioms(g)
        assert report.ok, report.lines()


class TestRealizeHighestWeight:
    def test_rank1_count(self, d2):
        seq = G.cyclic_sequence(d2)
        lam = d2.weight(lam=[2])
        g = G.realize_highest_weight(d2, seq, lam, 4)
        assert len(g) == 3
        assert not any(n.frontier for n in g.nodes)

    def test_zero_weight_is_a_point(self, d1):
        g = G.realize_highest_weight(d1, G.cyclic_sequence(d1), d1.zero_weight(), 3)
        assert len(g) == 1

    def test_imaginary_zero_pairing_blocks(self):
        datum = make_imaginary_only()
        seq = G.cyclic_sequence(datum)
        g = G.realize_highest_weight(datum, seq, datum.zero_weight(), 4)
        assert len(g) == 1

    def test_imaginary_positive_pairing_unbounded(self):
        datum = make_imaginary_only()
        seq = G.cyclic_sequence(datum)
        for depth in (3, 6):
            g = G.realize_highest_weight(datum, seq, datum.fundamental(0), depth)
            assert len(g) == depth + 1

    def test_non_dominant_rejected(self, d1):
        with pytest.raises(ValueError):
            G.realize_highest_weight(
                d1, G.cyclic_sequence(d1), -d1.fundamental(0), 2
            )

    @pytest.mark.parametrize("coords", [(1,), (1, 0, 0)], ids=["short", "long"])
    def test_wrong_size_lambda_rejected(self, d1, coords):
        """The size is checked before the dominance test reads the
        pairings, so a short lambda is refused like a long one."""
        lam = G.Weight(coords, (0,) * len(coords))
        with pytest.raises(ValueError, match="weight size does not match the datum"):
            G.realize_highest_weight(d1, G.cyclic_sequence(d1), lam, 2)

    @pytest.mark.parametrize("coords", [(1,), (1, 0, 0)], ids=["short", "long"])
    def test_decomposition_wrong_size_mu_rejected(self, d1, coords):
        mu = G.Weight(coords, (0,) * len(coords))
        seq = G.cyclic_sequence(d1)
        for lam, mu in ((d1.fundamental(0), mu), (mu, d1.fundamental(0)), (mu, mu)):
            with pytest.raises(ValueError, match="weight size"):
                G.tensor_decomposition_embedding(d1, seq, lam, mu, 2)

    def test_root_element_shape(self, d1):
        lam = d1.weight(lam=[1, 0])
        g = G.realize_highest_weight(d1, G.cyclic_sequence(d1), lam, 2)
        root = g.nodes[g.root].elt
        assert root.factors[0].x == ()
        assert root.factors[1] == G.ShiftElement(lam)
        assert root.factors[2] == G.UnitElement()

    def test_fundamental_part_is_constant(self, d1):
        # every node keeps the seed's fundamental-weight coefficients
        lam = d1.weight(lam=[2, 1])
        g = G.realize_highest_weight(d1, G.cyclic_sequence(d1), lam, 4)
        assert all(n.wt.lam == lam.lam for n in g.nodes)
        assert all(all(v <= 0 for v in n.wt.rt) for n in g.nodes)


class TestProjection:
    def test_rank1_chain_maps_to_chain_start(self, d2):
        seq = G.cyclic_sequence(d2)
        lam = d2.weight(lam=[2])
        hw = G.realize_highest_weight(d2, seq, lam, 4)
        binf = G.realize_binfinity(d2, seq, 4)
        result = G.highest_weight_projection(hw, binf)
        assert result.report.ok, result.report.lines()
        images = {u: binf.nodes[v].elt.x for u, v in result.witness.mapping.items()}
        assert images == {0: (), 1: (1,), 2: (2,)}

    def test_root_maps_to_zero_string(self, d1):
        seq = G.cyclic_sequence(d1)
        lam = d1.weight(lam=[1, 1])
        hw = G.realize_highest_weight(d1, seq, lam, 3)
        binf = G.realize_binfinity(d1, seq, 3)
        result = G.highest_weight_projection(hw, binf)
        assert result.report.ok, result.report.lines()
        root_image = result.witness.mapping[hw.root]
        assert binf.nodes[root_image].elt.x == ()

    def test_weight_shift_law(self, d1):
        seq = G.cyclic_sequence(d1)
        lam = d1.weight(lam=[2, 1])
        hw = G.realize_highest_weight(d1, seq, lam, 3)
        binf = G.realize_binfinity(d1, seq, 3)
        result = G.highest_weight_projection(hw, binf)
        for u, v in result.witness.mapping.items():
            assert binf.nodes[v].wt == hw.nodes[u].wt - lam

    def test_witness_passes_generic_checker(self, d1):
        seq = G.cyclic_sequence(d1)
        lam = d1.weight(lam=[1, 0])
        hw = G.realize_highest_weight(d1, seq, lam, 3)
        binf = G.realize_binfinity(d1, seq, 3)
        result = G.highest_weight_projection(hw, binf)
        report = check_morphism(result.witness, hw, binf)
        assert report.ok, report.lines()
        assert result.witness.embedding and not result.witness.strict

    def test_monster_projection(self, toy_monster):
        md, seq = toy_monster.datum, toy_monster.sequence
        lam = md.fundamental(0)
        hw = G.realize_highest_weight(md, seq, lam, 3)
        binf = G.realize_binfinity(md, seq, 3)
        result = G.highest_weight_projection(hw, binf)
        assert result.report.ok, result.report.lines()

    def test_cross_spelling_projection(self, d1):
        # one sequence spelled several ways: the string elements must agree
        lam = d1.weight(lam=[1, 1])
        hw = G.realize_highest_weight(d1, G.cyclic_sequence(d1), lam, 3)
        for prefix, cycle in [((), (0, 1)), ((0, 1), (0, 1)), ((), (0, 1, 0, 1))]:
            binf = G.realize_binfinity(d1, G.explicit_sequence(d1, prefix, cycle), 3)
            result = G.highest_weight_projection(hw, binf)
            assert len(hw) == 11 and len(result.witness.mapping) == 11, (prefix, cycle)
            assert result.report.ok and not result.report.violations, result.report.lines()


class TestCrystalEmbedding:
    def test_root_goes_to_root_tensor_top(self, d1):
        binf = G.realize_binfinity(d1, G.cyclic_sequence(d1), 3)
        result = G.crystal_embedding(binf, 1)
        image = result.target.nodes[result.witness.mapping[binf.root]].elt
        assert image.factors[0].x == ()
        assert image.factors[1] == G.ElementaryElement(1, 0)

    def test_rank1_images(self, d2):
        binf = G.realize_binfinity(d2, G.cyclic_sequence(d2), 5)
        result = G.crystal_embedding(binf, 0)
        assert result.report.ok, result.report.lines()
        for u, v in sorted(result.witness.mapping.items()):
            image = result.target.nodes[v].elt
            # f^k 1 goes to 1 (x) b(-k)
            assert image.factors[0].x == ()
            assert image.factors[1] == G.ElementaryElement(0, u)

    def test_first_imaginary_lowering_image(self, d1):
        seq = G.cyclic_sequence(d1)
        binf = G.realize_binfinity(d1, seq, 3)
        result = G.crystal_embedding(binf, 1)
        assert result.report.ok, result.report.lines()
        crystal = binf.crystal
        lowered = crystal.f(1, crystal.zero())
        u = binf.ids[lowered]
        image = result.target.nodes[result.witness.mapping[u]].elt
        assert image.factors[0].x == ()
        assert image.factors[1] == G.ElementaryElement(1, 1)

    def test_strict_embedding_all_indices(self, d1, toy_monster):
        for datum, seq, depth in (
            (d1, G.cyclic_sequence(d1), 4),
            (toy_monster.datum, toy_monster.sequence, 3),
        ):
            binf = G.realize_binfinity(datum, seq, depth)
            for i in datum.indices():
                result = G.crystal_embedding(binf, i)
                assert result.report.ok, (i, result.report.lines())
                assert len(result.witness.mapping) == len(binf)

    def test_path_transport_covers_multipath_nodes(self, d1):
        # several depth-4 nodes have two incoming lowering edges, so the
        # transport really re-derives images along distinct paths
        binf = G.realize_binfinity(d1, G.cyclic_sequence(d1), 4)
        incoming = binf.in_edges()
        assert any(len(parents) >= 2 for parents in incoming.values())
        for i in (0, 1):
            assert G.crystal_embedding(binf, i).report.ok

    def test_requires_generating_crystal(self, d2):
        g = manual_graph(d2, [d2.zero_weight()], [])
        with pytest.raises(ValueError):
            G.crystal_embedding(g, 0)

    def test_refuses_a_universe_graph(self, d1):
        binf = G.realize_binfinity(d1, G.cyclic_sequence(d1), 3)
        universe = G.graph_from_universe(binf.crystal, binf.elements())
        with pytest.raises(ValueError, match="depth bound"):
            G.crystal_embedding(universe, 0)

    def test_reads_the_graph_not_its_crystal(self, d1, toy_monster):
        for datum, seq in ((d1, G.cyclic_sequence(d1)), (toy_monster.datum, toy_monster.sequence)):
            binf, bare = (G.realize_binfinity(datum, seq, 3) for _ in range(2))
            bare.crystal = None
            for i in datum.indices():
                got, want = G.crystal_embedding(bare, i), G.crystal_embedding(binf, i)
                assert got.witness == want.witness
                assert got.report.violations == want.report.violations
                assert got.report.summary() == want.report.summary()

    def test_malformed_graph_is_a_structure_error(self, d1):
        binf = G.realize_binfinity(d1, G.cyclic_sequence(d1), 3)
        binf.nodes[2].f_ids = binf.nodes[2].f_ids[:1]
        with pytest.raises(G.GraphStructureError, match="node 2 has a malformed f-fan"):
            G.crystal_embedding(binf, 0)


class TestTensorDecompositionEmbedding:
    def test_rank1_sum_into_product(self, d2):
        seq = G.cyclic_sequence(d2)
        lam = d2.fundamental(0)
        result = G.tensor_decomposition_embedding(d2, seq, lam, lam, 3)
        assert result.report.ok, result.report.lines()
        assert len(result.source) == 3  # the chain of B(lam+lam)
        # the component of u (x) u inside the 2 x 2 product is the
        # 3-chain; the remaining product element spans the other summand
        assert len(result.target) == 3
        root_image = result.target.nodes[result.witness.mapping[result.source.root]].elt
        # u_lam (x) u_mu: both string parts empty
        assert root_image.factors[0].x == ()
        assert root_image.factors[3].x == ()

    def test_rank2_mixed_weights(self, d1):
        seq = G.cyclic_sequence(d1)
        result = G.tensor_decomposition_embedding(
            d1, seq, d1.fundamental(0), d1.fundamental(1), 3
        )
        assert result.report.ok, result.report.lines()

    def test_zero_left_weight(self, d1):
        seq = G.cyclic_sequence(d1)
        result = G.tensor_decomposition_embedding(
            d1, seq, d1.zero_weight(), d1.weight(lam=[1, 1]), 3
        )
        assert result.report.ok, result.report.lines()
        assert result.witness.strict and result.witness.embedding

    def test_monster_toy(self, toy_monster):
        md, seq = toy_monster.datum, toy_monster.sequence
        lam = md.fundamental(0)
        result = G.tensor_decomposition_embedding(md, seq, lam, lam, 2)
        assert result.report.ok, result.report.lines()

    def test_non_dominant_factor_rejected(self, d1):
        # lam + mu = (2, 0) is dominant, but B(lam) needs lam = (2, -1) dominant
        seq = G.cyclic_sequence(d1)
        with pytest.raises(ValueError, match="not dominant"):
            G.tensor_decomposition_embedding(
                d1, seq, d1.weight(lam=[2, -1]), d1.weight(lam=[0, 1]), 3
            )
