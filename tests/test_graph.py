import json
import re

import pytest

import gkmcrystals as G
from gkmcrystals.graph import (
    CUT,
    element_token,
    graph_to_json_dict,
    validate_structure,
    weight_token,
)

from conftest import make_d2, manual_graph


class TestBfsComponent:
    def test_depth_zero_single_frontier_root(self, d1):
        seq = G.cyclic_sequence(d1)
        crystal = G.StringCrystal(d1, seq)
        g = G.bfs_component(crystal, crystal.zero(), 0)
        assert len(g) == 1
        assert g.nodes[0].frontier
        assert all(v is CUT or v is None for v in g.nodes[0].f_ids)

    def test_rank1_chain(self, d2):
        seq = G.cyclic_sequence(d2)
        crystal = G.StringCrystal(d2, seq)
        g = G.bfs_component(crystal, crystal.zero(), 3)
        assert [n.elt.x for n in g.nodes] == [(), (1,), (2,), (3,)]
        assert [n.depth for n in g.nodes] == [0, 1, 2, 3]
        assert g.nodes[2].f_ids == (3,)
        assert g.nodes[3].frontier

    def test_interior_fans_complete(self, d1):
        g = G.realize_binfinity(d1, G.cyclic_sequence(d1), 3)
        for node in g.nodes:
            if not node.frontier:
                assert all(v is not CUT for v in node.f_ids)

    def test_ids_deterministic(self, d1):
        seq = G.cyclic_sequence(d1)
        a = G.realize_binfinity(d1, seq, 4)
        b = G.realize_binfinity(d1, seq, 4)
        assert [n.elt for n in a.nodes] == [n.elt for n in b.nodes]
        assert list(a.edges()) == list(b.edges())
        assert G.graph_to_json(a) == G.graph_to_json(b)

    def test_negative_depth_rejected(self, d2):
        crystal = G.StringCrystal(d2, G.cyclic_sequence(d2))
        with pytest.raises(ValueError):
            G.bfs_component(crystal, crystal.zero(), -1)


class TestUniverseGraphs:
    def test_frontier_is_per_cut(self, d1):
        c = G.ElementaryCrystal(d1, 0)
        g = G.graph_from_universe(c, [c.element(n) for n in range(3)])
        assert len(g) == 3
        assert [n.frontier for n in g.nodes] == [False, False, True]
        bottom = g.nodes[2]
        assert bottom.f_ids[0] is CUT
        assert bottom.f_ids[1] is None

    def test_duplicates_collapse(self, d1):
        c = G.UnitCrystal(d1)
        g = G.graph_from_universe(c, [c.element(), c.element()])
        assert len(g) == 1

    def test_empty_rejected(self, d1):
        with pytest.raises(ValueError):
            G.graph_from_universe(G.UnitCrystal(d1), [])


class TestEdgeOrder:
    """``edges`` yields edges sorted by (from_id, index), so the exports
    and ``in_edges`` need not sort them again."""

    def graphs(self, d1, toy_monster):
        seq = G.cyclic_sequence(d1)
        binf = G.realize_binfinity(d1, seq, 6)
        hw = G.realize_highest_weight(d1, seq, d1.weight(lam=[1, 1]), 5)
        monster = G.realize_binfinity(toy_monster.datum, toy_monster.sequence, 4)
        universe = G.graph_from_universe(hw.crystal, reversed(hw.elements()))
        product = G.TensorCrystal(binf.crystal, G.ElementaryCrystal(d1, 1))
        pairs = G.graph_from_universe(
            product, [product.element(x, G.ElementaryElement(1, n))
                      for x in binf.elements()[:40] for n in range(3)])
        return [binf, hw, monster, universe, pairs]

    def test_edges_sorted(self, d1, toy_monster):
        for g in self.graphs(d1, toy_monster):
            edges = list(g.edges())
            assert len(edges) > len(g) // 2
            assert edges == sorted(edges)
            incoming = g.in_edges()
            assert all(parents == sorted(parents) for parents in incoming.values())
            assert sorted((u, i, v) for v in incoming for u, i in incoming[v]) == edges

    def test_exports_list_edges_in_order(self, d1, toy_monster):
        for g in self.graphs(d1, toy_monster):
            names = g.datum.index_names
            edges = [(e["from"], names.index(e["i"]), e["to"])
                     for e in graph_to_json_dict(g)["edges"]]
            assert edges == sorted(g.edges())
            dot = [line for line in G.graph_to_dot(g).splitlines() if "->" in line]
            assert dot == ['  n%d -> n%d [label="%s"];' % (u, v, names[i])
                           for u, i, v in sorted(g.edges())]


class TestSerialization:
    def test_json_schema(self, d2):
        g = G.realize_binfinity(d2, G.cyclic_sequence(d2), 2)
        payload = json.loads(G.graph_to_json(g))
        assert set(payload) == {"root", "nodes", "edges"}
        assert payload["root"] == 0
        node = payload["nodes"][0]
        assert set(node) == {"id", "elt", "wt", "eps", "phi", "frontier"}
        assert node["wt"] == {"lam": [0], "rt": [0]}
        assert payload["edges"][0] == {"from": 0, "to": 1, "i": "1"}

    def test_neg_inf_serialized_as_string(self, d1):
        shift = G.ShiftCrystal(d1, d1.weight(lam=[1, 0]))
        g = G.graph_from_universe(shift, [shift.element()])
        payload = graph_to_json_dict(g)
        assert payload["nodes"][0]["eps"] == {"1": "-inf", "2": "-inf"}

    def test_dot_output(self, d2):
        g = G.realize_binfinity(d2, G.cyclic_sequence(d2), 2)
        dot = G.graph_to_dot(g)
        assert dot.startswith("digraph crystal {")
        assert 'n0 [label="[0]"]' in dot
        assert 'n1 [label="[-1]"]' in dot
        assert 'n0 -> n1 [label="1"];' in dot

    def test_dot_edge_labels_are_escaped(self):
        names = ["α", 'b"2', "a\\b"]
        d = G.make_datum(names, [[2, -1, 0], [-1, 0, 0], [0, 0, 2]])
        g = G.realize_binfinity(d, G.cyclic_sequence(d), 2)
        edge = re.compile(r'  n\d+ -> n\d+ \[label="((?:[^"\\]|\\.)*)"\];')
        lines = [line for line in G.graph_to_dot(g).splitlines() if "->" in line]
        labels = [json.loads('"%s"' % edge.fullmatch(line).group(1)) for line in lines]
        assert labels == [names[i] for _, i, _ in g.edges()]

    def test_element_tokens(self, d1):
        seq = G.cyclic_sequence(d1)
        crystal = G.StringCrystal(d1, seq)
        assert element_token(G.ElementaryElement(1, 3), d1) == "b2(-3)"
        assert element_token(G.UnitElement(), d1) == "c"
        assert element_token(crystal.element((1, 2)), d1) == "x[1,2]"
        lam = d1.weight(lam=[2, 0])
        assert element_token(G.ShiftElement(lam), d1) == "t[2,0|0,0]"
        pair = G.TensorElement((crystal.element((1,)), G.UnitElement()))
        assert element_token(pair, d1) == "x[1]*c"
        assert weight_token(lam) == "[2,0|0,0]"


class TestCanonicalForm:
    def chain_graph(self, length):
        d2 = make_d2()
        weights = [d2.alpha(0).scaled(-k) for k in range(length)]
        edges = [(k, 0, k + 1) for k in range(length - 1)]
        return manual_graph(d2, weights, edges)

    def test_self_isomorphic(self, d1):
        g = G.realize_binfinity(d1, G.cyclic_sequence(d1), 3)
        assert G.graphs_isomorphic(g, g)

    def test_highest_weight_chain_vs_manual(self, d2):
        lam = d2.weight(lam=[2])
        g = G.realize_highest_weight(d2, G.cyclic_sequence(d2), lam, 4)
        assert G.graphs_isomorphic(g, self.chain_graph(3))

    def test_different_lengths_differ(self):
        assert not G.graphs_isomorphic(self.chain_graph(3), self.chain_graph(4))

    def test_paths_are_lex_minimal(self, d1):
        g = G.realize_binfinity(d1, G.cyclic_sequence(d1), 2)
        canon = G.canonical_form(g)
        assert canon[g.root] == ()
        elt_of = {tuple(path): g.nodes[u].elt.x for u, path in canon.items()}
        assert elt_of[(0,)] == (1,)
        assert elt_of[(1,)] == (0, 1)
        # (1,1) is reachable as f_2 f_1 and as f_1 f_2; key must be (0, 1)
        assert elt_of[(0, 1)] == (1, 1)

    def test_unreachable_node_raises(self):
        g = self.chain_graph(3)
        g.add_node(("node", 99))
        node = g.nodes[-1]
        node.wt = g.datum.zero_weight()
        node.eps = node.phi = (0,)
        node.e_ids = node.f_ids = (None,)
        with pytest.raises(G.GraphStructureError):
            G.canonical_form(g)


class TestGraphCrystal:
    def test_reads_the_generating_crystal_where_the_graph_is_whole(self, d1, toy_monster):
        for datum, seq in ((d1, G.cyclic_sequence(d1)), (toy_monster.datum, toy_monster.sequence)):
            g = G.realize_binfinity(datum, seq, 3)
            crystal = G.GraphCrystal(g)
            for node in g.nodes:
                wt, eps, phi, e, f = G.Crystal.stats(crystal, node.elt)
                want = g.crystal.stats(node.elt)
                assert (wt, eps, phi, e) == want[:4]
                if node.frontier:
                    assert f == (CUT,) * datum.size
                else:
                    assert f == want[4]

    def test_rows_of_a_hand_built_graph(self, d2):
        w = d2.alpha(0)
        g = manual_graph(d2, [w.scaled(0), w.scaled(-1)], [(0, 0, 1)])
        g.nodes[1].f_ids = (CUT,)
        crystal = G.GraphCrystal(g)
        assert crystal.datum is d2
        assert [crystal.f(0, ("node", k)) for k in (0, 1)] == [("node", 1), CUT]
        assert [crystal.e(0, ("node", k)) for k in (0, 1)] == [None, ("node", 0)]
        b = ("node", 1)
        assert (crystal.wt(b), crystal.eps(0, b), crystal.phi(0, b)) == (w.scaled(-1), 0, 0)

    def test_validates_the_graph(self, d2):
        g = G.realize_binfinity(d2, G.cyclic_sequence(d2), 2)
        g.nodes[1].f_ids = (999,)
        with pytest.raises(G.GraphStructureError, match="node 1 f-edge to missing node 999"):
            G.GraphCrystal(g)


class TestStructureValidation:
    def test_edge_to_missing_node(self, d2):
        g = G.realize_binfinity(d2, G.cyclic_sequence(d2), 2)
        node = g.nodes[1]
        node.f_ids = (999,)
        with pytest.raises(G.GraphStructureError):
            validate_structure(g)

    @pytest.mark.parametrize("target", [True, 1.0], ids=["bool", "float"])
    def test_edge_to_a_node_id_that_is_not_an_int(self, d2, target):
        g = G.realize_binfinity(d2, G.cyclic_sequence(d2), 2)
        g.nodes[0].f_ids = (target,)  # equal to node 1, but not a node id
        with pytest.raises(G.GraphStructureError, match=f"node 0 f-edge to missing node {target!r}"):
            validate_structure(g)

    @pytest.mark.parametrize("field, value, message", [
        ("phi", lambda node: node.phi[:1], "is missing cached statistics"),
        ("wt", lambda node: None, "has no weight of size 2"),
        ("wt", lambda node: G.Weight.zero(1), "has no weight of size 2"),
    ], ids=["short-phi", "no-wt", "short-wt"])
    def test_malformed_node_statistics(self, d1, field, value, message):
        g = G.realize_binfinity(d1, G.cyclic_sequence(d1), 3)
        setattr(g.nodes[2], field, value(g.nodes[2]))
        with pytest.raises(G.GraphStructureError, match=f"node 2 {message}"):
            validate_structure(g)
        with pytest.raises(G.GraphStructureError, match=f"node 2 {message}"):
            G.check_axioms(g)

    def test_weight_multiplicities_sorted(self, d1):
        g = G.realize_binfinity(d1, G.cyclic_sequence(d1), 3)
        table = G.weight_multiplicities(g)
        heights = [w.root_height() for w, _ in table]
        assert heights == sorted(heights)
        assert table[0] == (d1.zero_weight(), 1)
