"""The fault paths of the associativity check, path transport and the
closure of raising: each fault is planted on purpose, and the report or
error that names it is pinned in full."""

import pytest

import gkmcrystals as G
from gkmcrystals.binfinity import StringCrystal, _embed, _transport
from gkmcrystals.crystals import StringElement, TensorElement
from gkmcrystals.graph import bfs_component, graph_from_universe

from conftest import make_d1, make_d2

TRANSPORT_LAWS = ("transport_zero", "transport_escape", "path_disagreement")


def _row(v):
    return (v.node, v.index, v.law, v.expected, v.found)


class TestAssociativityFault:
    def test_wrong_phi_is_reported_in_order(self):
        # phi of b(-1) is 3 too large, so phi = eps + <h, wt> fails there
        # and the two bracketings act on different factors
        d = make_d2()

        class WrongPhi(G.ElementaryCrystal):
            def phi(self, i, b):
                return super().phi(i, b) + (3 if b.steps == 1 else 0)

        c = WrongPhi(d, 0)
        g = graph_from_universe(c, [c.element(0), c.element(1)])
        report = G.verify_associativity(g, g, g)

        def b(*steps):
            return tuple(c.element(n) for n in steps)

        assert [_row(v) for v in report.violations] == [
            (b(1, 1, 0), 0, "assoc_f", b(2, 1, 0), b(1, 2, 0)),
            (b(1, 1, 1), 0, "assoc_f", b(2, 1, 1), b(1, 2, 1)),
            (b(1, 1, 1), 0, "assoc_e", b(0, 1, 1), b(1, 0, 1)),
        ]
        assert (report.checked, report.skipped, report.coverage_errors) == (40, 0, [])


class TestTransportFault:
    def test_wrong_product_lowering(self):
        # B(inf) -> B(inf) ⊗ b_0 with f_1 zero at one image and f_0 acting
        # as f_1 at another: node 9 gets no image, and node 12's two
        # parents derive different images
        d = make_d1()
        source = G.realize_binfinity(d, G.cyclic_sequence(d), 3)
        strings = source.crystal
        elementary = G.ElementaryCrystal(d, 0)

        def pair(x, steps):
            return TensorElement((strings.element(x), elementary.element(steps)))

        class WrongLowering(G.TensorCrystal):
            def stats(self, b):
                wt, eps, phi, e, f = super().stats(b)
                f = list(f)
                if b == pair((0, 2), 0):
                    f[1] = None
                if b == pair((0, 1), 1):
                    f[0] = f[1]
                return wt, eps, phi, e, tuple(f)

        product = WrongLowering(strings, elementary)
        root = pair((), 0)
        result = _embed(source, product, root, 3)
        report = result.report
        assert [_row(v) for v in report.violations if v.law in TRANSPORT_LAWS] == [
            (9, 1, "transport_zero", "nonzero lowering", "path (1, 1, 1)"),
            (12, 1, "path_disagreement",
             ((0, 1, 0), pair((0, 2), 1)), ((0, 0, 1), pair((0, 1), 2))),
        ]
        assert report.coverage_errors == ["no image could be derived for node 9"]
        assert not report.ok

        images, alone = _transport(source, result.target, root)
        assert 9 not in images and len(images) == len(source) - 1
        assert (alone.checked, alone.skipped) == (14, 0)

    def test_escape_from_a_frontier_parent(self):
        # the target stops one layer short of the source, so the edge out
        # of node 1 leaves from a frontier node of the target
        d = make_d2()
        source = G.realize_binfinity(d, G.cyclic_sequence(d), 2)
        elementary = G.ElementaryCrystal(d, 0)
        product = G.TensorCrystal(source.crystal, elementary)
        root = product.element(source.crystal.zero(), elementary.top())
        result = _embed(source, product, root, 1)
        assert result.target.nodes[result.witness.mapping[1]].frontier
        assert [_row(v) for v in result.report.violations] == [
            (2, 0, "transport_escape", "target node", "path (0, 0)"),
        ]
        assert result.report.coverage_errors == ["no image could be derived for node 2"]


class TestRaisingClosure:
    def _patch_raising(self, monkeypatch, raised):
        """Make every nonzero raising of a string b return raised(b.x, y),
        y being the correct result."""
        stats = StringCrystal.stats

        def patched(self, b):
            wt, eps, phi, e, f = stats(self, b)
            e = tuple(y if y is None else raised(b.x, y) for y in e)
            return wt, eps, phi, e, f

        monkeypatch.setattr(StringCrystal, "stats", patched)

    def test_raising_out_of_the_component_is_an_audit_error(self, monkeypatch):
        def far(x, y):
            return StringElement(y.x + (0,) * 20 + (1,), y.seq_id)

        self._patch_raising(monkeypatch, far)
        d = make_d1()
        seq = G.cyclic_sequence(d)
        with pytest.raises(G.AuditError, match="raising escapes the component"):
            G.realize_binfinity(d, seq, 3)
        with pytest.raises(G.AuditError, match="raising escapes the component"):
            G.realize_highest_weight(d, seq, d.fundamental(0), 3)

    def test_raising_into_a_later_layer_is_mapped(self, monkeypatch):
        # e(1) lands on (2), which is generated only after (1) is read
        def later(x, y):
            return StringElement((2,), y.seq_id) if x == (1,) else y

        self._patch_raising(monkeypatch, later)
        d = make_d2()
        crystal = StringCrystal(d, G.cyclic_sequence(d))
        graph = bfs_component(crystal, crystal.zero(), 3)
        assert graph.closure_failures == []
        assert graph.nodes[1].elt.x == (1,)
        assert graph.nodes[graph.nodes[1].e_ids[0]].elt.x == (2,)
