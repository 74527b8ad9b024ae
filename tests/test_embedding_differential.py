"""``crystal_embedding``, whose product reads its first factor from the
B(infinity) graph's own tables through ``GraphCrystal``, against the
product it replaced, which reads every string leaf again through the
generating ``StringCrystal`` (``string_embedding`` below, kept as the
reference).

Over one sequence of each of the 150 rank-2 data of ``small_data.py``
(the three spellings taken in turn) and the conftest Monster datum, all
at depth 4, every index must give the same target graph (each node's
element, depth, statistics, both fans and frontier flag), the same
witness mapping and the same report.  The graph-backed embedding must
still see the tensor-rule mutants M3 and M4, which no other check sees,
and a fault planted in a node record of the graph."""

import pytest

import gkmcrystals as G
from gkmcrystals import tensor
from gkmcrystals.binfinity import _embed

import tensor_reference as ref
from conftest import make_d1, make_toy_monster
from small_data import sequences, small_data


def string_embedding(binf, i):
    """The embedding with the string-backed product B(infinity) ⊗ B_i."""
    elementary = G.ElementaryCrystal(binf.datum, i)
    product = G.TensorCrystal(binf.crystal, elementary)
    root_image = product.element(binf.nodes[binf.root].elt, elementary.top())
    return _embed(binf, product, root_image, binf.depth_bound)


def node_rows(graph):
    return [(n.elt, n.depth, n.wt, n.eps, n.phi, n.e_ids, n.f_ids, n.frontier)
            for n in graph.nodes]


def report_facts(report):
    return report.violations, report.checked, report.skipped, report.coverage_errors


def differences(binf):
    """(index, what) for every part of the two embeddings that differs,
    and the number of target nodes compared."""
    out, nodes = [], 0
    for i in binf.datum.indices():
        got, want = G.crystal_embedding(binf, i), string_embedding(binf, i)
        nodes += len(want.target)
        for what, a, b in (
            ("target", node_rows(got.target), node_rows(want.target)),
            ("mapping", got.witness.mapping, want.witness.mapping),
            ("report", report_facts(got.report), report_facts(want.report)),
        ):
            if a != b:
                out.append((i, what))
    return out, nodes


def test_rank2_data_match_the_string_backed_product():
    bad, nodes = [], 0
    for k, datum in enumerate(small_data()):
        binf = G.realize_binfinity(datum, sequences(datum)[k % 3], 4)
        diffs, count = differences(binf)
        bad += [(datum.cartan, i, what) for i, what in diffs]
        nodes += count
    assert bad == []
    assert nodes == 8604


def test_monster_datum_matches_the_string_backed_product():
    model = make_toy_monster()
    binf = G.realize_binfinity(model.datum, model.sequence, 4)
    assert differences(binf)[0] == []


# -- mutants and planted faults ------------------------------------------------


def imaginary_raising_at_the_band_edge(is_real, a_ii, phi_left, eps_right):
    """Mutant M3: imaginary raising acts on the left also when
    phi = eps - a_ii."""
    if not is_real and phi_left >= eps_right - a_ii:
        return tensor.LEFT
    return ref.raising_side(is_real, a_ii, phi_left, eps_right)


def imaginary_raising_without_dead_band(is_real, a_ii, phi_left, eps_right):
    """Mutant M4: the dead band acts on the right instead of giving zero."""
    side = ref.raising_side(is_real, a_ii, phi_left, eps_right)
    return tensor.RIGHT if side == tensor.ZERO else side


@pytest.mark.parametrize("mutant, cartan", [
    (imaginary_raising_at_the_band_edge, ((2, 0), (0, 0))),
    (imaginary_raising_without_dead_band, ((2, -1), (-1, -2))),
], ids=["M3", "M4"])
def test_the_embedding_catches_raising_mutants(monkeypatch, mutant, cartan):
    datum = G.make_datum(("1", "2"), cartan, (1, 1))
    binf = G.realize_binfinity(datum, G.cyclic_sequence(datum), 4)
    assert G.crystal_embedding(binf, 1).report.violations == []
    monkeypatch.setattr(tensor, "raising_side", mutant)
    assert G.crystal_embedding(binf, 1).report.violations != []


def test_a_planted_eps_fault_is_a_morphism_eps_violation():
    # the fault reaches the product too, through node 3 as a first
    # factor, so at index 0 the two sides agree; index 1 sees it
    d1 = make_d1()
    binf = G.realize_binfinity(d1, G.cyclic_sequence(d1), 4)
    node = binf.nodes[3]
    node.eps = (node.eps[0] + 1,) + node.eps[1:]
    found = [[(v.node, v.index, v.law) for v in G.crystal_embedding(binf, i).report.violations]
             for i in d1.indices()]
    assert found == [[], [(3, 0, "morphism_eps")]]
