"""``crystal_embedding``, whose product reads its first factor in place
from the B(infinity) graph's own tables through ``GraphCrystal`` (on
node ids), against the product it replaced, which reads every string
leaf again through the generating ``StringCrystal`` (``string_embedding``
below, kept as the reference).

Over one sequence of each of the 150 rank-2 data of ``small_data.py``
(the three spellings taken in turn) and the conftest Monster datum, all
at depth 4, every index must give the same target graph (each node's
element, depth, statistics, both fans and frontier flag), the same
witness mapping and the same report, unmutated and under the
tensor-rule mutants M3 and M4.  The two targets number their nodes in
different orders, so each is compared with every target node named by
its element, a graph-backed leaf (a node id) read as the string it
stands for.  The graph-backed embedding must still see M3 and M4, which
no other check sees, and a fault planted in a node record of the graph.
"""

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


def named(result, leaf):
    """The target graph, witness mapping and report of an embedding, each
    target node named by its element with ``leaf`` applied to its first
    factor: the graph as {name: (depth, statistics, fans, frontier)},
    violations with their target nodes named too."""
    nodes = result.target.nodes

    def elt(b):
        first, rest = b.factors
        return G.TensorElement((leaf(first), rest))

    def name(v):
        return v if v is None or v is G.CUT else elt(nodes[v].elt)

    graph = {elt(n.elt): (n.depth, n.wt, n.eps, n.phi, tuple(map(name, n.e_ids)),
                          tuple(map(name, n.f_ids)), n.frontier) for n in nodes}
    mapping = {u: name(v) for u, v in result.witness.mapping.items()}
    violations = []
    for v in result.report.violations:
        if v.law in ("e_commute", "f_commute", "e_zero", "f_zero"):
            v = v._replace(expected=name(v.expected), found=name(v.found))
        elif v.law == "injective":
            v = v._replace(found=name(v.found))
        elif v.law == "path_disagreement":
            v = v._replace(expected=(v.expected[0], elt(v.expected[1])),
                           found=(v.found[0], elt(v.found[1])))
        violations.append(v)
    report = result.report
    return graph, mapping, (violations, report.checked, report.skipped, report.coverage_errors)


def differences(binf):
    """(index, what) for every part of the two embeddings that differs,
    and the number of target nodes compared."""
    out, nodes = [], 0
    for i in binf.datum.indices():
        got = named(G.crystal_embedding(binf, i), lambda u: binf.nodes[u].elt)
        want = named(string_embedding(binf, i), lambda x: x)
        nodes += len(want[0])
        out += [(i, what) for what, a, b in zip(("target", "mapping", "report"), got, want)
                if a != b]
    return out, nodes


def rank2_differences():
    """(cartan, index, what) for every difference over the rank-2 data,
    and the number of target nodes compared."""
    bad, nodes = [], 0
    for k, datum in enumerate(small_data()):
        binf = G.realize_binfinity(datum, sequences(datum)[k % 3], 4)
        diffs, count = differences(binf)
        bad += [(datum.cartan, i, what) for i, what in diffs]
        nodes += count
    return bad, nodes


def monster_differences():
    model = make_toy_monster()
    return differences(G.realize_binfinity(model.datum, model.sequence, 4))[0]


def test_rank2_data_match_the_string_backed_product():
    assert rank2_differences() == ([], 8604)


def test_monster_datum_matches_the_string_backed_product():
    assert monster_differences() == []


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


# the datum on which each mutant is caught at index 1
CAUGHT_ON = {
    imaginary_raising_at_the_band_edge: ((2, 0), (0, 0)),
    imaginary_raising_without_dead_band: ((2, -1), (-1, -2)),
}


MUTANTS = pytest.mark.parametrize("mutant", [
    imaginary_raising_at_the_band_edge, imaginary_raising_without_dead_band,
], ids=["M3", "M4"])


@MUTANTS
def test_rank2_data_match_under_the_raising_mutants(monkeypatch, mutant):
    monkeypatch.setattr(tensor, "raising_side", mutant)
    assert rank2_differences()[0] == []


@MUTANTS
def test_monster_datum_matches_under_the_raising_mutants(monkeypatch, mutant):
    monkeypatch.setattr(tensor, "raising_side", mutant)
    assert monster_differences() == []


@MUTANTS
def test_the_embedding_catches_raising_mutants(monkeypatch, mutant):
    cartan = CAUGHT_ON[mutant]
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
