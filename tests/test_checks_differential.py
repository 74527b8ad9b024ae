"""The direction-generic law checkers against the mirrored bodies they
replace (``checks_reference.py``): the full report -- the ordered
(node, index, law, expected, found) list, the coverage errors and the
checked and skipped counts -- of ``check_axioms``, ``check_morphism``
and ``highest_weight_projection`` on rank-2 and Monster B(infinity) and
B(lambda) graphs, random universes, every embedding witness, and
fault-injected copies of all of these."""

import random

import pytest

import gkmcrystals as G
from gkmcrystals.cartan import NEG_INF
from gkmcrystals.checks import MorphismWitness, check_morphism
from gkmcrystals.fuzzing import random_universe_graph
from gkmcrystals.graph import CUT, graph_from_universe

import checks_reference as ref
from conftest import make_d1, make_toy_monster


def facts(report):
    return (
        [(v.node, v.index, v.law, v.expected, v.found) for v in report.violations],
        report.coverage_errors,
        report.checked,
        report.skipped,
    )


# -- graphs -----------------------------------------------------------------


def rank2_binf():
    d1 = make_d1()
    return G.realize_binfinity(d1, G.cyclic_sequence(d1), 5)


def rank2_hw():
    d1 = make_d1()
    return G.realize_highest_weight(d1, G.cyclic_sequence(d1), d1.weight(lam=[1, 1]), 4)


def rank2_122_binf():
    datum = G.rank2_datum(G.Rank2Params(1, 2, 2))
    return G.realize_binfinity(datum, G.cyclic_sequence(datum), 5)


def monster_binf():
    model = make_toy_monster()
    return G.realize_binfinity(model.datum, model.sequence, 3)


def monster_hw():
    model = make_toy_monster()
    return G.realize_highest_weight(
        model.datum, model.sequence, model.datum.fundamental(0), 3
    )


def shift_graph():
    d1 = make_d1()
    shift = G.ShiftCrystal(d1, d1.weight(lam=[1, 0]))
    return graph_from_universe(shift, [shift.element()])


GRAPHS = {
    "rank2-binf": rank2_binf,
    "rank2-hw": rank2_hw,
    "rank2-122-binf": rank2_122_binf,
    "monster-binf": monster_binf,
    "monster-hw": monster_hw,
    "shift": shift_graph,
}


def random_graphs():
    """Fresh copies of the random universes of seeds 0-39 on both data."""
    for datum in (make_d1(), make_toy_monster().datum):
        for seed in range(40):
            yield random_universe_graph(random.Random(seed), datum)


# -- faults -------------------------------------------------------------------


def _set(node, attr, j, value):
    entries = list(getattr(node, attr))
    entries[j] = value
    setattr(node, attr, tuple(entries))


def _sites(graph, step):
    size = graph.datum.size
    return [(k, graph.nodes[k], k % size) for k in range(0, len(graph.nodes), step)]


def corrupt_phi(graph):
    for _, node, j in _sites(graph, 5):
        _set(node, "phi", j, node.phi[j] + 1)


def corrupt_eps(graph):
    for _, node, j in _sites(graph, 4):
        _set(node, "eps", j, node.eps[j] - 1)


def corrupt_weight(graph):
    for _, node, j in _sites(graph, 4):
        node.wt = node.wt + graph.datum.alpha(j)


def move_lam(graph):
    """One node's lam part moved and its rt kept: the first node whose
    weight an earlier node shares (node 0 if none does), so that a table
    keyed by the rt part alone would hand it its twin's entry."""
    seen, k = set(), 0
    for u, node in enumerate(graph.nodes):
        if node.wt in seen:
            k = u
            break
        seen.add(node.wt)
    node = graph.nodes[k]
    node.wt = node.wt + graph.datum.fundamental(k % graph.datum.size)


def corrupt_fan(graph):
    n = len(graph.nodes)
    for k, node, j in _sites(graph, 3):
        attr = "f_ids" if k % 2 else "e_ids"
        v = getattr(node, attr)[j]
        _set(node, attr, j, (v + 1) % n if isinstance(v, int) else graph.root)


def break_duality(graph):
    for k, node, j in _sites(graph, 3):
        attr = "e_ids" if k % 2 else "f_ids"
        if isinstance(getattr(node, attr)[j], int):
            _set(node, attr, j, None)


def dead_end(graph):
    for _, node, j in _sites(graph, 3):
        _set(node, "phi", j, NEG_INF)


def cut_fans(graph):
    for k, node, j in _sites(graph, 2):
        _set(node, "e_ids" if k % 4 else "f_ids", j, CUT)


FAULTS = {
    "phi": corrupt_phi,
    "eps": corrupt_eps,
    "weight": corrupt_weight,
    "lam": move_lam,
    "fan": corrupt_fan,
    "duality": break_duality,
    "dead-end": dead_end,
    "cut": cut_fans,
}


def test_faults_are_seen():
    """Each fault makes the reference report a violation on each
    generated graph, so the comparisons below compare more than clean
    reports (the one-node shift graph has phi = -inf throughout)."""
    for name, make in GRAPHS.items():
        if name == "shift":
            continue
        for fault_name, fault in FAULTS.items():
            if fault_name == "cut":
                continue
            graph = make()
            fault(graph)
            assert ref.check_axioms(graph).violations, (name, fault_name)


# -- check_axioms -------------------------------------------------------------


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("fault_name", [None, *sorted(FAULTS)])
def test_axioms(graph_name, fault_name):
    graph = GRAPHS[graph_name]()
    if fault_name is not None:
        FAULTS[fault_name](graph)
    assert facts(G.check_axioms(graph)) == facts(ref.check_axioms(graph))


def test_axioms_random_universes():
    for graph in random_graphs():
        assert facts(G.check_axioms(graph)) == facts(ref.check_axioms(graph))
        for fault in FAULTS.values():
            fault(graph)
            assert facts(G.check_axioms(graph)) == facts(ref.check_axioms(graph))


# -- check_morphism -----------------------------------------------------------


def embeddings():
    """(name, witness, source, target) of every embedding witness."""
    out = []
    for name, make in (("rank2", rank2_binf), ("monster", monster_binf)):
        binf = make()
        for i in binf.datum.indices():
            result = G.crystal_embedding(binf, i)
            out.append((f"{name}-crystal-{i}", result.witness, result.source, result.target))
    d1, model = make_d1(), make_toy_monster()
    for name, datum, seq, depth in (
        ("rank2", d1, G.cyclic_sequence(d1), 3),
        ("monster", model.datum, model.sequence, 2),
    ):
        result = G.tensor_decomposition_embedding(
            datum, seq, datum.fundamental(0), datum.fundamental(1), depth
        )
        out.append((f"{name}-decomposition", result.witness, result.source, result.target))
    return out


def wrong_mapping(witness, src, dst):
    mapping = dict(witness.mapping)
    keys = sorted(mapping)
    for a, b in zip(keys[1::6], keys[2::6]):
        mapping[a], mapping[b] = mapping[b], mapping[a]
    witness.mapping = mapping


def non_injective(witness, src, dst):
    """Collide targets, in a mapping whose keys are not in node order."""
    mapping = dict(witness.mapping)
    keys = sorted(mapping)
    for a, b in zip(keys[::5], keys[1::5]):
        mapping[b] = mapping[a]
    witness.mapping = dict(reversed(mapping.items()))


def missing_nodes(witness, src, dst):
    mapping = dict(witness.mapping)
    keys = sorted(mapping)
    for u in keys[::7]:
        del mapping[u]
    mapping[keys[1]] = len(dst.nodes) + 3
    witness.mapping = mapping


def strict_zero_break(witness, src, dst):
    for u in sorted(witness.mapping)[::2]:
        if witness.mapping[u] >= len(dst.nodes):
            continue
        node, img = src.nodes[u], dst.nodes[witness.mapping[u]]
        for j in range(src.datum.size):
            for attr in ("e_ids", "f_ids"):
                if getattr(node, attr)[j] is None and getattr(img, attr)[j] is None:
                    _set(img, attr, j, dst.root)


def lax_witness(witness, src, dst):
    witness.strict = False
    witness.embedding = False


def shifted_witness(witness, src, dst):
    witness.weight_shift = src.datum.fundamental(0)


def target_fan_faults(witness, src, dst):
    corrupt_fan(dst)
    cut_fans(dst)


MORPHISM_FAULTS = {
    "wrong-mapping": wrong_mapping,
    "non-injective": non_injective,
    "missing": missing_nodes,
    "strict-zero": strict_zero_break,
    "lax": lax_witness,
    "shifted": shifted_witness,
    "target-fans": target_fan_faults,
}


def compare_morphism(witness, src, dst):
    assert facts(check_morphism(witness, src, dst)) == facts(
        ref.check_morphism(witness, src, dst)
    )


def test_morphism_faults_are_seen():
    name, witness, src, dst = embeddings()[0]
    assert not ref.check_morphism(witness, src, dst).violations
    for fault_name, fault in MORPHISM_FAULTS.items():
        if fault_name == "lax":
            continue
        name, witness, src, dst = embeddings()[0]
        fault(witness, src, dst)
        report = ref.check_morphism(witness, src, dst)
        assert report.violations or report.coverage_errors, fault_name


@pytest.mark.parametrize("fault_name", [None, *sorted(MORPHISM_FAULTS)])
def test_morphism_embedding_witnesses(fault_name):
    for _, witness, src, dst in embeddings():
        if fault_name is not None:
            MORPHISM_FAULTS[fault_name](witness, src, dst)
        compare_morphism(witness, src, dst)


@pytest.mark.parametrize("fault_name", [None, *sorted(MORPHISM_FAULTS)])
def test_morphism_identity_on_random_universes(fault_name):
    for graph in random_graphs():
        mapping = {u: u for u in range(len(graph.nodes))}
        witness = MorphismWitness(mapping, strict=True, embedding=True)
        if fault_name is not None and len(mapping) > 2:
            MORPHISM_FAULTS[fault_name](witness, graph, graph)
        compare_morphism(witness, graph, graph)


# -- highest_weight_projection ------------------------------------------------


def projection_pair(name):
    if name == "rank2":
        d1 = make_d1()
        seq = G.cyclic_sequence(d1)
        return G.realize_highest_weight(d1, seq, d1.weight(lam=[1, 1]), 4), rank2_binf()
    return monster_hw(), monster_binf()


def tamper_ids(hw, binf):
    """Two hw nodes project to one B(infinity) node; one has no image."""
    xs = [node.elt.factors[0] for node in hw.nodes]
    binf.ids[xs[2]] = binf.ids[xs[1]]
    del binf.ids[xs[3]]


def projection_fans(hw, binf):
    corrupt_fan(binf)
    break_duality(hw)
    cut_fans(binf)


def projection_root(hw, binf):
    hw.root = 1


PROJECTION_FAULTS = {
    "ids": tamper_ids,
    "fans": projection_fans,
    "weights": lambda hw, binf: corrupt_weight(binf),
    "eps": lambda hw, binf: corrupt_eps(hw),
    "root": projection_root,
}


@pytest.mark.parametrize("pair", ["rank2", "monster"])
@pytest.mark.parametrize("fault_name", [None, *sorted(PROJECTION_FAULTS)])
def test_projection(pair, fault_name):
    hw, binf = projection_pair(pair)
    if fault_name is not None:
        PROJECTION_FAULTS[fault_name](hw, binf)
    result = G.highest_weight_projection(hw, binf)
    witness, report = ref.highest_weight_projection(hw, binf)
    assert facts(result.report) == facts(report)
    assert result.witness == witness
    if fault_name is not None:
        assert report.violations
