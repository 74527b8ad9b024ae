"""The direct JSON writer ``graph_to_json`` against the payload builder
it replaces (``graph_reference.py``) passed through ``json.dumps`` with
sorted keys and compact separators: byte for byte on B(infinity) and
B(lambda) truncations, on the targets of both embedding witnesses, on
universes of shift and elementary crystals (whose statistics hold -inf),
on hand-built graphs, and on data whose index names need escaping."""

import json
import random

import pytest

import gkmcrystals as G
from gkmcrystals.cartan import NEG_INF
from gkmcrystals.fuzzing import random_factor_graph, random_universe_graph
from gkmcrystals.graph import graph_to_json_dict

import graph_reference as ref
from conftest import make_d1, make_huge, make_toy_monster, manual_graph


def reference_json(graph) -> str:
    return json.dumps(ref.graph_to_json_dict(graph), sort_keys=True, separators=(",", ":")) + "\n"


def assert_same_export(graph):
    text = G.graph_to_json(graph)
    assert text == reference_json(graph)
    assert graph_to_json_dict(graph) == json.loads(reference_json(graph))
    return text


def rank2():
    d = make_d1()
    return d, G.cyclic_sequence(d), d.weight(lam=(1, 1))


def monster():
    model = make_toy_monster()
    return model.datum, model.sequence, model.datum.fundamental(0)


def huge():
    d = make_huge()
    return d, G.cyclic_sequence(d), d.weight(lam=(1, 0))


def escaped():
    """Index names that JSON must escape: a non-ASCII letter, a quote and
    a backslash, and a percent sign the writer must not read as a
    format; they also sort differently from their index order."""
    d = G.make_datum(["α", 'b"2', "\\z", "%d%%"],
                     [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 0, -2], [-1, 0, -2, -2]])
    return d, G.cyclic_sequence(d), d.fundamental(0) + d.fundamental(1)


DATA = [rank2, monster, huge, escaped]
IDS = ["rank2-110", "monster-2-21", "huge", "escaped-names"]


@pytest.mark.parametrize("make", DATA, ids=IDS)
def test_binfinity(make):
    datum, seq, _ = make()
    graph = G.realize_binfinity(datum, seq, 4)
    assert any(node.frontier for node in graph.nodes)
    assert any(not node.frontier for node in graph.nodes)
    assert_same_export(graph)


@pytest.mark.parametrize("make", DATA, ids=IDS)
def test_highest_weight(make):
    datum, seq, lam = make()
    assert_same_export(G.realize_highest_weight(datum, seq, lam, 3))


@pytest.mark.parametrize("make", DATA, ids=IDS)
def test_crystal_embedding_targets(make):
    datum, seq, _ = make()
    source = G.realize_binfinity(datum, seq, 3)
    for i in datum.indices():
        assert_same_export(G.crystal_embedding(source, i).target)


@pytest.mark.parametrize("make", DATA, ids=IDS)
def test_tensor_decomposition_targets(make):
    datum, seq, lam = make()
    result = G.tensor_decomposition_embedding(datum, seq, lam, datum.fundamental(0), 2)
    assert_same_export(result.source)
    assert_same_export(result.target)


@pytest.mark.parametrize("make", DATA, ids=IDS)
def test_shift_and_elementary_universes(make):
    datum = make()[0]
    shift = G.ShiftCrystal(datum, datum.fundamental(0))
    text = assert_same_export(G.graph_from_universe(shift, [shift.element()]))
    assert '"-inf"' in text
    for i in datum.indices():
        c = G.ElementaryCrystal(datum, i)
        graph = G.graph_from_universe(c, [c.element(n) for n in range(4)])
        assert '"-inf"' in assert_same_export(graph)
        product = G.TensorCrystal(c, shift)
        assert_same_export(G.graph_from_universe(
            product, [product.element(c.element(n), shift.element()) for n in range(3)]))


@pytest.mark.parametrize("make", DATA, ids=IDS)
def test_random_universes(make):
    datum = make()[0]
    rng = random.Random(19)
    for _ in range(25):
        assert_same_export(random_universe_graph(rng, datum))
        assert_same_export(random_factor_graph(rng, datum))


def test_hand_built_graph():
    """Elements whose repr needs escaping, -inf next to ints of any
    size, frontier flags on and off, and a root other than node 0."""
    datum = escaped()[0]
    weights = [datum.weight(lam=(1, 0, 0, 0)), datum.weight(rt=(-1, 0, 0, -(10**30)))]
    eps = [(NEG_INF, 0, 3, -(10**400)), (1, NEG_INF, NEG_INF, 2)]
    graph = manual_graph(datum, weights, [(1, 3, 0)], root=1,
                         elements=["Ω\n", ("q\"", "\\")], eps=eps, phi=eps[::-1])
    graph.nodes[0].frontier = True
    assert_same_export(graph)


def test_equal_root_parts_with_different_lam():
    """Two nodes whose weights share their rt part and differ in lam each
    print their own lam, whichever is written first."""
    datum = make_d1()
    rt = (-1, -2)
    weights = [datum.weight(lam=(1, 0), rt=rt), datum.weight(lam=(0, 3), rt=rt),
               datum.weight(lam=(1, 0), rt=rt)]
    text = assert_same_export(manual_graph(datum, weights, [(0, 1, 1)]))
    assert text.count('"lam":[1,0]') == 2 and text.count('"lam":[0,3]') == 1


def test_escaped_names_in_the_payload():
    datum, seq, _ = escaped()
    payload = graph_to_json_dict(G.realize_binfinity(datum, seq, 1))
    assert list(payload["nodes"][0]["eps"]) == sorted(datum.index_names)
    assert {edge["i"] for edge in payload["edges"]} == set(datum.index_names)
    assert G.graph_to_json(G.realize_binfinity(datum, seq, 1)).isascii()
