import pytest

import gkmcrystals as G


def make_d1():
    """Rank-2 datum [[2,-1],[-1,0]]: one real, one imaginary index."""
    return G.rank2_datum(G.Rank2Params(1, 1, 0))


def make_d2():
    """Rank-1 real datum [[2]]."""
    return G.make_datum(("1",), ((2,),))


def make_imaginary_only():
    """Single imaginary index with a_11 = 0."""
    return G.make_datum(("1",), ((0,),))


def make_huge():
    """Rank-2 datum [[2,-1],[-1,-10**400]]: an imaginary diagonal entry far
    past the float range, so any int-to-float conversion overflows."""
    return G.make_datum(("1", "2"), ((2, -1), (-1, -(10**400))), (1, 1))


def make_toy_monster():
    return G.MonsterModel(G.MonsterParams(2, (2, 1)))


def manual_graph(datum, weights, edges, root=0, elements=None, eps=None, phi=None):
    """Hand-build a graph from weights and lowering edges.

    ``edges`` is a list of (from_id, index, to_id); raising fans are the
    mirror of the lowering fans.  Statistics default to 0 everywhere and
    can be overridden per node.
    """
    graph = G.CrystalGraph(datum, None, depth_bound=None)
    for k, w in enumerate(weights):
        elt = elements[k] if elements is not None else ("node", k)
        node_id = graph.add_node(elt)
        node = graph.nodes[node_id]
        node.wt = w
        node.eps = tuple(eps[k]) if eps is not None else (0,) * datum.size
        node.phi = tuple(phi[k]) if phi is not None else (0,) * datum.size
        node.e_ids = tuple([None] * datum.size)
        node.f_ids = tuple([None] * datum.size)
    for u, i, v in edges:
        fu = list(graph.nodes[u].f_ids)
        fu[i] = v
        graph.nodes[u].f_ids = tuple(fu)
        ev = list(graph.nodes[v].e_ids)
        ev[i] = u
        graph.nodes[v].e_ids = tuple(ev)
    graph.root = root
    return graph


# faults planted in one node record, each with the structure error it gives
RECORD_FAULTS = {
    "short-eps": (lambda node: setattr(node, "eps", node.eps[:1]), "is missing cached statistics"),
    "no-weight": (lambda node: setattr(node, "wt", None), "has no weight of size"),
    "missing-target": (lambda node: setattr(node, "f_ids", (99,) + node.f_ids[1:]),
                       "f-edge to missing node 99"),
}


def plant_record_fault(graph, name, u=1):
    """Plant fault ``name`` of ``RECORD_FAULTS`` in node u; return the
    start of the error message it gives."""
    fault, message = RECORD_FAULTS[name]
    fault(graph.nodes[u])
    return f"node {u} {message}"


@pytest.fixture
def d1():
    return make_d1()


@pytest.fixture
def d2():
    return make_d2()


@pytest.fixture
def toy_monster():
    return make_toy_monster()
