"""The tuple-backed ``Weight`` against the dataclass it replaces
(``cartan_reference.py``).

Every operation on random weights of sizes 1-5, with entries in
[-50, 50] and +-10**400, gives the same value, hash, repr and str, or
raises the same exception type; copies and pickles give back equal
weights of the same class.  Every node weight of B(infinity), B(lambda)
and ``crystal_embedding`` graphs, which the library builds without
re-validation, equals the reference weight recomputed from the node's
element and the index sequence alone."""

import copy
import operator
import pickle
import random

import pytest

import gkmcrystals as G
from gkmcrystals.cartan import Weight

import cartan_reference as ref
from conftest import make_d1, make_huge, make_toy_monster

ENTRIES = [*range(-50, 51), 10**400, -(10**400)]


def random_coords(rng, size):
    """Coordinates with about half their entries zero, so that zero
    parts and zero weights come up."""
    return tuple(rng.choice(ENTRIES) if rng.random() < 0.5 else 0 for _ in range(size))


def random_pair(rng, size=None):
    """The same random weight as a library and as a reference weight."""
    size = size if size is not None else rng.randint(1, 5)
    lam, rt = random_coords(rng, size), random_coords(rng, size)
    return Weight(lam, rt), ref.Weight(lam, rt)


def outcome(op, *args):
    """What ``op(*args)`` gives: a weight of either class as its class
    name, coordinates and their exact types; an exception as its type;
    anything else as its type and value."""
    try:
        value = op(*args)
    except Exception as exc:
        return ("raises", type(exc))
    if isinstance(value, (Weight, ref.Weight)):
        coords = (value.lam, value.rt)
        return (type(value).__name__, coords, {type(c) for part in coords for c in part})
    return (type(value), value)


UNARY = {
    "neg": operator.neg,
    "is_zero": lambda w: w.is_zero(),
    "root_height": lambda w: w.root_height(),
    "sort_key": lambda w: w.sort_key(),
    "hash": hash,
    "repr": repr,
    "str": str,
    "lam": lambda w: w.lam,
    "rt": lambda w: w.rt,
}
BINARY = {"+": operator.add, "-": operator.sub, "==": operator.eq, "!=": operator.ne}


@pytest.mark.parametrize("name", sorted(UNARY))
def test_unary_operations_agree(name):
    rng = random.Random(1)
    op = UNARY[name]
    pairs = [random_pair(rng) for _ in range(500)]
    pairs += [(Weight.zero(n), ref.Weight.zero(n)) for n in range(1, 6)]
    bad = [(old, outcome(op, new), outcome(op, old))
           for new, old in pairs if outcome(op, new) != outcome(op, old)]
    assert bad == []


def test_scaled_agrees():
    rng = random.Random(2)
    bad = []
    for _ in range(500):
        new, old = random_pair(rng)
        for k in (rng.choice(ENTRIES), 0, 1, -1):
            a, b = outcome(new.scaled, k), outcome(old.scaled, k)
            if a != b:
                bad.append((old, k, a, b))
    assert bad == []


@pytest.mark.parametrize("name", sorted(BINARY))
def test_binary_operations_agree(name):
    """Same-size pairs, equal pairs and mismatched sizes."""
    rng = random.Random(3)
    op = BINARY[name]
    bad = []
    for _ in range(500):
        size = rng.randint(1, 5)
        (x, x_ref), (y, y_ref) = random_pair(rng, size), random_pair(rng, size)
        (z, z_ref) = random_pair(rng, rng.choice([s for s in range(1, 7) if s != size]))
        cases = [(x, y, x_ref, y_ref), (x, x, x_ref, x_ref),
                 (x, Weight(*x), x_ref, ref.Weight(x.lam, x.rt)), (x, z, x_ref, z_ref)]
        for a, b, a_ref, b_ref in cases:
            new, old = outcome(op, a, b), outcome(op, a_ref, b_ref)
            if new != old:
                bad.append((a_ref, b_ref, new, old))
    assert bad == []


def test_mismatched_sizes_name_both_sizes():
    for op in (operator.add, operator.sub):
        with pytest.raises(ValueError, match="weight sizes differ: 2 and 3"):
            op(Weight((1, 0), (0, 0)), Weight((1, 0, 0), (0, 0, 0)))


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda w: pickle.loads(pickle.dumps(w))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_agree(clone):
    rng = random.Random(0)
    for _ in range(30):
        new, old = random_pair(rng)
        assert outcome(clone, new) == outcome(clone, old)
        assert type(clone(new)) is Weight
        assert clone(new) == new and hash(clone(new)) == hash(new)


def test_results_are_weights_of_exact_ints():
    """The unvalidated results are ``Weight`` instances with tuple parts
    of plain ints, as the validating constructor would build them."""
    w, v = Weight((1, -2), (10**400, 0)), Weight((0, 3), (-1, 5))
    for result in (w + v, w - v, -w, w.scaled(-3)):
        assert type(result) is Weight
        assert type(result.lam) is tuple and type(result.rt) is tuple
        assert all(type(c) is int for c in (*result.lam, *result.rt))
        assert Weight(result.lam, result.rt) == result


# -- node weights of generated graphs --------------------------------------

def ref_alpha(size, i):
    return ref.Weight((0,) * size, tuple(int(j == i) for j in range(size)))


def ref_weight(datum, seq, elt):
    """The weight of an element, recomputed with the reference class
    from the element and the index sequence alone."""
    size = datum.size
    if isinstance(elt, G.TensorElement):
        total = ref.Weight.zero(size)
        for factor in elt.factors:
            total = total + ref_weight(datum, seq, factor)
        return total
    if isinstance(elt, G.StringElement):
        total = ref.Weight.zero(size)
        for k, v in enumerate(elt.x, start=1):
            total = total + ref_alpha(size, seq.at(k)).scaled(-v)
        return total
    if isinstance(elt, G.ElementaryElement):
        return ref_alpha(size, elt.index).scaled(-elt.steps)
    if isinstance(elt, G.ShiftElement):
        return ref.Weight(elt.weight.lam, elt.weight.rt)
    if isinstance(elt, G.UnitElement):
        return ref.Weight.zero(size)
    raise TypeError(f"not a crystal element: {elt!r}")


def assert_node_weights(graph, seq, element=lambda elt: elt):
    """``element`` reads a node's element as one of the library's."""
    assert len(graph.nodes) > 1
    for node in graph.nodes:
        elt = element(node.elt)
        want = ref_weight(graph.datum, seq, elt)
        assert type(node.wt) is Weight
        assert (node.wt.lam, node.wt.rt) == (want.lam, want.rt), elt
        assert hash(node.wt) == hash(want) and repr(node.wt) == repr(want)


def _rank2():
    datum = make_d1()
    return datum, G.cyclic_sequence(datum), datum.weight(lam=[1, 1]), 6


def _monster():
    model = make_toy_monster()
    return model.datum, model.sequence, model.datum.fundamental(0), 4


def _huge():
    datum = make_huge()
    return datum, G.cyclic_sequence(datum), datum.weight(lam=[1, 0]), 4


DATA = {"rank2-110": _rank2, "monster-2-21": _monster, "huge": _huge}


@pytest.mark.parametrize("name", sorted(DATA))
def test_binfinity_node_weights(name):
    datum, seq, _, depth = DATA[name]()
    assert_node_weights(G.realize_binfinity(datum, seq, depth), seq)


@pytest.mark.parametrize("name", sorted(DATA))
def test_highest_weight_node_weights(name):
    datum, seq, lam, depth = DATA[name]()
    assert_node_weights(G.realize_highest_weight(datum, seq, lam, depth), seq)


@pytest.mark.parametrize("name", sorted(DATA))
def test_embedding_node_weights(name):
    datum, seq, _, depth = DATA[name]()
    binf = G.realize_binfinity(datum, seq, depth - 2)

    def element(elt):  # (node id, b_i(-n)) read as (string, b_i(-n))
        u, b = elt.factors
        return G.TensorElement((binf.nodes[u].elt, b))

    for i in datum.indices():
        result = G.crystal_embedding(binf, i)
        assert result.report.ok, result.report.lines()
        assert_node_weights(result.target, seq, element)
