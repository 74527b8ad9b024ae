"""Finite crystal graphs with cached statistics.

A graph holds the elements produced by a bounded generation pass, the
full lowering fan of every interior node, the raising results of every
node, and cached wt / eps / phi.  A node's cached statistics and both
of its fans come from one ``crystal.stats`` call.  Truncation is
explicit: lowering successors that fall outside the generated set are
recorded as CUT and any check that would need them is skipped, never
guessed.

Two generation modes:

* ``bfs_component``     -- all elements reachable from a root by at most
  ``depth`` lowerings, expanded in index order, node ids assigned layer
  by layer in element order (deterministic, stable across runs);
* ``graph_from_universe`` -- an explicitly given finite element set,
  used to audit products of truncated crystals.

The other way round, ``GraphCrystal`` reads a graph's tables in place as
a crystal on its node ids, CUT included, so a product can take any
validated graph as a factor (the B(infinity) embedding check does).

Raising is expected to stay inside a generated component; a raising
result outside the node set is recorded in ``closure_failures`` (for a
component, that indicates an operator bug).

The JSON export is written directly, one format string per node and
per edge, with each distinct weight's text written once and reused; it
is byte-identical to ``json.dumps`` of its payload with sorted keys,
compact separators and ASCII escapes, and ``graph_to_json_dict`` is
its parse.  The DOT export likewise writes each distinct label once.
"""

from __future__ import annotations

import json
from collections import Counter
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .cartan import NEG_INF, Weight, ext_to_json, is_int
from .crystals import (
    Crystal,
    ElementaryElement,
    ShiftElement,
    StringElement,
    TensorElement,
    UnitElement,
    sort_key,
)


class GraphStructureError(ValueError):
    """A graph whose node or edge tables are internally inconsistent."""


class _CutType:
    """Marker for a lowering/raising result cut off by the truncation."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "CUT"


CUT = _CutType()


class NodeRecord:
    __slots__ = ("elt", "depth", "wt", "eps", "phi", "e_ids", "f_ids", "frontier")

    def __init__(self, elt, depth=None):
        self.elt = elt
        self.depth = depth
        self.wt = None
        self.eps = None
        self.phi = None
        self.e_ids = None
        self.f_ids = None
        self.frontier = False


class CrystalGraph:
    """Rooted, edge-labeled digraph of crystal elements.

    ``nodes[k]`` is the record of node id k; ``ids`` maps elements back
    to ids.  Edges are implicit in the per-node lowering fans and can be
    iterated with :meth:`edges`.  Graphs are built single-threaded and
    should be treated as immutable afterwards (tests that inject faults
    mutate records deliberately).
    """

    def __init__(self, datum, crystal=None, depth_bound=None):
        self.datum = datum
        self.crystal = crystal
        self.depth_bound = depth_bound
        self.root = 0
        self.nodes = []
        self.ids = {}
        self.closure_failures = []

    def __len__(self):
        return len(self.nodes)

    def add_node(self, elt, depth=None) -> int:
        if elt in self.ids:
            raise GraphStructureError(f"duplicate node {elt!r}")
        node_id = len(self.nodes)
        self.ids[elt] = node_id
        self.nodes.append(NodeRecord(elt, depth))
        return node_id

    def elements(self):
        return [n.elt for n in self.nodes]

    def edges(self):
        """Yield (from_id, index, to_id) for every known lowering edge, sorted."""
        for u, node in enumerate(self.nodes):
            for i, v in enumerate(node.f_ids):
                if v is not None and v is not CUT:
                    yield (u, i, v)

    def in_edges(self):
        """Map node id -> sorted list of (parent_id, index); ``edges``
        yields them in that order."""
        incoming = {u: [] for u in range(len(self.nodes))}
        for u, i, v in self.edges():
            incoming[v].append((u, i))
        return incoming


def _annotate(graph, u, stats) -> tuple:
    """Cache node u's wt / eps / phi and map its raising fan to node ids,
    all from the node's ``crystal.stats`` tuple; return its lowering
    targets."""
    node = graph.nodes[u]
    node.wt, node.eps, node.phi, e_targets, f_targets = stats
    get = graph.ids.get
    e_ids = []
    for i, r in enumerate(e_targets):
        if r is None:
            e_ids.append(None)
            continue
        v = get(r)
        if v is None:
            v = CUT
            graph.closure_failures.append((u, i, r))
        e_ids.append(v)
    node.e_ids = tuple(e_ids)
    return f_targets


def bfs_component(crystal, root, depth: int) -> CrystalGraph:
    """Generate all elements within ``depth`` lowerings of ``root``.

    Layers are expanded in index order and each new layer is sorted by
    element order before ids are assigned, so ids, edges and exports are
    reproducible byte for byte.  Each node is read with one
    ``crystal.stats`` call, whose lowering targets both expand the next
    layer and, once its ids exist, fill the node's lowering fan; only one
    layer of unmapped targets is held at a time.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    graph = CrystalGraph(crystal.datum, crystal, depth_bound=depth)
    ids, nodes = graph.ids, graph.nodes
    stats = crystal.stats
    graph.add_node(root, depth=0)
    layer = [0]
    for d in range(depth + 1):
        found = {}
        pending = []  # (node id, lowering targets) awaiting the next layer's ids
        for u in layer:
            targets = _annotate(graph, u, stats(nodes[u].elt))
            if d == depth:
                nodes[u].f_ids = tuple(None if r is None else CUT for r in targets)
                nodes[u].frontier = True
            else:
                pending.append(
                    (u, [r if r is None or r in ids else found.setdefault(r, r) for r in targets])
                )
        # the new layer's elements are keys of ``found`` and none is in
        # ``ids``, so they are appended without the duplicate check
        start = len(nodes)
        for elt in sorted(found, key=sort_key):
            ids[elt] = len(nodes)
            nodes.append(NodeRecord(elt, d + 1))
        for u, targets in pending:
            nodes[u].f_ids = tuple(None if r is None else ids[r] for r in targets)
        layer = range(start, len(nodes))
        if not layer:
            break
    # a raising result generated after its node was annotated (only an
    # operator that breaks the weight rule returns one) is mapped now
    failures, graph.closure_failures = graph.closure_failures, []
    for u, i, r in failures:
        if r in ids:
            e_ids = list(nodes[u].e_ids)
            e_ids[i] = ids[r]
            nodes[u].e_ids = tuple(e_ids)
        else:
            graph.closure_failures.append((u, i, r))
    return graph


def graph_from_universe(crystal, elements) -> CrystalGraph:
    """Graph over an explicit finite element set (no reachability claim).

    Operator results outside the set are recorded as CUT; a node with a
    cut lowering entry is flagged frontier.
    """
    graph = CrystalGraph(crystal.datum, crystal, depth_bound=None)
    for elt in sorted(set(elements), key=sort_key):
        graph.add_node(elt)
    if not graph.nodes:
        raise ValueError("universe must be nonempty")
    for u, node in enumerate(graph.nodes):
        targets = _annotate(graph, u, crystal.stats(node.elt))
        node.f_ids = tuple(None if r is None else graph.ids.get(r, CUT) for r in targets)
        node.frontier = CUT in node.f_ids
    return graph


def validate_structure(graph):
    """Raise GraphStructureError unless all node/edge tables are sane."""
    n, size = len(graph.nodes), graph.datum.size
    if not 0 <= graph.root < n:
        raise GraphStructureError(f"root id {graph.root} out of range")
    for u, node in enumerate(graph.nodes):
        for label, fan in (("e", node.e_ids), ("f", node.f_ids)):
            if fan is None or len(fan) != size:
                raise GraphStructureError(f"node {u} has a malformed {label}-fan")
            for v in fan:
                if v is None or v is CUT:
                    continue
                if not (is_int(v) and 0 <= v < n):
                    raise GraphStructureError(f"node {u} {label}-edge to missing node {v!r}")
        if node.eps is None or node.phi is None or not len(node.eps) == len(node.phi) == size:
            raise GraphStructureError(f"node {u} is missing cached statistics")
        if not isinstance(node.wt, Weight) or len(node.wt.lam) != size:
            raise GraphStructureError(f"node {u} has no weight of size {size}")


class GraphCrystal(Crystal):
    """The crystal on a graph's node ids, read in place: node u has the
    graph's cached wt, eps and phi, and e_i u and f_i u are the ids in
    its fans as stored (an id, None or CUT).  No element is read, so it
    takes any graph that passes ``validate_structure``."""

    def __init__(self, graph: CrystalGraph):
        validate_structure(graph)
        super().__init__(graph.datum)
        self.nodes = graph.nodes

    def wt(self, u):
        return self.nodes[u].wt

    def eps(self, i, u):
        return self.nodes[u].eps[i]

    def phi(self, i, u):
        return self.nodes[u].phi[i]

    def e(self, i, u):
        return self.nodes[u].e_ids[i]

    def f(self, i, u):
        return self.nodes[u].f_ids[i]


def weight_token(w: Weight) -> str:
    return "[%s|%s]" % (",".join(map(str, w.lam)), ",".join(map(str, w.rt)))


def element_token(elt, datum) -> str:
    """Compact printable form of an element (export and diagnostics)."""
    if isinstance(elt, ElementaryElement):
        return "b%s(-%d)" % (datum.index_names[elt.index], elt.steps)
    if isinstance(elt, ShiftElement):
        return "t" + weight_token(elt.weight)
    if isinstance(elt, UnitElement):
        return "c"
    if isinstance(elt, StringElement):
        return "x[%s]" % ",".join(map(str, elt.x))
    if isinstance(elt, TensorElement):
        return "*".join(element_token(f, datum) for f in elt.factors)
    return repr(elt)


def graph_to_json(graph) -> str:
    """The JSON export, written directly: byte-identical to ``json.dumps``
    of the payload with sorted keys, compact separators and ASCII
    escapes (the escaper ``json.dumps`` uses), -inf written as "-inf"."""
    datum = graph.datum
    names = [encode_basestring_ascii(name) for name in datum.index_names]
    order = sorted(datum.indices(), key=datum.index_names.__getitem__)
    pick = itemgetter(*order)
    ints = ",".join("%s:%%d" % names[i].replace("%", "%%") for i in order)

    def ext_map(values):
        if NEG_INF in values:  # rare: leave -inf to ext_to_json
            return ",".join("%s:%s" % (names[i], json.dumps(ext_to_json(values[i]))) for i in order)
        return ints % pick(values)

    parts = []
    wt_texts = {w: '{"lam":[%s],"rt":[%s]}' % (",".join(map(str, w.lam)), ",".join(map(str, w.rt)))
                for w in {node.wt for node in graph.nodes}}
    for k, node in enumerate(graph.nodes):
        parts.append(
            '{"elt":%s,"eps":{%s},"frontier":%s,"id":%d,"phi":{%s},"wt":%s}' % (
                encode_basestring_ascii(element_token(node.elt, datum)),
                ext_map(node.eps),
                "true" if node.frontier else "false",
                k,
                ext_map(node.phi),
                wt_texts[node.wt],
            )
        )
    nodes = ",".join(parts)
    edges = ",".join('{"from":%d,"i":%s,"to":%d}' % (u, names[i], v) for u, i, v in graph.edges())
    return '{"edges":[%s],"nodes":[%s],"root":%d}\n' % (edges, nodes, graph.root)


def graph_to_json_dict(graph) -> dict:
    """The JSON export's payload: the parse of :func:`graph_to_json`."""
    return json.loads(graph_to_json(graph))


def graph_to_dot(graph) -> str:
    """DOT export: nodes labeled by the root-coefficient vector of wt,
    edges labeled by the index name, quoted and escaped as a JSON string."""
    lines = ["digraph crystal {"]
    labels = [json.dumps(name, ensure_ascii=False) for name in graph.datum.index_names]
    rt_labels = {rt: "[%s]" % ",".join(map(str, rt)) for rt in {node.wt.rt for node in graph.nodes}}
    for k, node in enumerate(graph.nodes):
        shape = ' shape=box' if node.frontier else ""
        lines.append('  n%d [label="%s"%s];' % (k, rt_labels[node.wt.rt], shape))
    for u, i, v in graph.edges():
        lines.append('  n%d -> n%d [label=%s];' % (u, v, labels[i]))
    lines.append("}")
    return "\n".join(lines) + "\n"


def canonical_form(graph) -> dict:
    """Key every node by its minimal lowering-label path from the root.

    Paths are compared by (length, labels); for the graphs produced here
    all paths to a node have equal length, so this is the lexicographic
    minimum.  Raises if some node is unreachable along known edges.
    """
    out_edges = {u: [] for u in range(len(graph.nodes))}
    for u, i, v in graph.edges():
        out_edges[u].append((i, v))
    assigned = {graph.root: ()}
    current = {graph.root: ()}
    while current:
        upcoming = {}
        for u, path in current.items():
            for i, v in out_edges[u]:
                if v in assigned:
                    continue
                cand = path + (i,)
                if v not in upcoming or cand < upcoming[v]:
                    upcoming[v] = cand
        assigned.update(upcoming)
        current = upcoming
    if len(assigned) != len(graph.nodes):
        missing = sorted(set(range(len(graph.nodes))) - set(assigned))
        raise GraphStructureError(f"nodes unreachable from the root: {missing}")
    return assigned


def graphs_isomorphic(g1, g2) -> bool:
    """Rooted edge-labeled isomorphism via canonical path labels."""
    c1, c2 = canonical_form(g1), canonical_form(g2)
    if set(c1.values()) != set(c2.values()):
        return False
    e1 = {(c1[u], i, c1[v]) for (u, i, v) in g1.edges()}
    e2 = {(c2[u], i, c2[v]) for (u, i, v) in g2.edges()}
    return e1 == e2


def weight_multiplicities(weights):
    """Sorted (weight, multiplicity) table of an iterable of weights; a
    graph stands for the weights of its nodes."""
    if isinstance(weights, CrystalGraph):
        weights = (node.wt for node in weights.nodes)
    return sorted(Counter(weights).items(), key=lambda kv: kv[0].sort_key())
