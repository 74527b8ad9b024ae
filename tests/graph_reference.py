"""Reference implementation of the JSON graph export.

``graph_to_json_dict`` is the payload builder the library used before
``graph_to_json`` wrote its text directly: it builds the whole payload
as nested dicts and lists, which the export then passed to
``json.dumps(payload, sort_keys=True, separators=(",", ":"))``.  It is
kept, unchanged, as the path the direct writer is diffed against
(``test_export_differential.py``); nothing in the library uses it.
"""

from gkmcrystals.cartan import ext_to_json
from gkmcrystals.graph import element_token


def graph_to_json_dict(graph) -> dict:
    datum = graph.datum
    names = datum.index_names
    nodes = []
    for k, node in enumerate(graph.nodes):
        nodes.append(
            {
                "id": k,
                "elt": element_token(node.elt, datum),
                "wt": {"lam": list(node.wt.lam), "rt": list(node.wt.rt)},
                "eps": {names[i]: ext_to_json(node.eps[i]) for i in range(datum.size)},
                "phi": {names[i]: ext_to_json(node.phi[i]) for i in range(datum.size)},
                "frontier": node.frontier,
            }
        )
    edges = [
        {"from": u, "to": v, "i": names[i]}
        for (u, i, v) in graph.edges()
    ]
    return {"root": graph.root, "nodes": nodes, "edges": edges}
