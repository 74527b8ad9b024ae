"""Per-layer tracing of gkmcrystals from outside the library.

``Tracer.install`` replaces the traced functions and methods of
``gkmcrystals`` by wrappers and ``Tracer.uninstall`` puts the originals
back.  ``cli`` and ``closed_form`` import names directly, so a
module-level function is patched in every ``gkmcrystals`` namespace
that holds a reference to it; methods are patched on their class.

Three kinds of wrapper:

* ``span``  -- stage functions: a span (name, start, end, parent, job)
  is kept in memory, its self time goes to the layer;
* ``op``    -- hot operators: call count and self time only, no span;
* ``count`` -- call count only (``cartan``, ``IndexSequence.at``).

A layer's self time is the time spent in its wrappers minus the time
spent in wrapped callees.  Calls from a layer into itself (a predicate
calling the base predicate) are not counted again.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _bfs_counts(tracer, graph, args):
    tracer.counts["graph.bfs.nodes"] += len(graph.nodes)
    tracer.counts["graph.bfs.layers"] += graph.nodes[-1].depth + 1
    tracer.counts["graph.bfs.frontier"] += sum(1 for n in graph.nodes if n.frontier)


def _export_bytes(tracer, text, args):
    tracer.counts["graph.export.bytes"] += len(text.encode("utf-8"))


def _check_counts(tracer, report, args):
    tracer.counts["checks.checked"] += report.checked
    tracer.counts["checks.skipped"] += report.skipped


def _assoc_counts(tracer, report, args):
    tracer.counts["tensor.assoc.checked"] += report.checked


def _predicate_counts(tracer, result, args):
    tracer.counts["oracle.predicate.calls"] += 1
    tracer.counts["oracle.predicate.passes"] += bool(result)


# (module, name, kind, layer or counter, hook on the result).  Without a
# hook, the calls into a layer are counted as "<module part of the
# layer>.<function>.calls", e.g. "string.f.calls".
TARGETS = [
    ("binfinity", "StringCrystal.f", "op", "string.ops", None),
    ("binfinity", "StringCrystal.e", "op", "string.ops", None),
    ("binfinity", "StringCrystal.eps", "op", "string.ops", None),
    ("binfinity", "StringCrystal.phi", "op", "string.ops", None),
    ("binfinity", "StringCrystal.wt", "op", "string.ops", None),
    ("binfinity", "IndexSequence.at", "count", "seq.at.calls", None),
    ("binfinity", "audit_binfinity_truncation", "span", "binfinity.audit", None),
    ("binfinity", "highest_weight_projection", "span", "binfinity.witness", None),
    ("binfinity", "crystal_embedding", "span", "binfinity.witness", None),
    ("binfinity", "tensor_decomposition_embedding", "span", "binfinity.witness", None),
    ("tensor", "TensorCrystal.f", "op", "tensor.ops", None),
    ("tensor", "TensorCrystal.e", "op", "tensor.ops", None),
    ("tensor", "TensorCrystal.eps", "op", "tensor.ops", None),
    ("tensor", "TensorCrystal.phi", "op", "tensor.ops", None),
    ("tensor", "TensorCrystal.wt", "op", "tensor.ops", None),
    ("tensor", "verify_associativity", "span", "tensor.assoc", _assoc_counts),
    ("tensor", "bracket_wt", "op", "tensor.assoc", None),
    ("tensor", "bracket_eps", "op", "tensor.assoc", None),
    ("tensor", "bracket_phi", "op", "tensor.assoc", None),
    ("tensor", "bracket_lower", "op", "tensor.assoc", None),
    ("tensor", "bracket_raise", "op", "tensor.assoc", None),
    ("tensor", "bracket_leaves", "op", "tensor.assoc", None),
    ("tensor", "reassociate", "op", "tensor.assoc", None),
    ("cartan", "Weight.__init__", "count", "cartan.weight_new", None),
    ("cartan", "BorcherdsCartanDatum.pairing", "count", "cartan.pairing.calls", None),
    ("graph", "bfs_component", "span", "graph.bfs", _bfs_counts),
    ("graph", "graph_from_universe", "span", "graph.universe", None),
    ("graph", "graph_to_json", "span", "graph.export", _export_bytes),
    ("graph", "graph_to_dot", "span", "graph.export", _export_bytes),
    ("checks", "check_axioms", "span", "checks", _check_counts),
    ("checks", "check_category_profile", "span", "checks", _check_counts),
    ("checks", "check_morphism", "span", "checks", _check_counts),
    ("closed_form", "compare_predicate_with_bfs", "span", "oracle.compare", None),
    ("closed_form", "iter_bounded_strings", "enumerate", "oracle.enumerate", None),
    ("closed_form", "rank2_member", "op", "oracle.predicate", _predicate_counts),
    ("closed_form", "rank2_highest_weight_member", "op", "oracle.predicate", _predicate_counts),
    ("closed_form", "MonsterModel.member", "op", "oracle.predicate", _predicate_counts),
    ("closed_form", "MonsterModel.highest_weight_member", "op", "oracle.predicate",
     _predicate_counts),
    ("fuzzing", "random_universe_graph", "span", "fuzzing", None),
    ("fuzzing", "random_factor_graph", "span", "fuzzing", None),
    ("cli", "main", "span", "cli.main", None),
]

# Per-layer metric -> unit, in the order they are reported.
PER_LAYER = {
    **{f"string.{op}.calls": "count" for op in ("f", "e", "eps", "phi", "wt")},
    "string.ops.self_s": "s",
    "seq.at.calls": "count",
    **{f"tensor.{op}.calls": "count" for op in ("f", "e", "eps", "phi", "wt")},
    "tensor.ops.self_s": "s",
    "tensor.assoc.self_s": "s",
    "tensor.assoc.checked": "count",
    "cartan.weight_new": "count",
    "cartan.pairing.calls": "count",
    "graph.bfs.self_s": "s",
    "graph.bfs.nodes": "count",
    "graph.bfs.layers": "count",
    "graph.bfs.frontier": "count",
    "graph.universe.self_s": "s",
    "graph.export.self_s": "s",
    "graph.export.bytes": "B",
    "binfinity.audit.self_s": "s",
    "binfinity.witness.self_s": "s",
    "checks.self_s": "s",
    "checks.checked": "count",
    "checks.skipped": "count",
    "checks.checked_frac": "frac",
    "oracle.enumerate.self_s": "s",
    "oracle.enumerate.candidates": "count",
    "oracle.predicate.self_s": "s",
    "oracle.predicate.calls": "count",
    "oracle.predicate.pass_frac": "frac",
    "oracle.compare.self_s": "s",
    "fuzzing.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "frac",
}


class Tracer:
    """Spans and counters of one traced run; install, run jobs under
    :meth:`job`, uninstall, then read :meth:`layer_metrics`."""

    def __init__(self):
        self.stack = []  # frames: [layer, child seconds, span id or None]
        self.spans = []  # [name, start, end, parent span id, job]
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.job_key = None
        self.patches = []  # (namespace, attribute, original)

    # -- wrappers ---------------------------------------------------------

    def _timed(self, fn, name, layer, kind, hook):
        stack, spans, self_s = self.stack, self.spans, self.self_s
        calls_key = f"{layer.split('.')[0]}.{name.rsplit('.', 1)[-1]}.calls"
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = not stack or stack[-1][0] != layer
            span_id = None
            if kind == "span":
                parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
                span_id = len(spans)
                spans.append([name, 0.0, 0.0, parent, self.job_key])
            frame = [layer, 0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self_s[layer] += end - start - frame[1]
                if stack:
                    stack[-1][1] += end - start
                if span_id is not None:
                    spans[span_id][1:3] = [start, end]
            if outer:
                if hook:
                    hook(self, result, args)
                elif calls_key:
                    counts[calls_key] += 1
            return result

        return wrapper

    def _counted(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _enumerated(self, fn, layer):
        """Generator wrapper: the time spent producing items is the
        layer's, and is taken out of the consumer's self time."""
        stack, self_s, counts = self.stack, self.self_s, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                start = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    spent = perf_counter() - start
                    self_s[layer] += spent
                    if stack:
                        stack[-1][1] += spent
                counts[f"{layer}.candidates"] += 1
                yield item

        return wrapper

    def _wrap(self, fn, name, kind, layer, hook):
        if kind == "count":
            return self._counted(fn, layer)
        if kind == "enumerate":
            return self._enumerated(fn, layer)
        return self._timed(fn, name, layer, kind, hook)

    # -- patching ---------------------------------------------------------

    @staticmethod
    def namespaces():
        return [
            mod for name, mod in sorted(sys.modules.items())
            if name == "gkmcrystals" or name.startswith("gkmcrystals.")
        ]

    @classmethod
    def snapshot(cls) -> dict:
        """(namespace, attribute) -> id of its value, for every global of
        every gkmcrystals module and every attribute of their classes."""
        out = {}
        for ns in cls.namespaces():
            for attr, value in vars(ns).items():
                out[(ns.__name__, attr)] = id(value)
                if isinstance(value, type) and value.__module__ == ns.__name__:
                    for cattr, cvalue in vars(value).items():
                        out[(f"{ns.__name__}.{attr}", cattr)] = id(cvalue)
        return out

    def install(self):
        if self.patches:
            raise RuntimeError("tracer already installed")
        for module_name, name, kind, layer, hook in TARGETS:
            module = sys.modules[f"gkmcrystals.{module_name}"]
            if "." in name:
                cls_name, attr = name.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                wrapper = self._wrap(original, name, kind, layer, hook)
                self.patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            original = getattr(module, name)
            wrapper = self._wrap(original, f"{module_name}.{name}", kind, layer, hook)
            for ns in self.namespaces():
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self.patches.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def unpatched_references(self) -> list:
        """Names in gkmcrystals namespaces (and one level into their
        dict, list and tuple globals) still bound to an original while
        installed.  Empty when every reference is covered."""
        originals = {id(orig) for _, _, orig in self.patches}
        stale = []
        for ns in self.namespaces():
            for attr, value in vars(ns).items():
                inner = ()
                if isinstance(value, dict):
                    inner = value.values()
                elif isinstance(value, (list, tuple)):
                    inner = value
                for v in (value, *inner):
                    if id(v) in originals:
                        stale.append(f"{ns.__name__}.{attr}")
        return stale

    # -- jobs and results -------------------------------------------------

    @contextmanager
    def job(self, key):
        """Run one job as a root span; yields the dict that receives the
        job's counter deltas when it ends."""
        before = dict(self.counts)
        delta = {}
        self.job_key = key
        span_id = len(self.spans)
        self.spans.append([f"job:{key}", 0.0, 0.0, None, key])
        frame = ["job", 0.0, span_id]
        self.stack.append(frame)
        start = perf_counter()
        try:
            yield delta
        finally:
            end = perf_counter()
            self.stack.pop()
            self.self_s["job"] += end - start - frame[1]
            self.spans[span_id][1:3] = [start, end]
            self.job_key = None
            delta.update(
                (k, v - before.get(k, 0)) for k, v in self.counts.items()
                if v != before.get(k, 0)
            )

    def layer_metrics(self, overhead_frac) -> dict:
        c, s = self.counts, self.self_s
        values = {
            "checks.checked_frac": _ratio(
                c["checks.checked"], c["checks.checked"] + c["checks.skipped"]
            ),
            "oracle.predicate.pass_frac": _ratio(
                c["oracle.predicate.passes"], c["oracle.predicate.calls"]
            ),
            "trace.overhead_frac": overhead_frac,
        }
        for name, unit in PER_LAYER.items():
            if name.endswith(".self_s"):
                values[name] = s[name.removesuffix(".self_s")]
            elif unit != "frac":
                values[name] = c[name]
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def _ratio(num, den):
    return num / den if den else 0.0
