"""String realizations over an infinite index sequence.

Fix a sequence i_1, i_2, ... in which every index of the datum appears
infinitely often.  The elements handled here are finitely supported
strings x = (x_1, x_2, ...) of nonnegative integers: position k stands
for the factor b_{i_k}(-x_k) of a semi-infinite product of elementary
crystals, with position 1 rightmost.  ``StringCrystal`` implements the
crystal structure on these strings:

    wt(x) = - sum_k x_k alpha_{i_k}

real i:
    eps_i = max over {k : i_k = i} of   x_k + sum_{l>k} <h_i, alpha_{i_l}> x_l
    phi_i = max over {k : i_k = i} of  -x_k - sum_{l<k} <h_i, alpha_{i_l}> x_l
    f_i increments x at the smallest maximizing position, e_i decrements
    at the largest one and is zero when eps_i <= 0.

imaginary i:
    eps_i = 0, phi_i = wt_i; f_i increments at the smallest position n_f
    with i_{n_f} = i whose tail sum  sum_{l>n_f} <h_i, alpha_{i_l}> x_l
    vanishes; e_i decrements there provided x_{n_f} > 0 and every earlier
    occurrence k of i satisfies  sum_{k<l<=n_f} <h_i, alpha_{i_l}> x_l < a_ii.

Beyond the support all the maximized quantities are constant, so no
scan goes past the support end plus one full cycle of the sequence.

Scans read the sequence from a cached index array
(``IndexSequence.indices``), grown by doubling when a longer string
arrives.  One backward pass per real index yields eps_i together with
the smallest and largest maximizing positions, so f_i and e_i need no
second scan; one forward pass per imaginary index yields the lowering
slot and the raising test at that slot.  ``StringCrystal.stats`` runs
those scans once per index for all of a node's statistics; phi_i keeps
its own forward scan, so the identity phi_i = eps_i + <h_i, wt> that
``check_axioms`` verifies stays a check.

The connected component of the zero string realizes B(infinity); the
component of (zero string) ⊗ t_lambda ⊗ c realizes the highest-weight
crystal B(lambda).  Both realizations are audited at generation time,
and the morphism witnesses of this module (highest-weight projection,
embedding into the product with an elementary crystal, splitting of a
sum of highest weights) are rebuilt by path transport and re-checked
edge by edge rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import BorcherdsCartanDatum, Weight
from .checks import CheckReport, MorphismWitness, check_morphism
from .crystals import (
    Crystal,
    ElementaryCrystal,
    ShiftCrystal,
    StringElement,
    TensorElement,
    UnitCrystal,
)
from .graph import CUT, CrystalGraph, bfs_component
from .tensor import TensorCrystal


class AuditError(RuntimeError):
    """A generated realization failed its structural audit; the crystal
    operators are inconsistent (this is a bug, not bad user input)."""


class IndexSequence:
    """Eventually periodic index sequence, 1-based positions.

    Every index of the datum must appear in the cycle, which is how all
    the constructors guarantee "every index appears infinitely often".
    """

    def __init__(self, datum: BorcherdsCartanDatum, prefix, cycle, seq_id: str):
        prefix = tuple(int(i) for i in prefix)
        cycle = tuple(int(i) for i in cycle)
        if not cycle:
            raise ValueError("the cycle must be nonempty")
        for i in prefix + cycle:
            if not 0 <= i < datum.size:
                raise ValueError(f"sequence entry {i} out of range")
        missing = sorted(set(datum.indices()) - set(cycle))
        if missing:
            names = ", ".join(datum.index_names[i] for i in missing)
            raise ValueError(f"indices never recur in the cycle: {names}")
        self.datum = datum
        self.prefix = prefix
        self.cycle = cycle
        self.seq_id = seq_id
        self._indices = []

    def at(self, k: int) -> int:
        """Index at position k >= 1."""
        if k < 1:
            raise ValueError("positions are 1-based")
        if k <= len(self.prefix):
            return self.prefix[k - 1]
        return self.cycle[(k - len(self.prefix) - 1) % len(self.cycle)]

    def indices(self, n: int) -> list:
        """Cached index array covering at least positions 1..n: entry p
        is i_{p+1}.  It may be longer than n and must not be mutated;
        a longer request regrows it to at least twice its length."""
        idx = self._indices
        if len(idx) < n:
            length = max(n, 2 * len(idx), 16)
            reps = -(-(length - len(self.prefix)) // len(self.cycle))
            idx = self._indices = list(self.prefix + self.cycle * reps)
        return idx

    def scan_bound(self, support_len: int) -> int:
        """Position after which every maximized quantity is constant."""
        return max(support_len, len(self.prefix)) + len(self.cycle)

    def __repr__(self):
        return f"IndexSequence({self.seq_id})"


def cyclic_sequence(datum) -> IndexSequence:
    return IndexSequence(datum, (), tuple(datum.indices()), f"cyclic:{datum.size}")


def explicit_sequence(datum, prefix, cycle) -> IndexSequence:
    seq_id = "explicit:%s:%s" % (
        ",".join(map(str, prefix)),
        ",".join(map(str, cycle)),
    )
    return IndexSequence(datum, prefix, cycle, seq_id)


def monster_real_position(n: int, multiplicities) -> int:
    """Position b(n) of the (n+1)-th occurrence of the real index in a
    Monster-type block sequence:

        b(n) = n m(1) + (n-1) m(2) + ... + m(n) + n + 1

    with the multiplicity list implicitly zero-extended beyond its level.
    """
    m = tuple(multiplicities)
    return sum((n - i) * m[i] for i in range(min(n, len(m)))) + n + 1


def monster_block_sequence(datum, level: int, multiplicities) -> IndexSequence:
    """Block sequence for a Monster-type datum truncated at ``level``.

    The datum must list the single real index first and then the
    imaginary indices grouped by degree: (1,1)...(1,m1), (2,1)..., so
    index number 1 + m(1) + ... + m(d-1) + (t-1) is the t-th index of
    degree d.  Block n is the real index followed by all indices of
    degree <= n; blocks saturate at ``level``, which makes the sequence
    eventually periodic while keeping the real index at positions b(n).
    """
    m = tuple(int(v) for v in multiplicities)
    if level < 1 or len(m) != level or any(v < 1 for v in m):
        raise ValueError("need positive multiplicities m(1..level)")
    if datum.size != 1 + sum(m):
        raise ValueError(f"datum has {datum.size} indices, expected {1 + sum(m)}")
    if not datum.is_real(0) or any(not datum.is_imaginary(i) for i in range(1, datum.size)):
        raise ValueError("expected the real index first, imaginary indices after")
    degree_start = [1]
    for v in m[:-1]:
        degree_start.append(degree_start[-1] + v)

    def block(n):
        out = [0]
        for d in range(1, min(n, level) + 1):
            out.extend(range(degree_start[d - 1], degree_start[d - 1] + m[d - 1]))
        return out

    prefix = [i for n in range(1, level) for i in block(n)]
    cycle = block(level)
    seq_id = "monster:%d:%s" % (level, ",".join(map(str, m)))
    return IndexSequence(datum, prefix, cycle, seq_id)


def sequence_from_spec(datum, spec: dict) -> IndexSequence:
    """Build a sequence from its JSON spec: {"kind": "cyclic"} |
    {"kind": "explicit", "prefix": [...], "cycle": [...]} |
    {"kind": "monster", "level": L, "multiplicities": [...]}.

    Explicit entries may be index names or 0-based positions.
    """
    kind = spec.get("kind")
    if kind == "cyclic":
        return cyclic_sequence(datum)
    if kind == "explicit":
        def resolve(entry):
            return entry if isinstance(entry, int) else datum.index_of(entry)

        return explicit_sequence(
            datum,
            [resolve(v) for v in spec.get("prefix", [])],
            [resolve(v) for v in spec.get("cycle", [])],
        )
    if kind == "monster":
        return monster_block_sequence(datum, spec["level"], spec["multiplicities"])
    raise ValueError(f"unknown sequence kind {kind!r}")


def _pairing_sum(row, idx, x) -> int:
    """sum_k row[i_k] x_k over the support, for an index array idx."""
    total = 0
    for ik, xk in zip(idx, x):
        if xk:
            total += row[ik] * xk
    return total


class StringCrystal(Crystal):
    """Crystal structure on finitely supported strings over a sequence."""

    def __init__(self, datum, seq: IndexSequence):
        super().__init__(datum)
        if seq.datum != datum:
            raise ValueError("sequence was built for a different datum")
        self.seq = seq

    def zero(self) -> StringElement:
        return StringElement((), self.seq.seq_id)

    def element(self, x) -> StringElement:
        x = tuple(int(v) for v in x)
        while x and x[-1] == 0:
            x = x[:-1]
        return StringElement(x, self.seq.seq_id)

    def wt(self, b) -> Weight:
        rt = [0] * self.datum.size
        for ik, v in zip(self.seq.indices(len(b.x)), b.x):
            if v:
                rt[ik] -= v
        return Weight((0,) * self.datum.size, tuple(rt))

    def _real_scan(self, i, x):
        """(eps_i, smallest maximizing position, largest maximizing
        position) of the raising statistic

            value(k) = x_k + sum_{l>k} <h_i, alpha_{i_l}> x_l,  i_k = i,

        in one backward pass over the positions up to the scan bound, so
        the constant beyond-support value 0 is always represented.
        """
        row = self.datum.cartan[i]
        n = len(x)
        bound = self.seq.scan_bound(n)
        idx = self.seq.indices(bound)
        top = lo = hi = None
        suffix = 0
        for k in range(bound, 0, -1):
            ik = idx[k - 1]
            xk = x[k - 1] if k <= n else 0
            if ik == i:
                v = xk + suffix
                if top is None or v > top:
                    top = v
                    lo = hi = k
                elif v == top:
                    lo = k
            if xk:
                suffix += row[ik] * xk
        return top, lo, hi

    def _imaginary_scan(self, i, x):
        """(lowering slot, whether e_i is nonzero there) in one forward
        pass.  The slot is the smallest position n_f with i_{n_f} = i
        whose tail sum vanishes; e_i decrements there iff x_{n_f} > 0 and
        every earlier occurrence k of i sees sum_{k<l<=n_f} < a_ii, that
        is, the running sum at n_f exceeds the smallest running sum at
        an earlier occurrence by less than a_ii."""
        row = self.datum.cartan[i]
        a_ii = row[i]
        n = len(x)
        idx = self.seq.indices(self.seq.scan_bound(n))
        total = _pairing_sum(row, idx, x)
        run = 0
        low = None  # smallest running sum at an earlier occurrence of i
        for k, ik, xk in zip(range(1, n + 1), idx, x):
            if xk:
                run += row[ik] * xk
            if ik == i:
                if run == total:
                    return k, xk > 0 and (low is None or run - low < a_ii)
                if low is None or run < low:
                    low = run
        # beyond the support the tail sum is zero: the slot is the next
        # occurrence of i, which lies within one cycle, and x is zero there
        return idx.index(i, n) + 1, False

    def _scan(self, i, x):
        """(eps_i, position f_i increments, position e_i decrements or 0
        when e_i x is zero): the string rule, one scan per call."""
        if self.datum.is_imaginary(i):
            slot, raisable = self._imaginary_scan(i, x)
            return 0, slot, slot if raisable else 0
        top, lo, hi = self._real_scan(i, x)
        if top <= 0 or hi > len(x) or x[hi - 1] == 0:
            # a zero at hi with top > 0 means the raised factor leaves the
            # crystal (b_i(+1) is zero); happens only outside the
            # component of the zero string
            hi = 0
        return top, lo, hi

    def eps(self, i, b):
        if self.datum.is_imaginary(i):
            return 0
        return self._real_scan(i, b.x)[0]

    def phi(self, i, b):
        row = self.datum.cartan[i]
        x = b.x
        idx = self.seq.indices(len(x))
        if self.datum.is_imaginary(i):
            return -_pairing_sum(row, idx, x)
        best = None
        prefix = 0
        for ik, xk in zip(idx, x):
            if ik == i:
                cand = -xk - prefix
                if best is None or cand > best:
                    best = cand
            if xk:
                prefix += row[ik] * xk
        # i recurs beyond the support, where every candidate is -prefix
        return -prefix if best is None or -prefix > best else best

    def _bump(self, x, k, delta) -> StringElement:
        """x with delta added at position k, zero-padded or stripped of
        trailing zeros into canonical form."""
        if k > len(x):
            y = x + (0,) * (k - len(x) - 1) + (delta,)
        else:
            y = x[:k - 1] + (x[k - 1] + delta,) + x[k:]
            while y and not y[-1]:
                y = y[:-1]
        return StringElement(y, self.seq.seq_id)

    def f(self, i, b):
        return self._bump(b.x, self._scan(i, b.x)[1], +1)

    def e(self, i, b):
        slot = self._scan(i, b.x)[2]
        return self._bump(b.x, slot, -1) if slot else None

    def stats(self, b):
        x = b.x
        eps, phi, e, f = [], [], [], []
        for i in self.datum.indices():
            top, lower, upper = self._scan(i, x)
            eps.append(top)
            phi.append(self.phi(i, b))
            e.append(self._bump(x, upper, -1) if upper else None)
            f.append(self._bump(x, lower, +1))
        return self.wt(b), tuple(eps), tuple(phi), tuple(e), tuple(f)


def realize_binfinity(datum, seq: IndexSequence, depth: int) -> CrystalGraph:
    """Component of the zero string, audited.

    The audit enforces, on the truncation: raising stays inside the
    component, all weights lie in -Q+, the root is the unique node of
    weight zero, and every other node admits some nonzero raising.
    Failure raises AuditError -- it indicates an operator bug.
    """
    crystal = StringCrystal(datum, seq)
    graph = bfs_component(crystal, crystal.zero(), depth)
    problems = audit_binfinity_truncation(graph)
    if problems:
        raise AuditError("; ".join(problems))
    return graph


def audit_binfinity_truncation(graph) -> list:
    problems = []
    if graph.closure_failures:
        problems.append(f"raising escapes the component: {graph.closure_failures[:3]}")
    zero_nodes = []
    for u, node in enumerate(graph.nodes):
        if any(node.wt.lam) or any(v > 0 for v in node.wt.rt):
            problems.append(f"node {u} has weight outside -Q+: {node.wt}")
        if node.wt.is_zero():
            zero_nodes.append(u)
        if u != graph.root and all(w is None for w in node.e_ids):
            problems.append(f"non-root node {u} admits no raising")
    if zero_nodes != [graph.root]:
        problems.append(f"weight-zero nodes {zero_nodes}, expected exactly the root")
    return problems


def highest_weight_crystal(datum, seq: IndexSequence, lam: Weight) -> TensorCrystal:
    """(strings) ⊗ t_lam ⊗ c, the carrier of the B(lambda) realization."""
    return TensorCrystal(
        StringCrystal(datum, seq), ShiftCrystal(datum, lam), UnitCrystal(datum)
    )


def highest_weight_root(crystal: TensorCrystal) -> TensorElement:
    strings, shift, unit = crystal.factors
    return crystal.element(strings.zero(), shift.element(), unit.element())


def realize_highest_weight(datum, seq: IndexSequence, lam: Weight, depth: int) -> CrystalGraph:
    """Component of (zero string) ⊗ t_lam ⊗ c for dominant lam."""
    if not datum.is_dominant(lam):
        raise ValueError(f"weight {lam} is not dominant")
    crystal = highest_weight_crystal(datum, seq, lam)
    graph = bfs_component(crystal, highest_weight_root(crystal), depth)
    if graph.closure_failures:
        raise AuditError(f"raising escapes the component: {graph.closure_failures[:3]}")
    return graph


@dataclass
class ProjectionResult:
    witness: MorphismWitness
    report: CheckReport


def highest_weight_projection(hw_graph, binf_graph) -> ProjectionResult:
    """The projection that forgets the highest weight: x ⊗ t_lam ⊗ c -> x.

    Checked laws: the map is injective, sends root to root, commutes
    with raising everywhere (zeros included), commutes with lowering
    wherever the source lowering is nonzero, shifts weights by -lam and
    preserves every eps_i.  Both graphs must come from the same sequence
    and depth.
    """
    lam = hw_graph.nodes[hw_graph.root].elt.factors[1].weight
    datum = hw_graph.datum
    rep = CheckReport()
    mapping = {}
    for u, node in enumerate(hw_graph.nodes):
        x = node.elt.factors[0]
        target = binf_graph.ids.get(x)
        if target is None:
            rep.add(u, None, "projection_image_missing", None, x)
            continue
        mapping[u] = target

    rep.checked += 1
    if mapping.get(hw_graph.root) != binf_graph.root:
        rep.add(hw_graph.root, None, "projection_root", binf_graph.root,
                mapping.get(hw_graph.root))

    seen = {}
    for u in sorted(mapping):
        tgt = mapping[u]
        rep.checked += 1
        if tgt in seen:
            rep.add(u, None, "injective", f"distinct from node {seen[tgt]}", tgt)
        else:
            seen[tgt] = u

    for u, node in enumerate(hw_graph.nodes):
        if u not in mapping:
            continue
        img = binf_graph.nodes[mapping[u]]
        rep.checked += 1
        if img.wt != node.wt - lam:
            rep.add(u, None, "projection_wt_shift", node.wt - lam, img.wt)
        for i in datum.indices():
            rep.checked += 1
            if img.eps[i] != node.eps[i]:
                rep.add(u, i, "projection_eps", node.eps[i], img.eps[i])

            sw, dw = node.e_ids[i], img.e_ids[i]
            if sw is CUT or dw is CUT:
                rep.skipped += 1
            elif sw is None:
                rep.checked += 1
                if dw is not None:
                    rep.add(u, i, "projection_e_zero", None, dw)
            else:
                rep.checked += 1
                if mapping.get(sw) != dw:
                    rep.add(u, i, "projection_e_commute", mapping.get(sw), dw)

            sv, dv = node.f_ids[i], img.f_ids[i]
            if sv is CUT or sv is None or dv is CUT:
                rep.skipped += 1
            else:
                rep.checked += 1
                if sv not in mapping or mapping[sv] != dv:
                    rep.add(u, i, "projection_f_commute", mapping.get(sv), dv)

    witness = MorphismWitness(mapping, strict=False, embedding=True, weight_shift=lam)
    return ProjectionResult(witness, rep)


@dataclass
class EmbeddingResult:
    witness: MorphismWitness
    source: CrystalGraph
    target: CrystalGraph
    report: CheckReport


def _transport(src, dst, root_image) -> tuple:
    """Push the source graph along lowering edges into the target.

    The image of the root is prescribed; every other node's image is
    f_i(image of parent) for each incoming edge (u, i), and all incoming
    edges must agree -- that re-derivation is the executable content of
    the uniqueness claims.  Disagreements are reported with both paths.
    """
    rep = CheckReport()
    if root_image not in dst.ids:
        rep.add(src.root, None, "transport_root_missing", None, root_image)
        return {}, rep
    images = {src.root: dst.ids[root_image]}
    paths = {src.root: ()}
    incoming = src.in_edges()
    for v in range(len(src.nodes)):
        if v == src.root:
            continue
        for u, i in incoming[v]:
            if u not in images:
                rep.skipped += 1
                continue
            parent_elt = dst.nodes[images[u]].elt
            candidate = dst.crystal.f(i, parent_elt)
            path = paths[u] + (i,)
            rep.checked += 1
            if candidate is None:
                rep.add(v, i, "transport_zero", "nonzero lowering", f"path {path}")
                continue
            cid = dst.ids.get(candidate)
            if cid is None:
                rep.add(v, i, "transport_escape", "target node", f"path {path}")
                continue
            if v not in images:
                images[v] = cid
                paths[v] = path
            elif images[v] != cid:
                rep.add(
                    v, i, "path_disagreement",
                    (paths[v], dst.nodes[images[v]].elt),
                    (path, candidate),
                )
        if v not in images:
            rep.coverage_errors.append(f"no image could be derived for node {v}")
    return images, rep


def crystal_embedding(binf_graph, i: int) -> EmbeddingResult:
    """Embed a B(infinity) truncation into itself ⊗ (elementary crystal i).

    The root goes to root ⊗ b_i(0); everything else is transported along
    lowering edges, re-derived along every alternative path, and the
    resulting witness is checked as a strict embedding.
    """
    crystal = binf_graph.crystal
    if crystal is None:
        raise ValueError("graph does not carry its generating crystal")
    datum = binf_graph.datum
    elementary = ElementaryCrystal(datum, i)
    product = TensorCrystal(crystal, elementary)
    root_elt = binf_graph.nodes[binf_graph.root].elt
    root_image = product.element(root_elt, elementary.top())
    target = bfs_component(product, root_image, binf_graph.depth_bound)
    images, rep = _transport(binf_graph, target, root_image)
    witness = MorphismWitness(images, strict=True, embedding=True)
    rep.merge(check_morphism(witness, binf_graph, target))
    return EmbeddingResult(witness, binf_graph, target, rep)


def tensor_decomposition_embedding(datum, seq, lam, mu, depth) -> EmbeddingResult:
    """Embed B(lam+mu) into B(lam) ⊗ B(mu), root to u_lam ⊗ u_mu,
    by path transport with the same well-definedness checks."""
    source = realize_highest_weight(datum, seq, lam + mu, depth)
    left = highest_weight_crystal(datum, seq, lam)
    right = highest_weight_crystal(datum, seq, mu)
    product = TensorCrystal(left, right)
    root_image = product.element(highest_weight_root(left), highest_weight_root(right))
    target = bfs_component(product, root_image, depth)
    images, rep = _transport(source, target, root_image)
    witness = MorphismWitness(images, strict=True, embedding=True)
    rep.merge(check_morphism(witness, source, target))
    return EmbeddingResult(witness, source, target, rep)
