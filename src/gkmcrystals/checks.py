"""Executable law checking for finite crystal graphs.

``check_axioms`` verifies the defining crystal laws on a generated
graph; ``check_category_profile`` the optional highest-weight-category
profile at imaginary indices; ``check_morphism`` the morphism laws for
an explicit node-to-node witness.  Reports are machine-readable lists
of (node, index, law, expected, found); relations that would need a
lowering successor cut off by the truncation are skipped and counted,
so a clean run reads "0 violations, k skipped".

Each law about an edge is written once for both directions: s = +1
raises along e_i, s = -1 lowers along f_i.  A step in direction s moves
the weight by s alpha_i and (eps_i, phi_i) by s (-1, +1) at a real index,
s (0, a_ii) at an imaginary one; law names carry the direction as an
``e_``/``f_`` prefix.  ``check_injective`` is the one injectivity check,
shared by ``check_morphism`` and the highest-weight projection.

A ``Violation`` is a namedtuple.  ``CheckReport`` accumulates while a
check runs and a ``MorphismWitness`` may be edited in place, so both are
plain classes; a witness compares equal to another by value.
"""

from __future__ import annotations

from collections import namedtuple

from .cartan import is_int, is_neg_inf
from .graph import CUT, validate_structure


class Violation(namedtuple("Violation", "node index law expected found", defaults=(None, None))):
    __slots__ = ()

    def __str__(self):
        return (
            f"node={self.node} i={self.index} law={self.law} "
            f"expected={self.expected!r} found={self.found!r}"
        )


class CheckReport:
    """Violations and coverage errors in the order found, and the counts
    of relations checked and skipped."""

    def __init__(self):
        self.violations = []
        self.coverage_errors = []
        self.checked = self.skipped = 0

    @property
    def ok(self) -> bool:
        return not self.violations and not self.coverage_errors

    def add(self, node, index, law, expected=None, found=None):
        self.violations.append(Violation(node, index, law, expected, found))

    def merge(self, other: "CheckReport"):
        self.violations.extend(other.violations)
        self.coverage_errors.extend(other.coverage_errors)
        self.checked += other.checked
        self.skipped += other.skipped

    def summary(self) -> str:
        base = f"{len(self.violations)} violations, {self.skipped} skipped ({self.checked} checks)"
        if self.coverage_errors:
            base += f", {len(self.coverage_errors)} coverage errors"
        return base

    def lines(self, limit=20):
        out = [str(v) for v in self.violations[:limit]]
        out.extend(f"coverage: {c}" for c in self.coverage_errors[:limit])
        return out


# The two directions of a crystal edge: s = +1 raises along e_i, s = -1
# lowers along f_i.  Each entry: (law prefix, s, fan, reverse fan).
_DIRECTIONS = (("e", 1, "e_ids", "f_ids"), ("f", -1, "f_ids", "e_ids"))


def check_axioms(graph) -> CheckReport:
    """Verify the crystal laws on every node of a finite graph.

    Checked per node and index, skipping anything that involves a cut
    successor:

      * the statistics identity phi_i = eps_i + <h_i, wt b>, read in
        Z ∪ {-inf} (both sides -inf counts as equal);
      * dead ends: phi_i = -inf forces e_i b = f_i b = 0;
      * per direction s (e before f), along a nonzero edge b -> b':
        weight step wt b' = wt b + s alpha_i, statistic step (eps -s, phi
        +s) for real i and (eps constant, phi + s a_ii) for imaginary i,
        and duality: the reverse fan of b' leads back to b.

    <h_i, wt b> and each wt b + s alpha_i are computed once per weight
    object, when first read, in a table keyed by identity (the nodes hold
    the objects).  Generated graphs share one object per weight.
    """
    validate_structure(graph)
    datum = graph.datum
    size = datum.size
    rep = CheckReport()
    checked = skipped = 0  # kept local, stored on the report at the end
    steps = []  # per index and direction: (law, fan, reverse fan, s alpha_i, s d_eps, s d_phi, slot)
    for i in range(size):
        alpha = datum.alpha(i)
        d_eps, d_phi = (-1, 1) if datum.is_real(i) else (0, datum.a(i, i))
        steps.append([(law, fan, back, alpha if s > 0 else -alpha,  # s = +-1
                       s * d_eps, s * d_phi, size + 2 * i + k)
                      for k, (law, s, fan, back) in enumerate(_DIRECTIONS)])
    blank = [None] * (3 * size)  # <h_i, wt> at slot i, wt + s alpha_i at its step's slot
    tables = {}
    for u, node in enumerate(graph.nodes):
        wt = node.wt
        table = tables.get(id(wt))
        if table is None:
            table = tables[id(wt)] = blank.copy()
        for i in range(size):
            eps_u, phi_u = node.eps[i], node.phi[i]

            checked += 1
            pairing = table[i]
            if pairing is None:
                pairing = table[i] = datum.pairing(i, wt)
            expected_phi = eps_u + pairing
            if phi_u != expected_phi:
                rep.add(u, i, "phi_eps_pairing", expected_phi, phi_u)

            if is_neg_inf(phi_u):
                for entry in (node.e_ids[i], node.f_ids[i]):
                    if entry is CUT:
                        skipped += 1
                    else:
                        checked += 1
                        if entry is not None:
                            rep.add(u, i, "neg_inf_dead_end", None, entry)

            for law, fan, back_fan, step, d_eps, d_phi, slot in steps[i]:
                v = getattr(node, fan)[i]
                if v is CUT:
                    skipped += 1
                    continue
                if v is None:
                    continue
                nb = graph.nodes[v]
                checked += 2
                want_wt = table[slot]
                if want_wt is None:
                    want_wt = table[slot] = wt + step
                if nb.wt != want_wt:
                    rep.add(u, i, f"{law}_weight_step", want_wt, nb.wt)
                want = (eps_u + d_eps, phi_u + d_phi)
                got = (nb.eps[i], nb.phi[i])
                if got != want:
                    rep.add(u, i, f"{law}_stat_step", want, got)
                back = getattr(nb, back_fan)[i]
                if back is CUT:
                    skipped += 1
                else:
                    checked += 1
                    if back != u:
                        rep.add(u, i, "ef_duality", u, back)
    rep.checked, rep.skipped = checked, skipped
    return rep


def check_category_profile(graph) -> CheckReport:
    """Optional profile at imaginary indices: wt_i(b) >= 0, eps_i(b) in
    Z_{<=0} ∪ {-inf}, phi_i(b) in Z_{>=0} ∪ {-inf}."""
    validate_structure(graph)
    datum = graph.datum
    rep = CheckReport()
    for u, node in enumerate(graph.nodes):
        for i in datum.imaginary_indices:
            rep.checked += 3
            wt_i = datum.pairing(i, node.wt)
            if wt_i < 0:
                rep.add(u, i, "imaginary_wt_nonneg", ">=0", wt_i)
            if node.eps[i] > 0:
                rep.add(u, i, "imaginary_eps_nonpositive", "<=0 or -inf", node.eps[i])
            if not (is_neg_inf(node.phi[i]) or node.phi[i] >= 0):
                rep.add(u, i, "imaginary_phi_nonnegative", ">=0 or -inf", node.phi[i])
    return rep


class MorphismWitness:
    """A finite map between two graphs, given as node id -> node id.

    ``weight_shift`` relaxes weight preservation to wt(psi b) = wt(b) - shift
    (eps preserved, phi shifted accordingly), which is the law satisfied
    by the highest-weight-forgetting projection; the default shift is
    zero, i.e. a plain morphism.  Mutable, and equal by value.
    """

    def __init__(self, mapping, strict=False, embedding=False, weight_shift=None):
        self.mapping = mapping
        self.strict = strict
        self.embedding = embedding
        self.weight_shift = weight_shift

    def __eq__(self, other):  # defining it leaves the class unhashable
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)


def check_morphism(witness: MorphismWitness, src, dst) -> CheckReport:
    """Verify the morphism laws of a witness between two graphs.

    Plain morphism: statistics preserved and the witness commutes with
    lowering wherever the source edge exists (raising commutation is
    checked too, being a consequence).  ``strict`` additionally demands
    that zeros map to zeros on both sides; ``embedding`` demands
    injectivity.  Missing non-frontier domain nodes and mapping keys that
    are not source node ids are coverage errors, reported separately from
    law violations; such a key takes no part in the laws or injectivity.
    """
    validate_structure(src)
    validate_structure(dst)
    datum = src.datum
    rep = CheckReport()
    mapping = {}
    for u, tgt in witness.mapping.items():
        if is_int(u) and 0 <= u < len(src.nodes):
            mapping[u] = tgt
        else:
            rep.coverage_errors.append(f"mapping key {u!r} is not a source node")
    shift = witness.weight_shift if witness.weight_shift is not None else datum.zero_weight()
    if len(shift.lam) != datum.size:
        raise ValueError(f"weight shift has size {len(shift.lam)}, the datum {datum.size}")
    shift_pairings = [datum.pairing(i, shift) for i in datum.indices()]

    for u, node in enumerate(src.nodes):
        if u not in mapping:
            if not node.frontier:
                rep.coverage_errors.append(f"non-frontier source node {u} is unmapped")
            continue
        tgt = mapping[u]
        if not (is_int(tgt) and 0 <= tgt < len(dst.nodes)):
            rep.coverage_errors.append(f"node {u} maps to missing target {tgt!r}")
            continue
        img = dst.nodes[tgt]

        rep.checked += 1
        if img.wt != node.wt - shift:
            rep.add(u, None, "morphism_wt", node.wt - shift, img.wt)
        for i in datum.indices():
            rep.checked += 2
            if img.eps[i] != node.eps[i]:
                rep.add(u, i, "morphism_eps", node.eps[i], img.eps[i])
            expected_phi = node.phi[i] - shift_pairings[i]
            if img.phi[i] != expected_phi:
                rep.add(u, i, "morphism_phi", expected_phi, img.phi[i])

            for law, _, fan, _ in reversed(_DIRECTIONS):  # f laws are reported before e laws
                sv, dv = getattr(node, fan)[i], getattr(img, fan)[i]
                if sv is None and not witness.strict:
                    continue
                # a source edge to an unmapped node is as unknown as a cut one
                want = None if sv is None else mapping.get(sv, CUT)
                if sv is CUT or want is CUT or dv is CUT:
                    rep.skipped += 1
                    continue
                rep.checked += 1
                if dv != want:
                    rep.add(u, i, f"{law}_zero" if sv is None else f"{law}_commute", want, dv)

    if witness.embedding:
        rep.merge(check_injective(mapping))
    return rep


def check_injective(mapping) -> CheckReport:
    """One check per mapped node, in node order; a node whose target an
    earlier node already has violates "injective"."""
    rep = CheckReport()
    seen = {}
    for u in sorted(mapping):
        tgt = mapping[u]
        rep.checked += 1
        if tgt in seen:
            rep.add(u, None, "injective", f"distinct from node {seen[tgt]}", tgt)
        else:
            seen[tgt] = u
    return rep
