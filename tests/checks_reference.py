"""Reference implementation of the crystal law checkers.

These are the bodies ``check_axioms``, ``check_morphism`` and
``highest_weight_projection`` had while each law was written twice, as
hand-mirrored raising and lowering branches, and the projection kept its
own copy of the injectivity loop.  They are kept, unchanged in
substance, as the path the direction-generic checkers are diffed
against (``test_checks_differential.py``); nothing in the library calls
them.  The projection returns ``(witness, report)``.
"""

from gkmcrystals.cartan import is_neg_inf
from gkmcrystals.checks import CheckReport, MorphismWitness
from gkmcrystals.graph import CUT, validate_structure


def check_axioms(graph) -> CheckReport:
    """Verify the crystal laws on every node of a finite graph.

    Checked per node and index, skipping anything that involves a cut
    successor:

      * weight steps:  wt(e_i b) = wt b + alpha_i, wt(f_i b) = wt b - alpha_i;
      * the statistics identity phi_i = eps_i + <h_i, wt b>, read in
        Z ∪ {-inf} (both sides -inf counts as equal);
      * duality: stored raising and lowering fans invert each other;
      * statistic steps along edges, split real (eps -+1, phi +-1)
        versus imaginary (eps constant, phi shifts by a_ii);
      * dead ends: phi_i = -inf forces e_i b = f_i b = 0.
    """
    validate_structure(graph)
    datum = graph.datum
    rep = CheckReport()
    for u, node in enumerate(graph.nodes):
        for i in datum.indices():
            eps_u, phi_u = node.eps[i], node.phi[i]
            real = datum.is_real(i)

            rep.checked += 1
            expected_phi = eps_u + datum.pairing(i, node.wt)
            if phi_u != expected_phi:
                rep.add(u, i, "phi_eps_pairing", expected_phi, phi_u)

            if is_neg_inf(phi_u):
                for entry in (node.e_ids[i], node.f_ids[i]):
                    if entry is CUT:
                        rep.skipped += 1
                    else:
                        rep.checked += 1
                        if entry is not None:
                            rep.add(u, i, "neg_inf_dead_end", None, entry)

            w = node.e_ids[i]
            if w is CUT:
                rep.skipped += 1
            elif w is not None:
                up = graph.nodes[w]
                rep.checked += 1
                if up.wt != node.wt + datum.alpha(i):
                    rep.add(u, i, "e_weight_step", node.wt + datum.alpha(i), up.wt)
                rep.checked += 1
                if real:
                    want = (eps_u - 1, phi_u + 1)
                else:
                    want = (eps_u, phi_u + datum.a(i, i))
                got = (up.eps[i], up.phi[i])
                if got != want:
                    rep.add(u, i, "e_stat_step", want, got)
                back = up.f_ids[i]
                if back is CUT:
                    rep.skipped += 1
                else:
                    rep.checked += 1
                    if back != u:
                        rep.add(u, i, "ef_duality", u, back)

            v = node.f_ids[i]
            if v is CUT:
                rep.skipped += 1
            elif v is not None:
                dn = graph.nodes[v]
                rep.checked += 1
                if dn.wt != node.wt - datum.alpha(i):
                    rep.add(u, i, "f_weight_step", node.wt - datum.alpha(i), dn.wt)
                rep.checked += 1
                if real:
                    want = (eps_u + 1, phi_u - 1)
                else:
                    want = (eps_u, phi_u - datum.a(i, i))
                got = (dn.eps[i], dn.phi[i])
                if got != want:
                    rep.add(u, i, "f_stat_step", want, got)
                back = dn.e_ids[i]
                if back is CUT:
                    rep.skipped += 1
                else:
                    rep.checked += 1
                    if back != u:
                        rep.add(u, i, "ef_duality", u, back)
    return rep


def check_morphism(witness: MorphismWitness, src, dst) -> CheckReport:
    """Verify the morphism laws of a witness between two graphs.

    Plain morphism: statistics preserved and the witness commutes with
    lowering wherever the source edge exists (raising commutation is
    checked too, being a consequence).  ``strict`` additionally demands
    that zeros map to zeros on both sides; ``embedding`` demands
    injectivity.  Missing non-frontier domain nodes are coverage errors,
    reported separately from law violations.
    """
    validate_structure(src)
    validate_structure(dst)
    datum = src.datum
    rep = CheckReport()
    mapping = witness.mapping
    shift = witness.weight_shift if witness.weight_shift is not None else datum.zero_weight()

    for u, node in enumerate(src.nodes):
        if u not in mapping:
            if not node.frontier:
                rep.coverage_errors.append(f"non-frontier source node {u} is unmapped")
            continue
        tgt = mapping[u]
        if not (isinstance(tgt, int) and 0 <= tgt < len(dst.nodes)):
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
            expected_phi = node.phi[i] - datum.pairing(i, shift)
            if img.phi[i] != expected_phi:
                rep.add(u, i, "morphism_phi", expected_phi, img.phi[i])

            sv, dv = node.f_ids[i], img.f_ids[i]
            if sv is CUT:
                rep.skipped += 1
            elif sv is None:
                if witness.strict:
                    if dv is CUT:
                        rep.skipped += 1
                    else:
                        rep.checked += 1
                        if dv is not None:
                            rep.add(u, i, "f_zero", None, dv)
            else:
                if sv not in mapping or dv is CUT:
                    rep.skipped += 1
                else:
                    rep.checked += 1
                    if dv != mapping[sv]:
                        rep.add(u, i, "f_commute", mapping[sv], dv)

            sw, dw = node.e_ids[i], img.e_ids[i]
            if sw is CUT:
                rep.skipped += 1
            elif sw is None:
                if witness.strict:
                    if dw is CUT:
                        rep.skipped += 1
                    else:
                        rep.checked += 1
                        if dw is not None:
                            rep.add(u, i, "e_zero", None, dw)
            else:
                if sw not in mapping or dw is CUT:
                    rep.skipped += 1
                else:
                    rep.checked += 1
                    if dw != mapping[sw]:
                        rep.add(u, i, "e_commute", mapping[sw], dw)

    if witness.embedding:
        seen = {}
        for u in sorted(mapping):
            tgt = mapping[u]
            rep.checked += 1
            if tgt in seen:
                rep.add(u, None, "injective", f"distinct from node {seen[tgt]}", tgt)
            else:
                seen[tgt] = u
    return rep


def highest_weight_projection(hw_graph, binf_graph):
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
    return witness, rep
