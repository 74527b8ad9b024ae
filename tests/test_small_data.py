"""A sweep over every small rank-2 datum of ``small_data.py`` at depth 4:
each of its three sequences realizes B(infinity) and B(lambda) for every
nonzero lambda in {0,1}^2 (the realizations audit themselves), and every
graph must pass the axioms, every B(infinity) the embedding into its
product with each elementary crystal, and every B(lambda) the projection
onto B(infinity)."""

from itertools import product

import gkmcrystals as G

from small_data import sequences, small_data


def test_rank2_sweep_at_depth_4_is_clean():
    data, graphs, nodes, checked, failures = small_data(), 0, 0, 0, []
    for datum in data:
        for seq in sequences(datum):
            binf = G.realize_binfinity(datum, seq, 4)
            reports = [(None, G.check_axioms(binf))]
            reports += [(None, G.crystal_embedding(binf, i).report) for i in datum.indices()]
            realized = [binf]
            for h in product((0, 1), repeat=2):
                if any(h):
                    hw = G.realize_highest_weight(datum, seq, datum.weight(lam=h), 4)
                    reports += [(h, G.check_axioms(hw)),
                                (h, G.highest_weight_projection(hw, binf).report)]
                    realized.append(hw)
            graphs += len(realized)
            nodes += sum(map(len, realized))
            for h, report in reports:
                checked += report.checked
                if not report.ok:
                    failures.append((datum.cartan, seq, h, report.summary()))
    assert failures == []
    assert (len(data), graphs, nodes) == (150, 1800, 36306)
    assert checked > nodes
