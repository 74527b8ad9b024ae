"""The one structural audit of both realizations.

``audit_binfinity_truncation`` reads the top weight off the root: zero
for B(infinity), lambda for B(lambda).  The clean grid runs it on both
realizations over rank-2 data in three spellings of one sequence,
Monster data over their block and cyclic sequences and the conftest
data, the huge datum included; the fault test plants a tensor-rule bug
that only the B(lambda) audit sees.
"""

from itertools import product

import pytest

import gkmcrystals as G
from gkmcrystals import tensor
from gkmcrystals.binfinity import audit_binfinity_truncation

from conftest import make_d1, make_d2, make_huge, make_imaginary_only

RANK2_PARAMS = [(1, 1, 0), (1, 2, 2), (2, 1, 4), (3, 3, 2), (1, 1, 2), (2, 3, 0)]
# three spellings of the rank-2 sequence 1, 2, 1, 2, ...
RANK2_SPELLINGS = [((), (0, 1)), ((0, 1), (0, 1)), ((0, 1, 0), (1, 0, 1, 0, 1, 0))]
MONSTER_MODELS = [(2, (2, 1)), (3, (1, 1, 1)), (2, (1, 1))]


def lambdas(datum):
    """Every dominant sum of the Lambda_i with coefficients 0..2; their
    sum at most 2 when the datum has more than 3 indices."""
    for coeffs in product(range(3), repeat=datum.size):
        if datum.size <= 3 or sum(coeffs) <= 2:
            yield datum.weight(lam=coeffs)


def grid():
    """(name, datum, sequence, depth) of every clean-grid configuration.
    The three rank-2 spellings run at depths 4, 5 and 6, a Monster block
    sequence at 5 and its cyclic one at 4, the conftest data at 6."""
    runs = []
    for abc in RANK2_PARAMS:
        d = G.rank2_datum(G.Rank2Params(*abc))
        for depth, (prefix, cycle) in enumerate(RANK2_SPELLINGS, start=4):
            seq = G.explicit_sequence(d, prefix, cycle)
            runs.append((f"rank2{abc}-{prefix}{cycle}", d, seq, depth))
    for level, mults in MONSTER_MODELS:
        model = G.MonsterModel(G.MonsterParams(level, mults))
        d = model.datum
        runs.append((f"monster{level}{mults}-block", d, model.sequence, 5))
        runs.append((f"monster{level}{mults}-cyclic", d, G.cyclic_sequence(d), 4))
    for make in (make_d1, make_d2, make_imaginary_only, make_huge):
        d = make()
        runs.append((make.__name__[5:], d, G.cyclic_sequence(d), 6))
    return runs


GRID = grid()


@pytest.mark.parametrize("name,datum,seq,depth", GRID, ids=[g[0] for g in GRID])
def test_clean_grid(name, datum, seq, depth):
    # realize_* raise AuditError on any problem; the audit is rerun to
    # pin its result on the graphs they return
    binf = G.realize_binfinity(datum, seq, depth)
    assert audit_binfinity_truncation(binf) == []
    for lam in lambdas(datum):
        hw = G.realize_highest_weight(datum, seq, lam, depth)
        assert hw.nodes[hw.root].wt == lam
        assert audit_binfinity_truncation(hw) == []


def test_grid_covers_every_family():
    assert len(GRID) == 6 * 3 + 3 * 2 + 4
    assert sum(1 for g in GRID for _ in lambdas(g[1])) == 300


def test_lowering_on_ties_is_an_audit_error(monkeypatch):
    # f acting on the left factor at phi = eps breaks B(lambda) without
    # taking raising out of the component: only the full audit sees it
    monkeypatch.setattr(
        tensor, "lowering_side", lambda phi, eps: tensor.LEFT if phi >= eps else tensor.RIGHT
    )
    d = make_d1()
    with pytest.raises(G.AuditError):
        G.realize_highest_weight(d, G.cyclic_sequence(d), d.weight(lam=(1, 1)), 4)


def test_relative_weights_in_messages(d1):
    # the B(lambda) root of weight lambda, and a node of weight
    # lambda + alpha_1 that no raising reaches: printed as alpha_1
    lam = d1.weight(lam=(1, 1))
    g = G.realize_highest_weight(d1, G.cyclic_sequence(d1), lam, 1)
    assert audit_binfinity_truncation(g) == []
    g.nodes[1].wt = lam + d1.alpha(0)
    g.nodes[1].e_ids = (None, None)
    assert audit_binfinity_truncation(g) == [
        f"node 1 has weight outside -Q+: {d1.alpha(0)}",
        "non-root node 1 admits no raising",
    ]


def test_full_problem_lists(d1):
    """The whole list, in order, for a second node of the root's weight
    that admits no raising, and for two nodes sharing one weight outside
    -Q+ (one Weight object, as generated graphs share them)."""
    g = G.realize_binfinity(d1, G.cyclic_sequence(d1), 2)
    g.nodes[1].wt = g.nodes[g.root].wt
    g.nodes[1].e_ids = (None, None)
    assert audit_binfinity_truncation(g) == [
        "non-root node 1 admits no raising",
        "weight-zero nodes [0, 1], expected exactly the root",
    ]

    g = G.realize_binfinity(d1, G.cyclic_sequence(d1), 2)
    g.nodes[1].wt = g.nodes[2].wt = d1.alpha(0)
    assert audit_binfinity_truncation(g) == [
        f"node 1 has weight outside -Q+: {d1.alpha(0)}",
        f"node 2 has weight outside -Q+: {d1.alpha(0)}",
    ]
