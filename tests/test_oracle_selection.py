"""The rank-2 oracle's candidate selection, ``rank2_candidates``, diffed
against the predicates' own support test and against the unselected
oracle.

``compare_predicate_with_bfs(..., select=rank2_candidates)`` calls the
rank-2 predicates only on the box strings of a member's support shape.
Its contract is that it drops only strings the predicate rejects, so
the report is the one without it.  The box strings never end in a zero,
and on them ``all(x[1:])`` is the predicates' first test,
``not (0 in x[1:] and x[-1])``.  ``tests/test_acceptance.py`` and the
closed-form tests call the oracle without a selection and stay the
reference path."""

from itertools import product

import pytest

import gkmcrystals as G
from gkmcrystals.closed_form import default_position_bound, rank2_candidates

# the rank-2 data of test_closed_form_sweep, and of gkmcbench/menu.py's
# oracle menu (RANK2 at depths 5-7)
SWEEP = [(abc, depth) for abc in product((1, 2, 3), (1, 2, 3), (0, 2, 4)) for depth in (4, 5)]
BENCH = [(abc, depth) for abc in ((1, 1, 0), (1, 2, 2), (2, 1, 4), (3, 3, 2))
         for depth in (5, 6, 7)]


def _box_shape(abc, depth):
    seq = G.cyclic_sequence(G.rank2_datum(G.Rank2Params(*abc)))
    return default_position_bound(seq, depth), depth


BOXES = sorted({_box_shape(abc, depth) for abc, depth in SWEEP + BENCH})


@pytest.mark.parametrize("positions,depth", BOXES, ids=lambda v: str(v))
def test_selection_is_the_predicates_support_test(positions, depth):
    box = list(G.iter_bounded_strings(positions, depth))
    want = [x for x in box if not (0 in x[1:] and x[-1])]
    assert list(rank2_candidates(G.iter_bounded_strings(positions, depth))) == want
    assert 0 < len(want) < len(box)


def _reports(select, abc, lam, depth):
    """The oracle's report on rank-2 ``abc`` with ``select`` and without,
    for B(inf) (``lam`` None) or B(lam)."""
    p = G.Rank2Params(*abc)
    datum = G.rank2_datum(p)
    seq = G.cyclic_sequence(datum)
    if lam is None:
        member = lambda x: G.rank2_member(x, p)
    else:
        lam = datum.weight(lam=list(lam))
        member = lambda x: G.rank2_highest_weight_member(x, p, lam)
    return tuple(G.compare_predicate_with_bfs(member, datum, seq, depth, lam=lam, select=s)
                 for s in (select, None))


LAMBDAS = [None, (1, 0), (0, 1), (1, 1)]
CASES = [(abc, lam) for abc in ((1, 1, 0), (1, 2, 2), (2, 1, 4), (3, 3, 2)) for lam in LAMBDAS]


@pytest.mark.parametrize("abc,lam", CASES, ids=lambda v: str(v))
def test_selected_report_is_the_unselected_one(abc, lam):
    selected, unselected = _reports(rank2_candidates, abc, lam, 6)
    assert selected == unselected
    assert selected.ok, selected.summary()


# selections that break the contract: each drops members, (0, 1) among them
PLANTED = {
    "all(x)": lambda strings: (x for x in strings if all(x)),
    "all(x[:-1])": lambda strings: (x for x in strings if all(x[:-1])),
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_a_selection_that_drops_members_is_caught(name):
    caught = 0
    for abc, lam in CASES:
        selected, unselected = _reports(PLANTED[name], abc, lam, 5)
        caught += selected != unselected
    assert caught, f"{name} passed the differential test"
    selected, _ = _reports(PLANTED[name], (1, 1, 0), None, 5)
    assert (0, 1) in selected.missing_in_predicate and not selected.ok
