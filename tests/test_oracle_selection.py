"""The oracle's candidate selection, ``window_candidates``, diffed
against the window lemma's exact test, against the predicates and
against the unselected oracle, for both closed-form families.

``compare_predicate_with_bfs(..., select=window_candidates(seq))``
calls the predicates only on the box strings without a run of W zeros
starting at or past index F + 1 - W.  Its contract is that it drops only
strings the predicate rejects, so the report is the one without it.
The box strings never end in a zero.  Over the rank-2 cyclic sequence
W = 1 and F = 1, and the selection is the predicates' first test,
``not (0 in x[1:] and x[-1])``.  ``tests/test_acceptance.py`` and the
closed-form tests call the oracle without a selection and stay the
reference path."""

from itertools import product

import pytest

import gkmcrystals as G
from gkmcrystals.closed_form import default_position_bound, window_candidates

import closed_form_reference as ref

# the rank-2 data of test_closed_form_sweep, and of gkmcbench/menu.py's
# oracle menu (RANK2 at depths 5-7)
SWEEP = [(abc, depth) for abc in product((1, 2, 3), (1, 2, 3), (0, 2, 4)) for depth in (4, 5)]
BENCH = [(abc, depth) for abc in ((1, 1, 0), (1, 2, 2), (2, 1, 4), (3, 3, 2))
         for depth in (5, 6, 7)]
# every rank-2 datum has the cyclic sequence (1, 2, 1, 2, ...)
RANK2_SEQ = G.cyclic_sequence(G.rank2_datum(G.Rank2Params(1, 1, 0)))


def _box_shape(abc, depth):
    seq = G.cyclic_sequence(G.rank2_datum(G.Rank2Params(*abc)))
    return default_position_bound(seq, depth), depth


BOXES = sorted({_box_shape(abc, depth) for abc, depth in SWEEP + BENCH})


@pytest.mark.parametrize("positions,depth", BOXES, ids=lambda v: str(v))
def test_selection_is_the_predicates_support_test(positions, depth):
    box = list(G.iter_bounded_strings(positions, depth))
    want = [x for x in box if not (0 in x[1:] and x[-1])]
    assert list(window_candidates(RANK2_SEQ)(G.iter_bounded_strings(positions, depth))) == want
    assert 0 < len(want) < len(box)


def _rank2_reports(abc, lam, depth, select=None):
    """The oracle's report on rank-2 ``abc`` with ``select`` (by default
    the window selection) and without, for B(inf) (``lam`` None) or
    B(lam)."""
    p = G.Rank2Params(*abc)
    datum = G.rank2_datum(p)
    seq = G.cyclic_sequence(datum)
    if lam is None:
        member = lambda x: G.rank2_member(x, p)
    else:
        lam = datum.weight(lam=list(lam))
        member = lambda x: G.rank2_highest_weight_member(x, p, lam)
    select = select or window_candidates(seq)
    return tuple(G.compare_predicate_with_bfs(member, datum, seq, depth, lam=lam, select=s)
                 for s in (select, None))


LAMBDAS = [None, (1, 0), (0, 1), (1, 1)]
CASES = [(abc, lam) for abc in ((1, 1, 0), (1, 2, 2), (2, 1, 4), (3, 3, 2)) for lam in LAMBDAS]


@pytest.mark.parametrize("abc,lam", CASES, ids=lambda v: str(v))
def test_selected_report_is_the_unselected_one(abc, lam):
    selected, unselected = _rank2_reports(abc, lam, 6)
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
        selected, unselected = _rank2_reports(abc, lam, 5, PLANTED[name])
        caught += selected != unselected
    assert caught, f"{name} passed the differential test"
    selected, _ = _rank2_reports((1, 1, 0), None, 5, PLANTED[name])
    assert (0, 1) in selected.missing_in_predicate and not selected.ok


# Monster-type truncations at levels 1-3; (2;2,1) and (3;1,1,1) are in
# gkmcbench/menu.py's oracle menu
MONSTER = [(1, (1,)), (1, (2,)), (2, (1, 1)), (2, (2, 1)), (2, (1, 2)), (3, (1, 1, 1))]


def _model(level, mult):
    return G.MonsterModel(G.MonsterParams(level, mult))


def _lambdas(datum):
    """None, Lambda_0, 2 Lambda_0, and Lambda_i for the first and the
    last imaginary index."""
    real = datum.fundamental(0)
    return [None, real, real.scaled(2), datum.fundamental(1), datum.fundamental(datum.size - 1)]


def _predicate(model, lam):
    return model.member if lam is None else lambda x: model.highest_weight_member(x, lam)


def _zero_run_selection(start, width):
    """The window selection spelled out in Python: drop a string with
    ``width`` zeros in a row starting at index ``start`` or later."""
    zeros = bytes(width)
    return lambda strings: (x for x in strings if bytes(x).find(zeros, max(start, 0)) < 0)


@pytest.mark.parametrize("level,mult", MONSTER, ids=str)
def test_monster_selection_is_the_zero_run_test(level, mult):
    seq = _model(level, mult).sequence
    last, width = ref.window_bounds(seq)
    box = list(G.iter_bounded_strings(default_position_bound(seq, 4), 4))
    want = list(_zero_run_selection(last + 1 - width, width)(box))
    assert list(window_candidates(seq)(iter(box))) == want
    assert 0 < len(want) < len(box)


@pytest.mark.parametrize("level,mult", MONSTER, ids=str)
def test_monster_selection_keeps_every_member(level, mult):
    # the depth-4 box holds every box of depths 0-3: fewer positions and
    # a lower height
    model = _model(level, mult)
    seq = model.sequence
    box = list(G.iter_bounded_strings(default_position_bound(seq, 4), 4))
    kept = set(window_candidates(seq)(box))
    exact = {x for x in box if ref.window_lemma_holds(seq, x)}
    assert exact <= kept
    outside = [x for x in box if x not in exact]
    for lam in _lambdas(model.datum):
        member = _predicate(model, lam)
        assert not [x for x in outside if member(x)], lam


def _monster_reports(model, lam, depth, select):
    return tuple(
        G.compare_predicate_with_bfs(
            _predicate(model, lam), model.datum, model.sequence, depth, lam=lam, select=s)
        for s in (select, None))


MONSTER_DEPTHS = [(level, mult, depth) for level, mult in MONSTER for depth in range(5)]


@pytest.mark.parametrize("level,mult,depth", MONSTER_DEPTHS, ids=str)
def test_monster_selected_report_is_the_unselected_one(level, mult, depth):
    model = _model(level, mult)
    for lam in _lambdas(model.datum):
        selected, unselected = _monster_reports(
            model, lam, depth, window_candidates(model.sequence))
        assert selected == unselected, lam
        assert selected.ok, selected.summary()


@pytest.mark.parametrize("shift", ["width - 1", "start - 1"])
@pytest.mark.parametrize("level,mult", [(2, (1, 1)), (2, (2, 1)), (3, (1, 1, 1))], ids=str)
def test_a_monster_selection_that_drops_members_is_caught(level, mult, shift):
    model = _model(level, mult)
    last, width = ref.window_bounds(model.sequence)
    start = last + 1 - width
    planted = (_zero_run_selection(start, width - 1) if shift == "width - 1"
               else _zero_run_selection(start - 1, width))
    selected, unselected = _monster_reports(model, None, 3, planted)
    assert selected != unselected and not selected.ok
    assert selected.missing_in_predicate and not selected.missing_in_bfs
