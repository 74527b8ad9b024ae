"""Reference implementations of the closed-form membership predicates
and of the oracle box.

The predicates are the straightforward position-by-position
evaluations that the table-driven predicates of
``gkmcrystals.closed_form`` replace: every entry is read through
``_entry``, every index through ``IndexSequence.at`` and every real
slot through the b(n) formula, where the library reads real slots off
the index array.  They are kept, unchanged in substance, as the path the fast predicates are
diffed against (``test_closed_form_differential.py``).  The box
enumerator builds every string from its multiset, where the library
concatenates a padded head with a tabulated tail; it is diffed against
the library's (``test_enumeration_differential.py``).  The window
lemma's exact test and the bounds of its selection are read the same
way, position by position, and the library's selection is diffed
against them (``test_oracle_selection.py``).  Nothing in the library
calls any of these.
"""

from itertools import combinations_with_replacement

from gkmcrystals.closed_form import MonsterConditionError


def iter_bounded_strings(positions: int, max_height: int):
    """The oracle box built string by string: a string of height h is a
    multiset of h positions, counted out into a list."""
    yield ()
    for h in range(1, max_height + 1):
        for c in combinations_with_replacement(range(positions), h):
            x = [0] * (c[-1] + 1)
            for p in c:
                x[p] += 1
            yield tuple(x)


def _entry(x, k):
    return x[k - 1] if k <= len(x) else 0


def rank2_member(x, p) -> bool:
    top = len(x) // 2
    for k in range(1, top + 1):
        if p.a * _entry(x, 2 * k) - _entry(x, 2 * k + 1) < 0:
            return False
    for k in range(2, top + 1):
        if _entry(x, 2 * k) > 0:
            if _entry(x, 2 * k - 1) == 0:
                return False
            if p.a * _entry(x, 2 * k) - _entry(x, 2 * k + 1) <= 0:
                return False
    return True


def rank2_highest_weight_member(x, p, datum, lam) -> bool:
    if not rank2_member(x, p):
        return False
    if _entry(x, 1) > datum.pairing(0, lam):
        return False
    if _entry(x, 2) > 0 and datum.pairing(1, lam) == 0:
        if _entry(x, 1) == 0:
            return False
        if p.a * _entry(x, 2) - _entry(x, 3) <= 0:
            return False
    return True


def _previous_occurrence(seq, k: int) -> int:
    target = seq.at(k)
    for l in range(k - 1, 0, -1):
        if seq.at(l) == target:
            return l
    return 0


def window_lemma_holds(seq, x) -> bool:
    """The window lemma's exact test, position by position: every
    nonzero x_k whose index occurred before, last at l, has a nonzero
    entry at some position strictly between l and k."""
    for k in range(1, len(x) + 1):
        if x[k - 1]:
            l = _previous_occurrence(seq, k)
            if l and not any(x[l:k - 1]):
                return False
    return True


def window_bounds(seq):
    """(F, W) of ``window_candidates``, read through ``IndexSequence.at``
    over six cycles past the prefix: F the 0-based index of the last
    first occurrence, W the most positions strictly between two
    consecutive occurrences of one index, the later one past F."""
    end = len(seq.prefix) + 6 * len(seq.cycle)
    last = max(k for k in range(1, end + 1) if not _previous_occurrence(seq, k))
    width = max(k - _previous_occurrence(seq, k) - 1 for k in range(last + 1, end + 1))
    return last - 1, width


def _real_gate(model, x, n: int) -> int:
    lo, hi = model.real_position(n), model.real_position(n + 1)
    seq, datum = model.sequence, model.datum
    return -sum(
        datum.a(0, seq.at(l)) * _entry(x, l)
        for l in range(lo + 1, min(hi, len(x) + 1))
    )


def monster_member(model, x) -> bool:
    seq, datum = model.sequence, model.datum
    support = len(x)
    if _entry(x, model.real_position(1)) != 0:
        return False
    n = 1
    while model.real_position(n + 1) <= support:
        if _real_gate(model, x, n) < _entry(x, model.real_position(n + 1)):
            return False
        n += 1
    for k in range(1, support + 1):
        if _entry(x, k) == 0 or seq.at(k) == 0:
            continue
        prev = _previous_occurrence(model.sequence, k)
        if prev == 0:
            continue
        i = seq.at(k)
        mass = sum(
            datum.a(i, seq.at(l)) * _entry(x, l) for l in range(prev + 1, k)
        )
        if mass >= 0:
            return False
        if all(
            _entry(x, l) == 0
            for l in range(prev + 1, k)
            if seq.at(l) != 0
        ):
            slots = []
            n = 0
            while model.real_position(n) < k:
                if prev < model.real_position(n):
                    slots.append(n)
                n += 1
            if len(slots) != 1:
                raise MonsterConditionError(
                    f"expected one real slot in ({prev}, {k}), found {slots}"
                )
            if _real_gate(model, x, slots[0]) <= _entry(
                x, model.real_position(slots[0] + 1)
            ):
                return False
    return True


def monster_highest_weight_member(model, x, lam) -> bool:
    if not monster_member(model, x):
        return False
    seq, datum = model.sequence, model.datum
    if _entry(x, 1) > datum.pairing(0, lam):
        return False
    for k in range(1, len(x) + 1):
        i = seq.at(k)
        if (
            _entry(x, k) == 0
            or i == 0
            or datum.pairing(i, lam) != 0
            or _previous_occurrence(model.sequence, k) != 0
        ):
            continue
        if not any(
            datum.a(i, seq.at(l)) < 0 and _entry(x, l) > 0
            for l in range(1, k)
        ):
            return False
        if all(_entry(x, l) == 0 for l in range(1, k) if seq.at(l) != 0):
            n = 0
            while model.real_position(n + 1) < k:
                n += 1
            if _real_gate(model, x, n) <= _entry(x, model.real_position(n + 1)):
                return False
    return True
