"""Closed-form membership tests for string components, and the oracle
that compares them against brute-force generation.

Two families are covered, each over its canonical index sequence:

* rank 2, Cartan matrix [[2, -a], [-b, -c]] with a, b >= 1 and c even
  nonnegative, sequence (1, 2, 1, 2, ...);
* Monster-type data truncated at a level L: one real index of degree -1
  and m(1), ..., m(L) imaginary indices of degrees 1..L, Cartan entries
  -(deg + deg'), block sequence with the real index at positions b(n).

The string model is a polyhedral realization (Nakashima-Zelevinsky,
Adv. Math. 1997): membership is one set of local inequalities over the
sequence, and one body, ``_StringModel._conditions``, evaluates it for
both families.  Rank 2 is its case of one imaginary index over the
cyclic sequence, and Monster (i) is (ii) at n = 0: the indices between
b(0) and b(1) pair to 0 with the real index.  A zero at a real slot
satisfies (ii) there, since <h_real, alpha_j> <= 0 for every imaginary
j, so the (ii) loop sums a window only behind a nonzero real variable.

Pairings are exact, read off the datum.  B(lam) sits inside
B(inf) (x) T_lam (x) C as (string) (x) t_lam (x) c, so a dominant lam
acts as a budget in front of position 1 -- <h_i, lam> is the room an
index has before its first occurrence -- and the highest-weight
predicate is the base one with that budget read off lam, only where a
condition needs it.  ``compare_predicate_with_bfs`` enumerates every
bounded string passing a predicate and diffs the set and its character
(weights summed from the sequence and the datum, not by the string
crystal) against the generated component -- no shared code path.  The
box holds C(positions + depth, depth) strings, tabulated by halves so
that each costs one tuple concatenation (``iter_bounded_strings``).

The window lemma: take a nonzero x_k at a position k that is not the
first occurrence of i_k; its window is the positions strictly between
the previous occurrence of i_k and k.  A member of either predicate,
with or without lam, has a nonzero entry in every such window.  Proof,
read off ``_conditions``: at a real slot b(n+1) an all-zero window
makes the (ii) sum 0 < x_{b(n+1)}; at an imaginary slot it leaves no
negative mass, so ``held`` is false and the string is rejected; lam
waives first occurrences only.  Over the rank-2 cyclic sequence every
window has length 1, so a member has no zero strictly between position
1 and its last nonzero position: the support-shape test both rank-2
predicates make first.  The oracle selects by the lemma before it calls
a predicate at all: ``window_candidates(seq)`` drops, in C, the box
strings with a run of W zeros starting at or past index F + 1 - W,
where F is the last first-occurrence index and W the longest window
past it; such a run, followed by a nonzero, covers that nonzero's whole
window.  ``compare_predicate_with_bfs(..., select=...)`` calls the
predicate on the rest alone, still enumerating the whole box: 787 of
the 17,550 strings of the (2;2,1) depth-4 box, 222 of them members.

The conditions are table-driven: they read the sequence's tables,
``IndexSequence.tables``, which the string crystal reads too (the Cartan
entries along the sequence, the positions of each index and the previous
occurrence at each position).  The real slots are the positions of
index 0, and the last real slot before a position is one ``bisect``
away.  The per-family,
position-by-position references they replace and the box built string
by string are kept in ``tests/closed_form_reference.py``, and
differential tests diff each against its replacement.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple
from functools import lru_cache
from itertools import combinations_with_replacement, compress, repeat, tee
from operator import itemgetter, mul

from .cartan import BorcherdsCartanDatum, Weight, is_int, make_datum
from .binfinity import (
    IndexSequence,
    MonsterParams,
    SequenceTables,
    cyclic_sequence,
    monster_block_sequence,
    monster_real_position,
    realize_binfinity,
    realize_highest_weight,
)
from .graph import weight_multiplicities


class MonsterConditionError(RuntimeError):
    """The interval between consecutive occurrences of an imaginary index
    did not contain exactly one real slot; the sequence of the string
    model (rank 2 or Monster-type) is malformed."""


class Rank2Params(namedtuple("Rank2Params", "a b c")):
    __slots__ = ()

    def __new__(cls, a, b, c):
        if not (all(map(is_int, (a, b, c))) and a >= 1 and b >= 1 and c >= 0 and c % 2 == 0):
            raise ValueError(f"need integers a, b >= 1 and an even c >= 0, got {a!r}, {b!r}, {c!r}")
        return tuple.__new__(cls, (a, b, c))


def rank2_datum(p: Rank2Params) -> BorcherdsCartanDatum:
    g = math.gcd(p.a, p.b)
    return make_datum(("1", "2"), ((2, -p.a), (-p.b, -p.c)), (p.b // g, p.a // g))


@lru_cache
def _rank2_model(p: Rank2Params) -> _StringModel:
    return _StringModel(cyclic_sequence(rank2_datum(p)))


def rank2_member(x, p: Rank2Params) -> bool:
    """Membership in the component of the zero string, rank 2.

    Over the sequence (1, 2, 1, 2, ...):
      (i)  a x_{2k} - x_{2k+1} >= 0 for all k >= 1;
      (ii) whenever x_{2k} > 0 with k >= 2, both x_{2k-1} > 0 and
           a x_{2k} - x_{2k+1} > 0.

    These are ``MonsterModel.member``'s conditions over the cyclic
    sequence: (i) is Monster (ii) at every n >= 0, and (ii) is (iii).

    Support shape: a member has no zero strictly between position 1
    and its last nonzero position, and so has every member of
    ``rank2_highest_weight_member``; this is the window lemma's cyclic
    case (module docstring).  The predicate tests it first.
    """
    return not (0 in x[1:] and x[-1]) and _rank2_model(p)._conditions(x)


def rank2_highest_weight_member(x, p: Rank2Params, lam: Weight) -> bool:
    """Membership for the highest-weight component, dominant lam:

      (a) 0 <= x_1 <= <h_1, lam>;
      (b) if x_2 > 0 and <h_2, lam> = 0, then x_1 > 0 and
          a x_2 - x_3 > 0.

    When <h_2, lam> = 0 the first imaginary variable behaves exactly
    like the later ones, so the k = 1 instance of the base condition
    (ii) -- support from the right and a strict gate to the left --
    applies to it as well; that is (b), ``MonsterModel``'s (b) over the
    cyclic sequence.  Dropping it admits strings the component provably
    avoids (e.g. (1, 1, 1) for a = 1, <h_1, lam> = 1, <h_2, lam> = 0,
    whose only lowering path would pass through the excluded (0, 1))."""
    return not (0 in x[1:] and x[-1]) and _rank2_model(p)._conditions(x, lam)


def monster_datum(p: MonsterParams) -> BorcherdsCartanDatum:
    """Datum with degrees (-1; 1 x m(1); ...; L x m(L)) and Cartan
    entries -(deg + deg'); this is the one place the degree arithmetic
    is baked in, every condition below reads pairings off the datum."""
    degrees = [-1]
    names = ["(-1,1)"]
    for d, mult in enumerate(p.multiplicities, start=1):
        for t in range(1, mult + 1):
            degrees.append(d)
            names.append(f"({d},{t})")
    matrix = tuple(tuple(-(di + dj) for dj in degrees) for di in degrees)
    return make_datum(names, matrix)


def _gate_slack(t: SequenceTables, x, n: int) -> int:
    """Slack of the supporting inequality (ii) at real slot n, read off
    the tables ``t`` of the sequence:

        -(sum_{b(n)<l<b(n+1)} <h_real, alpha_{i_l}> x_l) - x_{b(n+1)},

    with entries beyond the support read as zero."""
    real = t.occ[0]
    lo, hi = real[n], real[n + 1] - 1  # x[lo:hi] holds x_l for b(n) < l < b(n+1)
    return -sum(map(mul, t.rows[0][lo:hi], x[lo:hi])) - (x[hi] if hi < len(x) else 0)


class _StringModel:
    """A sequence starting with 0, the only real index of its datum;
    ``_conditions`` reads strings against the sequence's tables, whose
    real slots b(n) are the positions of index 0."""

    def __init__(self, sequence: IndexSequence):
        self.datum = sequence.datum
        self.sequence = sequence

    def _conditions(self, x, lam=None) -> bool:
        """(ii) and (iii) of ``MonsterModel.member``, (i) being (ii) at
        n = 0; with lam, also (a), and (iii) at first occurrences of i
        with <h_i, lam> = 0, whose budgets are read only once every other
        condition holds (without lam, none binds)."""
        support = len(x)
        t = self.sequence.tables(support + 1)  # real[n + 1] exists past the support, even for ()
        real, row0 = t.occ[0], t.rows[0]
        n = 0
        while real[n + 1] <= support:  # _gate_slack(t, x, n) < 0, inlined: the hot loop
            lo, hi = real[n], real[n + 1] - 1
            if x[hi] and -sum(map(mul, row0[lo:hi], x[lo:hi])) < x[hi]:  # a zero needs no mass
                return False
            n += 1
        idx, prev, rows = t.idx, t.prev, t.rows
        unpaid = []  # first occurrences that (iii) rejects unless lam pays
        for k in compress(range(support), x):
            i, start = idx[k], prev[k]  # start: just after the previous occurrence of i
            if i == 0 or start == 0 and lam is None:
                continue
            held = sum(map(mul, rows[i][start:k], x[start:k])) < 0
            if held and all(x[l] == 0 for l in range(start, k) if idx[l] != 0):
                n = bisect_right(real, k) - 1  # the last real slot before k
                first = bisect_right(real, start)  # the first real slot after start
                if start and first != n:
                    raise MonsterConditionError(
                        f"expected one real slot in ({start}, {k + 1}), "
                        f"found {list(range(first, n + 1))}"
                    )
                held = _gate_slack(t, x, n) > 0
            if not held:
                if start:
                    return False
                unpaid.append(i)
        pairing = self.datum.pairing
        return lam is None or (
            all(pairing(i, lam) for i in unpaid) and (not x or x[0] <= pairing(0, lam)))


class MonsterModel(_StringModel):
    """A Monster-type truncation bundled with its datum and block
    sequence; its predicates are the shared ``_conditions``."""

    def __init__(self, params: MonsterParams):
        self.params = params
        datum = monster_datum(params)
        super().__init__(monster_block_sequence(datum, params.level, params.multiplicities))

    def real_position(self, n: int) -> int:
        return monster_real_position(n, self.params.multiplicities)

    def member(self, x) -> bool:
        """Membership in the component of the zero string.

        (i)   the variable at the second real slot b(1) vanishes;
        (ii)  for every n >= 1 the imaginary mass between consecutive
              real slots supports the next real variable:
              -(sum_{b(n)<l<b(n+1)} <h_real, alpha_{i_l}> x_l) >= x_{b(n+1)};
        (iii) an imaginary variable may recur only across strictly
              negative pairing mass, and when that mass sits entirely on
              real slots the supporting inequality of (ii) must be strict
              at the unique real slot between the two occurrences.

        (i) is (ii) at n = 0, whose window pairs to 0 with the real
        index; a zero at a real slot meets (ii), as <h_real, alpha_j> <= 0
        for imaginary j.  Over the rank-2 cyclic sequence these are
        ``rank2_member``'s conditions.
        """
        return self._conditions(x)

    def highest_weight_member(self, x, lam: Weight) -> bool:
        """Base conditions plus, for dominant lam:

        (a) 0 <= x_1 <= <h_real, lam>;
        (b) a first occurrence k of an imaginary index with
            <h_i, lam> = 0 needs earlier support, some l < k with
            <h_i, alpha_{i_l}> < 0 and x_l > 0; in addition, when that
            support sits on real slots only (x_l = 0 for every earlier
            imaginary slot), the supporting inequality of (ii) at the
            real slot immediately before k must be strict.

        A first occurrence with <h_i, lam> = 0 is subject to the same
        mechanism as a repeat occurrence, with the lam budget playing
        the role of the previous occurrence: (b) is (iii) with its
        window opened at position 1.  Since <h_i, alpha_j> <= 0 for an
        imaginary i, "some negative term" is "negative mass"."""
        return self._conditions(x, lam)


def iter_bounded_strings(positions: int, max_height: int):
    """Every string of height <= max_height supported on the first
    ``positions`` positions, once each and without trailing zeros, by
    nondecreasing height.

    The positions split into a head of n1 = positions // 2 and a tail of
    n2 = positions - n1.  One table holds, by exact height, the stripped
    strings on n2 positions (a string of height h is a multiset of h
    positions); the heads are its entries of length <= n1.  A string of
    height h is a head of height h alone, or a head of height s < h
    padded to n1 followed by a tail of height h - s, so each costs one
    tuple concatenation."""
    n1 = positions // 2
    table = [[()]]
    for h in range(1, max_height + 1):
        row = []
        for c in combinations_with_replacement(range(positions - n1), h):
            x = [0] * (c[-1] + 1)
            for p in c:
                x[p] += 1
            row.append(tuple(x))
        table.append(row)
    for h in range(max_height + 1):
        yield from (x for x in table[h] if len(x) <= n1)
        for s in range(h):
            for head in table[s]:
                if len(head) <= n1:
                    yield from map((head + (0,) * (n1 - len(head))).__add__, table[h - s])


def window_candidates(seq: IndexSequence):
    """The window lemma's selection for the string model on ``seq``: a
    function mapping an iterator of strings without trailing zeros, such
    as the oracle's box, to those with no run of W zeros starting at or
    past index F + 1 - W (0-based), in order and in C.  F and W are read
    off the tables up to one cycle past the first full cycle, past which
    the windows repeat.  For W = 1 (rank 2) the test is ``all(x[F:])``,
    otherwise ``bytes(x).rfind(bytes(W))``, so entries must be below 256,
    as they are in any box that can be enumerated."""
    reach = len(seq.prefix) + len(seq.cycle)  # every index occurs by then
    prev = seq.tables(reach).prev
    last = max(k for k in range(reach) if not prev[k])
    width = max(k - prev[k] for k in range(last + 1, reach + len(seq.cycle)))
    start = max(last + 1 - width, 0)
    tail, zeros = itemgetter(slice(start, None)), bytes(width)

    def select(strings):
        strings, keys = tee(strings)
        if width == 1:  # twice as cheap as the bytes scan
            return compress(strings, map(all, map(tail, keys)))
        runs = map(bytes.rfind, map(bytes, keys), repeat(zeros))  # the last run's start, or -1
        return compress(strings, map(start.__gt__, runs))
    return select


def default_position_bound(seq: IndexSequence, depth: int) -> int:
    """Positions a depth-bounded generation can ever touch: each
    lowering extends the support by at most one cycle."""
    return len(seq.prefix) + (depth + 1) * len(seq.cycle)


class OracleReport(namedtuple(
        "OracleReport", "missing_in_bfs missing_in_predicate char predicate_char depth")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return (
            not self.missing_in_bfs
            and not self.missing_in_predicate
            and self.char == self.predicate_char
        )

    def summary(self) -> str:
        return (
            f"predicate-only {len(self.missing_in_bfs)}, "
            f"generation-only {len(self.missing_in_predicate)}, "
            f"multiplicities {'agree' if self.char == self.predicate_char else 'differ'} "
            f"({len(self.char)} weights, depth {self.depth})"
        )

    def to_json_dict(self) -> dict:
        return {
            "missing_in_bfs": [list(x) for x in self.missing_in_bfs],
            "missing_in_predicate": [list(x) for x in self.missing_in_predicate],
            "char": [
                {"wt": {"lam": list(w.lam), "rt": list(w.rt)}, "mult": mult}
                for w, mult in self.char
            ],
        }


def compare_predicate_with_bfs(
    member, datum, seq: IndexSequence, depth: int, lam: Weight | None = None, *, select=None
) -> OracleReport:
    """Diff a membership predicate against brute-force generation.

    Enumerates every string of height <= depth over the default position
    bound, keeps those passing ``member``, generates the component to
    the same depth (the highest-weight one when ``lam`` is given), and
    reports the set differences plus both per-weight multiplicity tables;
    the predicate side computes its weights on its own, from the sequence.

    ``select``, when given, maps the box's string iterator to the
    strings ``member`` is called on (``window_candidates(seq)`` for the
    closed-form predicates).  Its contract: it may drop only strings
    that ``member`` rejects, so the report is the one without it.  The
    whole box is enumerated either way.
    """
    box = iter_bounded_strings(default_position_bound(seq, depth), depth)
    passing = set(filter(member, box if select is None else select(box)))

    if lam is None:
        graph = realize_binfinity(datum, seq, depth)
        generated = {node.elt.x for node in graph.nodes}
    else:
        graph = realize_highest_weight(datum, seq, lam, depth)
        generated = {node.elt.factors[0].x for node in graph.nodes}
    shift = datum.zero_weight() if lam is None else lam

    def weight(x):  # wt(x) = lam - sum_k x_k alpha_{i_k}, read off the sequence alone
        rt = [0] * datum.size
        for i, v in zip(seq.indices(len(x)), x):
            rt[i] -= v
        return datum.weight(rt=rt) + shift

    return OracleReport(
        missing_in_bfs=sorted(passing - generated),
        missing_in_predicate=sorted(generated - passing),
        char=weight_multiplicities(graph),
        predicate_char=weight_multiplicities(map(weight, passing)),
        depth=depth,
    )
