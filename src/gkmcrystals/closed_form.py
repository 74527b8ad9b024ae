"""Closed-form membership tests for string components, and the oracle
that compares them against brute-force generation.

Two families are covered, each over its canonical index sequence:

* rank 2, Cartan matrix [[2, -a], [-b, -c]] with a, b >= 1 and c even
  nonnegative, sequence (1, 2, 1, 2, ...);
* Monster-type data truncated at a level L: one real index of degree -1
  and m(1), ..., m(L) imaginary indices of degrees 1..L, Cartan entries
  -(deg + deg'), block sequence with the real index at positions b(n).

The membership conditions are evaluated with exact pairings taken from
the datum; the corresponding highest-weight variants add the bounds
imposed by a dominant weight.  ``compare_predicate_with_bfs`` enumerates
every bounded string passing a predicate and diffs the set against the
generated component -- the two computations share no code path.

The predicates are table-driven, so one test costs O(support): the
rank-2 ones index the string directly, the Monster-type ones read
per-model tables of the index array, the real slots b(n), the previous
occurrence of every position and the Cartan entries along the sequence.
The position-by-position reference evaluation they replace is kept in
the test suite (``tests/closed_form_reference.py``), and a differential
test diffs the two on every string of the oracle boxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from operator import mul

from .cartan import BorcherdsCartanDatum, Weight, make_datum
from .binfinity import (
    IndexSequence,
    StringCrystal,
    monster_block_sequence,
    monster_real_position,
    realize_binfinity,
    realize_highest_weight,
)
from .graph import weight_multiplicities


class MonsterConditionError(RuntimeError):
    """The interval between consecutive occurrences of an imaginary index
    did not contain exactly one real slot; the sequence is malformed."""


@dataclass(frozen=True)
class Rank2Params:
    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a < 1 or self.b < 1:
            raise ValueError("a and b must be positive")
        if self.c < 0 or self.c % 2:
            raise ValueError("c must be even and nonnegative")


def rank2_datum(p: Rank2Params) -> BorcherdsCartanDatum:
    g = math.gcd(p.a, p.b)
    return make_datum(("1", "2"), ((2, -p.a), (-p.b, -p.c)), (p.b // g, p.a // g))


def rank2_member(x, p: Rank2Params) -> bool:
    """Membership in the component of the zero string, rank 2.

    Over the sequence (1, 2, 1, 2, ...):
      (i)  a x_{2k} - x_{2k+1} >= 0 for all k >= 1;
      (ii) whenever x_{2k} > 0 with k >= 2, both x_{2k-1} > 0 and
           a x_{2k} - x_{2k+1} > 0.
    """
    a, n = p.a, len(x)
    for k in range(1, n, 2):  # x[k] is x_{2j} for j = (k + 1) / 2
        v = x[k]
        gate = a * v - (x[k + 1] if k + 1 < n else 0)
        if gate < 0:
            return False
        if v > 0 and k > 1 and (x[k - 1] == 0 or gate <= 0):
            return False
    return True


def rank2_highest_weight_member(x, p: Rank2Params, datum, lam: Weight) -> bool:
    """Membership for the highest-weight component, dominant lam:

      (a) 0 <= x_1 <= <h_1, lam>;
      (b) if x_2 > 0 and <h_2, lam> = 0, then x_1 > 0 and
          a x_2 - x_3 > 0.

    When <h_2, lam> = 0 the first imaginary variable behaves exactly
    like the later ones, so the k = 1 instance of the base condition
    (ii) -- support from the right and a strict gate to the left --
    applies to it as well; that is the second half of (b).  Dropping it
    admits strings the component provably avoids (e.g. (1, 1, 1) for
    a = 1, <h_1, lam> = 1, <h_2, lam> = 0, whose only lowering path
    would pass through the excluded (0, 1))."""
    if not rank2_member(x, p):
        return False
    x1, x2, x3 = (*x[:3], 0, 0, 0)[:3]
    if x1 > datum.pairing(0, lam):
        return False
    if x2 > 0 and datum.pairing(1, lam) == 0:
        if x1 == 0:
            return False
        if p.a * x2 - x3 <= 0:
            return False
    return True


@dataclass(frozen=True)
class MonsterParams:
    level: int
    multiplicities: tuple

    def __post_init__(self):
        object.__setattr__(self, "multiplicities", tuple(int(v) for v in self.multiplicities))
        if self.level < 1 or len(self.multiplicities) != self.level:
            raise ValueError("need multiplicities m(1..level)")
        if any(v < 1 for v in self.multiplicities):
            raise ValueError("multiplicities must be positive")


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


class _SequenceTables:
    """Per-position tables of a Monster-type model for positions
    0..length-1 (position p holds x_{p+1}):

    * ``idx[p]``    the index i_{p+1};
    * ``prev[p]``   the previous position carrying the same index, -1 if
      there is none;
    * ``pair[i][p]`` the Cartan entry a(i, i_{p+1}); ``pair[0]`` is row 0
      read along the sequence;
    * ``real[n]``   the position b(n) - 1 of real slot n, for every n up
      to the first slot at or beyond ``length``;
    * ``slots[p]``  the number of real slots at positions <= p.
    """

    def __init__(self, model, length: int):
        seq, cartan = model.sequence, model.datum.cartan
        self.sequence = seq
        self.idx = idx = seq.indices(length)[:length]
        self.pair = [[row[i] for i in idx] for row in cartan]
        last = {}
        self.prev = prev = []
        for p, i in enumerate(idx):
            prev.append(last.get(i, -1))
            last[i] = p
        self.real = real = [model.real_position(0) - 1]
        while real[-1] < length:
            real.append(model.real_position(len(real)) - 1)
        self.slots = slots = []
        n = 0
        for p in range(length):
            while real[n] <= p:
                n += 1
            slots.append(n)

    def gate_slack(self, x, n: int) -> int:
        """Slack of the supporting inequality (ii) at real slot n:

            -(sum_{b(n)<l<b(n+1)} <h_real, alpha_{i_l}> x_l) - x_{b(n+1)},

        with entries beyond the support read as zero."""
        lo, hi = self.real[n] + 1, self.real[n + 1]
        return -sum(map(mul, self.pair[0][lo:hi], x[lo:hi])) - (x[hi] if hi < len(x) else 0)


class MonsterModel:
    """A Monster-type truncation bundled with its datum and sequence.

    The predicates read the string against per-position tables of the
    sequence (index array, previous occurrences, Cartan entries, real
    slots), built on first use and rebuilt longer when a longer string
    arrives or when ``sequence`` has been replaced.
    """

    def __init__(self, params: MonsterParams):
        self.params = params
        self.datum = monster_datum(params)
        self.sequence = monster_block_sequence(
            self.datum, params.level, params.multiplicities
        )
        self._tables = None

    def real_position(self, n: int) -> int:
        return monster_real_position(n, self.params.multiplicities)

    def _tables_for(self, length: int) -> _SequenceTables:
        """Tables of the current sequence covering at least ``length``
        positions; a rebuild at least doubles the covered length."""
        t = self._tables
        if t is None or len(t.idx) < length or t.sequence is not self.sequence:
            t = self._tables = _SequenceTables(self, max(length, 2 * len(t.idx) if t else 16))
        return t

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
        """
        support = len(x)
        t = self._tables_for(support)
        real, row0 = t.real, t.pair[0]
        if real[1] < support and x[real[1]] != 0:
            return False
        n = 1
        while real[n + 1] < support:  # t.gate_slack(x, n) < 0, inlined: the hot loop
            lo, hi = real[n] + 1, real[n + 1]
            if -sum(map(mul, row0[lo:hi], x[lo:hi])) < x[hi]:
                return False
            n += 1
        idx, prev = t.idx, t.prev
        for k in compress(range(support), x):
            i = idx[k]
            if i == 0:
                continue
            start = prev[k] + 1  # just after the previous occurrence of i
            if start == 0:
                continue
            if sum(map(mul, t.pair[i][start:k], x[start:k])) >= 0:
                return False
            if all(x[l] == 0 for l in range(start, k) if idx[l] != 0):
                # the real slots strictly between the occurrences: first..stop-1
                first, stop = t.slots[start - 1], t.slots[k - 1]
                if stop - first != 1:
                    raise MonsterConditionError(
                        f"expected one real slot in ({start}, {k + 1}), "
                        f"found {list(range(first, stop))}"
                    )
                if t.gate_slack(x, first) <= 0:
                    return False
        return True

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
        the role of the previous occurrence; the strictness clause
        mirrors the one in (iii) and is pinned down by the generation
        oracle."""
        if not self.member(x):
            return False
        datum = self.datum
        if (x[0] if x else 0) > datum.pairing(0, lam):
            return False
        t = self._tables_for(len(x))
        idx, prev = t.idx, t.prev
        for k in compress(range(len(x)), x):
            i = idx[k]
            if i == 0 or datum.pairing(i, lam) != 0 or prev[k] != -1:
                continue
            row = t.pair[i]
            if not any(row[l] < 0 and x[l] > 0 for l in range(k)):
                return False
            if all(x[l] == 0 for l in range(k) if idx[l] != 0):
                n = t.slots[k - 1] - 1 if k else 0  # last real slot before k
                if t.gate_slack(x, n) <= 0:
                    return False
        return True


def known_j_coefficients() -> dict:
    """Coefficients c(i) of j(q) - 744 used for display and sanity checks
    of user-supplied multiplicities; full-scale index sets are far beyond
    enumeration, so models take small stand-in multiplicities."""
    return {-1: 1, 1: 196884, 2: 21493760}


def _compositions_lex(total: int, positions: int):
    """All tuples of ``positions`` nonnegative ints summing to ``total``,
    in ascending lexicographic order."""
    if positions == 0:
        if total == 0:
            yield ()
        return
    x = [0] * positions
    x[-1] = total
    while True:
        yield tuple(x)
        right = x[-1]
        j = positions - 2
        while j >= 0 and right == 0:
            right += x[j]
            j -= 1
        if j < 0:
            return
        x[j] += 1
        for l in range(j + 1, positions):
            x[l] = 0
        x[-1] = right - 1


def iter_bounded_strings(positions: int, max_height: int):
    """Graded lexicographic enumeration: by total height, then lex."""
    for h in range(max_height + 1):
        yield from _compositions_lex(h, positions)


def default_position_bound(seq: IndexSequence, depth: int) -> int:
    """Positions a depth-bounded generation can ever touch: each
    lowering extends the support by at most one cycle."""
    return len(seq.prefix) + (depth + 1) * len(seq.cycle)


def _strip(x):
    n = len(x)
    while n and x[n - 1] == 0:
        n -= 1
    return x[:n]


@dataclass
class OracleReport:
    missing_in_bfs: list
    missing_in_predicate: list
    char: list
    predicate_char: list
    depth: int
    position_bound: int

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
    member, datum, seq: IndexSequence, depth: int, lam: Weight | None = None,
    position_bound: int | None = None,
) -> OracleReport:
    """Diff a membership predicate against brute-force generation.

    Enumerates every string of height <= depth over the position bound,
    keeps those passing ``member``, generates the component to the same
    depth (the highest-weight one when ``lam`` is given), and reports
    the set differences plus both per-weight multiplicity tables.
    """
    bound = position_bound if position_bound is not None else default_position_bound(seq, depth)
    passing = set()
    for x in iter_bounded_strings(bound, depth):
        xs = _strip(x)
        if member(xs):
            passing.add(xs)

    crystal = StringCrystal(datum, seq)
    if lam is None:
        graph = realize_binfinity(datum, seq, depth)
        generated = {node.elt.x for node in graph.nodes}
        shift = datum.zero_weight()
    else:
        graph = realize_highest_weight(datum, seq, lam, depth)
        generated = {node.elt.factors[0].x for node in graph.nodes}
        shift = lam

    predicate_counts = {}
    for xs in passing:
        w = crystal.wt(crystal.element(xs)) + shift
        predicate_counts[w] = predicate_counts.get(w, 0) + 1
    predicate_char = sorted(predicate_counts.items(), key=lambda kv: kv[0].sort_key())

    return OracleReport(
        missing_in_bfs=sorted(passing - generated),
        missing_in_predicate=sorted(generated - passing),
        char=weight_multiplicities(graph),
        predicate_char=predicate_char,
        depth=depth,
        position_bound=bound,
    )
