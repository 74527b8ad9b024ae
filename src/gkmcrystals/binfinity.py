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

Beyond the support all the maximized quantities are constant, so only
the first occurrence of i past the support end is read there; it lies
within one full cycle of the sequence.

The sequence owns the tables a string is read against
(``IndexSequence.tables``): its index array, grown by doubling, the
previous occurrence of the index at each position, and per index i the
entries <h_i, alpha_{i_k}> along the array, the positions where i
occurs, and the plan ``_index_stats`` reads (those two, whether i is
real, and a_ii).  They record the longest support they cover (the
array length minus one cycle), so a string is checked against them
with one comparison, and they are rebuilt only when a longer string
arrives.  The index array is kept there and nowhere else:
``IndexSequence.indices`` hands out the ``idx`` of the current tables.
Every crystal over the sequence reads the same tables, and so do the
closed-form conditions of ``closed_form``.  One routine,
``_index_stats``, gives all of an index's statistics from its plan in
one C-level prefix-sum pass over a string: for a real index, eps_i,
phi_i and both maximizing positions at the occurrences of i in the
support and the first one past it; for an imaginary index, the lowering
slot (the first occurrence whose prefix sum equals the total) and the
raising test there.  ``stats`` runs it once per index, builds the
weight from the index array and is the one builder of the operator
targets: f_i adds 1 at the lowering slot (no negative entry, no
trailing zero), e_i takes 1 from the positive entry at the raising slot
and strips trailing zeros.  wt, eps, phi, e and f read their entry of
the last element's ``stats`` (held by identity), so a product leaf read
through all five costs one ``stats`` call, which builds its weight once.
phi_i is maximized by its own formula, not derived as eps_i + <h_i, wt>,
so that identity, which ``check_axioms`` verifies, stays a check.
Each distinct weight is built once per crystal and handed out again.

Elements carry their sequence's ``seq_id``, derived from its reduced
(prefix, cycle) -- the cycle cut to its primitive period and the
prefix's tail rotated into it: every spelling of one sequence gives
equal elements, and strings over different sequences are never equal.

The connected component of the zero string realizes B(infinity); the
component of (zero string) ⊗ t_lambda ⊗ c realizes the highest-weight
crystal B(lambda).  Both realizations are audited at generation time,
by one audit that reads weights relative to the root, and the morphism
witnesses of this module (highest-weight projection, embedding into the
product with an elementary crystal, splitting of a sum of highest
weights) are rebuilt by path transport and re-checked edge by edge.
The embedding's product reads its B(infinity) factor off the graph's
tables in place (``graph.GraphCrystal``, on node ids), not the strings.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from itertools import accumulate
from operator import gt, mul

from .cartan import BorcherdsCartanDatum, Weight, is_int
from .checks import CheckReport, MorphismWitness, check_injective, check_morphism
from .crystals import (
    Crystal,
    ElementaryCrystal,
    ShiftCrystal,
    ShiftElement,
    StringElement,
    TensorElement,
    UnitCrystal,
)
from .graph import CUT, CrystalGraph, GraphCrystal, bfs_component, validate_structure
from .tensor import TensorCrystal


class AuditError(RuntimeError):
    """A generated realization failed its structural audit; the crystal
    operators are inconsistent (this is a bug, not bad user input)."""


class SequenceTables(namedtuple("SequenceTables", "idx rows occ prev plans reach")):
    """A datum read along the index array ``idx`` of a sequence (entry p
    is i_{p+1}), per index i:

    * ``rows[i]``  the entries <h_i, alpha_{i_k}> along ``idx``;
    * ``occ[i]``   the 1-based positions k <= len(idx) with i_k = i;
    * ``prev[p]``  the position of the previous occurrence of i_{p+1}, 0 if none;
    * ``plans[i]`` what ``_index_stats`` reads: (rows[i], occ[i], is_real, a_ii);
    * ``reach``    the longest support covered, len(idx) - len(cycle):
      scan_bound(n) <= len(idx) iff n <= reach.
    """

    __slots__ = ()


class IndexSequence:
    """Eventually periodic index sequence, 1-based positions.

    Every entry must be an index of the datum, an ``int`` (not converted),
    and every index must appear in the cycle, which is how all the
    constructors guarantee "every index appears infinitely often".
    """

    def __init__(self, datum: BorcherdsCartanDatum, prefix, cycle):
        prefix, cycle = tuple(prefix), tuple(cycle)
        if not cycle:
            raise ValueError("the cycle must be nonempty")
        for i in prefix + cycle:
            if not (is_int(i) and 0 <= i < datum.size):
                raise ValueError(f"sequence entry {i!r} is not an index 0..{datum.size - 1}")
        missing = sorted(set(datum.indices()) - set(cycle))
        if missing:
            names = ", ".join(datum.index_names[i] for i in missing)
            raise ValueError(f"indices never recur in the cycle: {names}")
        self.datum = datum
        self.prefix = prefix
        self.cycle = cycle
        self.seq_id = str(_reduced(prefix, cycle))  # a str, whose hash is cached
        self._tables = None

    def at(self, k: int) -> int:
        """Index at position k >= 1."""
        if k < 1:
            raise ValueError("positions are 1-based")
        if k <= len(self.prefix):
            return self.prefix[k - 1]
        return self.cycle[(k - len(self.prefix) - 1) % len(self.cycle)]

    def indices(self, n: int) -> list:
        """The index array of the current tables, grown to cover at least
        positions 1..n: entry p is i_{p+1}.  It may be longer than n and
        must not be mutated."""
        return self.tables(max(n - len(self.cycle), 0)).idx

    def scan_bound(self, support_len: int) -> int:
        """Position after which every maximized quantity is constant."""
        return max(support_len, len(self.prefix)) + len(self.cycle)

    def tables(self, support: int) -> SequenceTables:
        """Tables covering ``scan_bound(support)``, built once and rebuilt
        only when a longer support arrives, over an index array at least
        twice as long as the last one."""
        t = self._tables
        if t is None or support > t.reach:
            length = max(self.scan_bound(support), 2 * len(t.idx) if t else 0, 16)
            reps = -(-(length - len(self.prefix)) // len(self.cycle))
            idx = list(self.prefix + self.cycle * reps)
            occ, prev = [[] for _ in range(self.datum.size)], []
            for k, i in enumerate(idx, start=1):
                prev.append(occ[i][-1] if occ[i] else 0)
                occ[i].append(k)
            rows = [list(map(row.__getitem__, idx)) for row in self.datum.cartan]
            plans = [(r, o, is_real, a_ii)
                     for r, o, (is_real, a_ii, _) in zip(rows, occ, self.datum.index_rows)]
            reach = len(idx) - len(self.cycle)
            t = self._tables = SequenceTables(idx, rows, occ, prev, plans, reach)
        return t

    def __repr__(self):
        return f"IndexSequence{self.seq_id}"


def _reduced(prefix: tuple, cycle: tuple) -> tuple:
    """The shortest (prefix, cycle) spelling the same sequence: the cycle
    cut to its primitive period, then the prefix's tail rotated into it."""
    n = len(cycle)
    period = next(p for p in range(1, n + 1) if n % p == 0 and cycle[:p] * (n // p) == cycle)
    cycle = cycle[:period]
    while prefix and prefix[-1] == cycle[-1]:
        prefix, cycle = prefix[:-1], cycle[-1:] + cycle[:-1]
    return prefix, cycle


def cyclic_sequence(datum) -> IndexSequence:
    return IndexSequence(datum, (), datum.indices())


def explicit_sequence(datum, prefix, cycle) -> IndexSequence:
    return IndexSequence(datum, prefix, cycle)


def monster_real_position(n: int, multiplicities) -> int:
    """Position b(n) of the (n+1)-th occurrence of the real index in a
    Monster-type block sequence:

        b(n) = n m(1) + (n-1) m(2) + ... + m(n) + n + 1

    with the multiplicity list implicitly zero-extended beyond its level.
    """
    m = tuple(multiplicities)
    return sum((n - i) * m[i] for i in range(min(n, len(m)))) + n + 1


class MonsterParams(namedtuple("MonsterParams", "level multiplicities")):
    """Monster-type block parameters, the one check of them: an ``int``
    level L >= 1 and a list or tuple of L positive ``int`` multiplicities
    m(1..L), kept as a tuple; nothing is converted."""

    __slots__ = ()

    def __new__(cls, level, multiplicities):
        m = multiplicities
        if not (is_int(level) and level >= 1 and isinstance(m, (list, tuple)) and len(m) == level
                and all(is_int(v) and v >= 1 for v in m)):
            raise ValueError("need an integer level L >= 1 and L positive integer "
                             f"multiplicities, got {level!r} and {m!r}")
        return tuple.__new__(cls, (level, tuple(m)))


def monster_block_sequence(datum, level: int, multiplicities) -> IndexSequence:
    """Block sequence for a Monster-type datum truncated at ``level``.

    The datum must list the single real index first and then the
    imaginary indices grouped by degree: (1,1)...(1,m1), (2,1)..., so
    index number 1 + m(1) + ... + m(d-1) + (t-1) is the t-th index of
    degree d.  Block n is the real index followed by all indices of
    degree <= n; blocks saturate at ``level``, which makes the sequence
    eventually periodic while keeping the real index at positions b(n).
    """
    m = MonsterParams(level, multiplicities).multiplicities
    if datum.size != 1 + sum(m):
        raise ValueError(f"datum has {datum.size} indices, expected {1 + sum(m)}")
    if not datum.is_real(0) or any(not datum.is_imaginary(i) for i in range(1, datum.size)):
        raise ValueError("expected the real index first, imaginary indices after")
    end = list(accumulate(m, initial=1))  # end[d]: just past the indices of degree <= d
    prefix = [i for n in range(1, level) for i in (0, *range(1, end[n]))]
    return IndexSequence(datum, prefix, (0, *range(1, end[level])))


_SPEC_KEYS = {"cyclic": {"kind"}, "explicit": {"kind", "prefix", "cycle"},
              "monster": {"kind", "level", "multiplicities"}}  # the keys of each kind


def sequence_from_spec(datum, spec: dict) -> IndexSequence:
    """Build a sequence from its JSON spec: {"kind": "cyclic"} |
    {"kind": "explicit", "prefix": [...], "cycle": [...]} |
    {"kind": "monster", "level": L, "multiplicities": [...]}.

    Explicit entries may be index names or 0-based positions.  Only the
    shape (kind, keys, lists, names) is checked here, the values by the
    constructors: KeyError for an unknown index name, else ValueError.
    """
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _SPEC_KEYS:  # a JSON list does not hash
        raise ValueError(f"unknown sequence kind {kind!r}")
    unknown = [key for key in spec if key not in _SPEC_KEYS[kind]]
    if unknown:
        raise ValueError(f"unknown keys of sequence kind {kind!r}: {', '.join(map(str, unknown))}")
    if kind == "cyclic":
        return cyclic_sequence(datum)
    if kind == "explicit":
        def resolve(key):
            entries = spec.get(key, [])
            if not isinstance(entries, list):
                raise ValueError(f'explicit "{key}" must be a list, got {entries!r}')
            return [datum.index_of(v) if isinstance(v, str) else v for v in entries]

        return explicit_sequence(datum, resolve("prefix"), resolve("cycle"))
    return monster_block_sequence(datum, spec.get("level"), spec.get("multiplicities"))


class StringCrystal(Crystal):
    """Crystal structure on finitely supported strings over a sequence."""

    def __init__(self, datum, seq: IndexSequence):
        super().__init__(datum)
        if seq.datum != datum:
            raise ValueError("sequence was built for a different datum")
        self.seq = seq
        self._size = datum.size
        self._zero_lam = (0,) * datum.size
        self._weights = {}  # root coordinates -> the one Weight built for them
        self._last = (None, None)  # the last element wt/eps/phi/e/f read, its stats

    def zero(self) -> StringElement:
        return StringElement((), self.seq.seq_id)

    def element(self, x) -> StringElement:
        """The string x with its trailing zeros stripped.  Only int
        zeros are stripped, so every entry that is not an int
        (``cartan.is_int``: 1.7, "3", 0.0, False) reaches the validating
        constructor, trailing or not, and raises TypeError."""
        x = tuple(x)
        while x and is_int(x[-1]) and x[-1] == 0:
            x = x[:-1]
        return StringElement(x, self.seq.seq_id)

    def _read(self, b) -> tuple:
        """``stats(b)``, kept for the next call.  The entry holds b
        itself, so its identity cannot be reused."""
        if self._last[0] is not b:
            self._last = b, self.stats(b)
        return self._last[1]

    def wt(self, b) -> Weight:
        return self._read(b)[0]

    def eps(self, i, b):
        return self._read(b)[1][i]

    def phi(self, i, b):
        return self._read(b)[2][i]

    def e(self, i, b):
        return self._read(b)[3][i]

    def f(self, i, b):
        return self._read(b)[4][i]

    def stats(self, b):
        x = b.x
        n = len(x)
        new, seq_id = tuple.__new__, self.seq.seq_id
        t = self.seq.tables(n)
        rt = [0] * self._size
        for ik, v in zip(t.idx, x):
            if v:
                rt[ik] -= v
        rt = tuple(rt)
        wt = self._weights.get(rt)
        if wt is None:
            wt = self._weights[rt] = new(Weight, (self._zero_lam, rt))
        eps, phi, e, f = [], [], [], []
        for plan in t.plans:
            eps_i, phi_i, lower, upper = _index_stats(plan, x)
            eps.append(eps_i)
            phi.append(phi_i)
            if upper:  # e_i x: 1 taken at ``upper`` (a positive entry), trailing zeros stripped
                y = x[:upper - 1] + (x[upper - 1] - 1,) + x[upper:]
                while y and not y[-1]:
                    y = y[:-1]
                e.append(new(StringElement, (y, seq_id)))
            else:
                e.append(None)
            # f_i x, canonical as built: 1 added at ``lower``
            y = (x + (0,) * (lower - n - 1) + (1,) if lower > n
                 else x[:lower - 1] + (x[lower - 1] + 1,) + x[lower:])
            f.append(new(StringElement, (y, seq_id)))
        return wt, tuple(eps), tuple(phi), tuple(e), tuple(f)


def _index_stats(plan, x):
    """(eps_i, phi_i, position f_i increments, position e_i decrements
    or 0 when e_i x is zero) for the index i of ``plan``, read off the
    prefix sums pre_k = sum_{l<=k} <h_i, alpha_{i_l}> x_l at the
    occurrences of i in the support and the first one past it.  The
    plan is (the entries <h_i, alpha_{i_k}> along the index array, the
    positions k where i_k = i, is_real, a_ii) and covers x."""
    row, occ, is_real, a_ii = plan
    pre = list(accumulate(map(mul, row, x), initial=0))
    total = pre[-1]
    inside = bisect_right(occ, len(x))
    past = occ[inside]  # beyond the support every tail sum is zero
    if not is_real:
        # the lowering slot: the first occurrence with vanishing tail
        # sum; e_i acts there iff x is nonzero there and the tail sum
        # seen from every earlier occurrence stays below a_ii
        low = None
        for k in occ[:inside]:
            run = pre[k]
            if run == total:
                raisable = x[k - 1] and (low is None or run - low < a_ii)
                return 0, -total, k, k if raisable else 0
            if low is None or run < low:
                low = run
        return 0, -total, past, 0
    # real: eps_i maximizes x_k + (tail sum after k), phi_i maximizes
    # -x_k - (prefix sum before k); past the support they read 0 and
    # -total.  Going down, hi is the largest maximizing position and
    # lo the smallest.
    top, lo, hi, phi = 0, past, past, -total
    for k in reversed(occ[:inside]):
        xk = x[k - 1]
        v = xk + total - pre[k]
        if v > top:
            top, lo, hi = v, k, k
        elif v == top:
            lo = k
        w = -xk - pre[k - 1]
        if w > phi:
            phi = w
    if top <= 0 or x[hi - 1] == 0:
        # a zero at hi with top > 0 means the raised factor leaves the
        # crystal (b_i(+1) is zero); happens only outside the
        # component of the zero string
        hi = 0
    return top, phi, lo, hi


def realize_binfinity(datum, seq: IndexSequence, depth: int) -> CrystalGraph:
    """Component of the zero string, audited."""
    crystal = StringCrystal(datum, seq)
    return _audited(bfs_component(crystal, crystal.zero(), depth))


def _audited(graph) -> CrystalGraph:
    """The graph, or an AuditError if its audit finds problems (an operator bug)."""
    problems = audit_binfinity_truncation(graph)
    if problems:
        raise AuditError("; ".join(problems))
    return graph


def audit_binfinity_truncation(graph) -> list:
    """Problems of a realization's truncation, [] if none.  With top the root's
    weight (0 in B(infinity), lambda in B(lambda)): raising stays inside the
    component, all weights lie in top - Q+, the root is the only node of weight
    top, and every other node can be raised.  Weights print relative to top.
    Whether a weight lies in top - Q+ is decided once per distinct weight,
    the rest per node; problems come in node order."""
    problems = []
    if graph.closure_failures:
        problems.append(f"raising escapes the component: {graph.closure_failures[:3]}")
    root, size = graph.root, graph.datum.size
    top_lam, top_rt = top = graph.nodes[root].wt
    tops = []
    outside = {w for w in {node.wt for node in graph.nodes}
               if w.lam != top_lam or any(map(gt, w.rt, top_rt))}
    for u, node in enumerate(graph.nodes):
        w = node.wt
        if w == top:
            tops.append(u)
        elif w in outside:
            problems.append(f"node {u} has weight outside -Q+: {w - top}")
        if node.e_ids.count(None) == size and u != root:
            problems.append(f"non-root node {u} admits no raising")
    if tops != [root]:
        problems.append(f"weight-zero nodes {tops}, expected exactly the root")
    return problems


def highest_weight_crystal(datum, seq: IndexSequence, lam: Weight) -> TensorCrystal:
    """(strings) ⊗ t_lam ⊗ c, the carrier of B(lambda) for dominant lam."""
    shift = ShiftCrystal(datum, lam)  # checks the size of lam before its pairings
    if not datum.is_dominant(lam):
        raise ValueError(f"weight {lam} is not dominant")
    return TensorCrystal(StringCrystal(datum, seq), shift, UnitCrystal(datum))


def highest_weight_root(crystal: TensorCrystal) -> TensorElement:
    strings, shift, unit = crystal.factors
    return crystal.element(strings.zero(), shift.element(), unit.element())


def realize_highest_weight(datum, seq: IndexSequence, lam: Weight, depth: int) -> CrystalGraph:
    """Component of (zero string) ⊗ t_lam ⊗ c for dominant lam, audited."""
    crystal = highest_weight_crystal(datum, seq, lam)
    return _audited(bfs_component(crystal, highest_weight_root(crystal), depth))


EmbeddingResult = namedtuple("EmbeddingResult", "witness source target report")


def highest_weight_projection(hw_graph, binf_graph) -> EmbeddingResult:
    """The projection that forgets the highest weight: x ⊗ t_lam ⊗ c -> x.

    Checked laws: the map is injective, sends root to root, commutes
    with raising everywhere (zeros included), commutes with lowering
    wherever the source lowering is nonzero, shifts weights by -lam and
    preserves every eps_i.  Both graphs must come from the same sequence
    and depth, and both are validated first.
    """
    validate_structure(hw_graph)
    validate_structure(binf_graph)
    root = hw_graph.nodes[hw_graph.root].elt
    if not (isinstance(root, TensorElement) and len(root.factors) == 3
            and isinstance(root.factors[1], ShiftElement)):
        raise ValueError("the projection's source must be a B(lambda) carrier graph, "
                         "(string) ⊗ t_lambda ⊗ c")
    lam = root.factors[1].weight
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

    rep.merge(check_injective(mapping))

    for u, tgt in mapping.items():
        node, img = hw_graph.nodes[u], binf_graph.nodes[tgt]
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
    return EmbeddingResult(witness, hw_graph, binf_graph, rep)


def _transport(src, dst, root_image) -> tuple:
    """Push the source graph along lowering edges into the target.

    The image of the root is prescribed; every other node's image is
    f_i(image of parent), read off the target's lowering fan, for each
    incoming edge (u, i), and all incoming edges must agree -- that
    re-derivation is the executable content of the uniqueness claims.
    Disagreements are reported with both paths.
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
            cid = dst.nodes[images[u]].f_ids[i]
            path = paths[u] + (i,)
            rep.checked += 1
            if cid is None:
                rep.add(v, i, "transport_zero", "nonzero lowering", f"path {path}")
                continue
            if cid is CUT:
                rep.add(v, i, "transport_escape", "target node", f"path {path}")
                continue
            if v not in images:
                images[v] = cid
                paths[v] = path
            elif images[v] != cid:
                rep.add(
                    v, i, "path_disagreement",
                    (paths[v], dst.nodes[images[v]].elt),
                    (path, dst.nodes[cid].elt),
                )
        if v not in images:
            rep.coverage_errors.append(f"no image could be derived for node {v}")
    return images, rep


def _embed(source, product, root_image, depth) -> EmbeddingResult:
    """Generate the component of ``root_image`` in ``product`` to
    ``depth``, transport ``source`` into it and check the witness as a
    strict embedding."""
    target = bfs_component(product, root_image, depth)
    images, rep = _transport(source, target, root_image)
    witness = MorphismWitness(images, strict=True, embedding=True)
    rep.merge(check_morphism(witness, source, target))
    return EmbeddingResult(witness, source, target, rep)


def crystal_embedding(binf_graph, i: int) -> EmbeddingResult:
    """Embed a B(infinity) truncation into itself ⊗ (elementary crystal i).

    The product's first factor is the graph's tables on its node ids
    (``GraphCrystal``), so this checks B ↪ B ⊗ B_i for the abstract
    crystal B that any validated graph records, with target elements
    (node id, b_i(-n)).  The root goes to root ⊗ b_i(0); everything else
    is transported along lowering edges, re-derived along every
    alternative path, and the resulting witness is checked as a strict
    embedding.  The product is generated to the graph's depth bound; a
    product node is at least as high as its first factor, so only nodes
    at the bound, whose lowerings are cut anyway, meet a CUT leaf.
    """
    if binf_graph.depth_bound is None:
        raise ValueError("the embedding needs a generated graph with a depth bound")
    elementary = ElementaryCrystal(binf_graph.datum, i)
    product = TensorCrystal(GraphCrystal(binf_graph), elementary)
    root_image = product.element(binf_graph.root, elementary.top())
    return _embed(binf_graph, product, root_image, binf_graph.depth_bound)


def tensor_decomposition_embedding(datum, seq, lam, mu, depth) -> EmbeddingResult:
    """Embed B(lam+mu) into B(lam) ⊗ B(mu), root to u_lam ⊗ u_mu,
    by path transport with the same well-definedness checks."""
    source = realize_highest_weight(datum, seq, lam + mu, depth)
    left = highest_weight_crystal(datum, seq, lam)
    right = highest_weight_crystal(datum, seq, mu)
    product = TensorCrystal(left, right)
    root_image = product.element(highest_weight_root(left), highest_weight_root(right))
    return _embed(source, product, root_image, depth)
