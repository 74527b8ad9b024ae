"""Reference implementation of the string crystal operators.

These are the per-operator bodies ``StringCrystal`` used before it
computed its statistics in one scan per index over the cached index
array: every operator rescans the string position by position through
``IndexSequence.at``.  They are kept, unchanged in substance, as the
path the one-scan statistics are diffed against
(``test_string_differential.py``); nothing in the library calls them.
"""

from gkmcrystals.cartan import Weight


def wt(crystal, b) -> Weight:
    rt = [0] * crystal.datum.size
    for k, v in enumerate(b.x, start=1):
        if v:
            rt[crystal.seq.at(k)] -= v
    return Weight((0,) * crystal.datum.size, tuple(rt))


def _real_candidates(crystal, i, x):
    """(position, value) pairs of the raising statistic, ascending.

    value(k) = x_k + sum_{l>k} <h_i, alpha_{i_l}> x_l for i_k = i,
    listed for all positions up to the scan bound, so the constant
    beyond-support value 0 is always represented.
    """
    row = crystal.datum.cartan[i]
    seq = crystal.seq
    out = []
    suffix = 0
    for k in range(seq.scan_bound(len(x)), 0, -1):
        ik = seq.at(k)
        xk = x[k - 1] if k <= len(x) else 0
        if ik == i:
            out.append((k, xk + suffix))
        if xk:
            suffix += row[ik] * xk
    out.reverse()
    return out


def eps(crystal, i, b):
    if crystal.datum.is_imaginary(i):
        return 0
    return max(v for _, v in _real_candidates(crystal, i, b.x))


def phi(crystal, i, b):
    row = crystal.datum.cartan[i]
    seq = crystal.seq
    x = b.x
    if crystal.datum.is_imaginary(i):
        return -sum(row[seq.at(k)] * v for k, v in enumerate(x, start=1) if v)
    best = None
    prefix = 0
    for k in range(1, seq.scan_bound(len(x)) + 1):
        ik = seq.at(k)
        xk = x[k - 1] if k <= len(x) else 0
        if ik == i:
            cand = -xk - prefix
            if best is None or cand > best:
                best = cand
        if xk:
            prefix += row[ik] * xk
    return best


def _imaginary_lowering_slot(crystal, i, x) -> int:
    """Smallest position with index i whose tail pairing sum is zero."""
    row = crystal.datum.cartan[i]
    seq = crystal.seq
    total = sum(row[seq.at(k)] * v for k, v in enumerate(x, start=1) if v)
    run = 0
    for k in range(1, seq.scan_bound(len(x)) + 1):
        ik = seq.at(k)
        if k <= len(x) and x[k - 1]:
            run += row[ik] * x[k - 1]
        if ik == i and total - run == 0:
            return k
    raise AssertionError("scan bound failed to expose a lowering slot")


def _bump(crystal, x, k, delta):
    y = list(x) + [0] * (k - len(x))
    y[k - 1] += delta
    return crystal.element(y)


def f(crystal, i, b):
    x = b.x
    if crystal.datum.is_imaginary(i):
        return _bump(crystal, x, _imaginary_lowering_slot(crystal, i, x), +1)
    cands = _real_candidates(crystal, i, x)
    top = max(v for _, v in cands)
    slot = next(k for k, v in cands if v == top)
    return _bump(crystal, x, slot, +1)


def e(crystal, i, b):
    x = b.x
    if crystal.datum.is_imaginary(i):
        slot = _imaginary_lowering_slot(crystal, i, x)
        if slot > len(x) or x[slot - 1] == 0:
            return None
        row = crystal.datum.cartan[i]
        seq = crystal.seq
        a_ii = crystal.datum.a(i, i)
        # every earlier occurrence k of i must see sum_{k<l<=slot} < a_ii
        tail = 0
        for k in range(slot, 0, -1):
            if k < slot and seq.at(k) == i and tail >= a_ii:
                return None
            if k <= len(x) and x[k - 1]:
                tail += row[seq.at(k)] * x[k - 1]
        return _bump(crystal, x, slot, -1)
    cands = _real_candidates(crystal, i, x)
    top = max(v for _, v in cands)
    if top <= 0:
        return None
    slot = next(k for k, v in reversed(cands) if v == top)
    if slot > len(x) or x[slot - 1] == 0:
        # the raised factor leaves the crystal (b_i(+1) is zero);
        # happens only outside the component of the zero string
        return None
    return _bump(crystal, x, slot, -1)


def stats(crystal, b):
    """(wt, eps, phi, e targets, f targets), one operator call each."""
    indices = crystal.datum.indices()
    return (
        wt(crystal, b),
        tuple(eps(crystal, i, b) for i in indices),
        tuple(phi(crystal, i, b) for i in indices),
        tuple(e(crystal, i, b) for i in indices),
        tuple(f(crystal, i, b) for i in indices),
    )
