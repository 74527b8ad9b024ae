"""Randomized assembly of small finite crystals.

Used by the axiom and associativity checks: pick truncated elementary
crystals, weight shifts, the unit crystal, and products of two or three
of them, then audit the resulting universe graphs.  Everything is driven
by a caller-supplied random.Random so runs are reproducible from a seed.
"""

from __future__ import annotations

import itertools

from .crystals import ElementaryCrystal, ShiftCrystal, UnitCrystal
from .graph import graph_from_universe
from .tensor import TensorCrystal


def random_weight(rng, datum):
    lam = [rng.randint(-2, 2) for _ in range(datum.size)]
    rt = [rng.randint(-2, 2) for _ in range(datum.size)]
    return datum.weight(lam, rt)


def random_factor(rng, datum, max_depth):
    """One small crystal with its full element list; an elementary one
    has at most ``max_depth`` + 1 elements."""
    kind = rng.choice(("elementary", "elementary", "shift", "unit"))
    if kind == "elementary":
        crystal = ElementaryCrystal(datum, rng.randrange(datum.size))
        return crystal, [crystal.element(n) for n in range(rng.randint(0, max_depth) + 1)]
    if kind == "shift":
        crystal = ShiftCrystal(datum, random_weight(rng, datum))
        return crystal, [crystal.element()]
    crystal = UnitCrystal(datum)
    return crystal, [crystal.element()]


def random_universe(rng, datum):
    """A crystal together with a finite universe of its elements:
    either a single factor or a flat product of two or three."""
    count = rng.choice((1, 2, 2, 3))
    picks = [random_factor(rng, datum, 4) for _ in range(count)]
    if count == 1:
        return picks[0]
    crystal = TensorCrystal(*[c for c, _ in picks])
    elements = [
        crystal.element(*combo)
        for combo in itertools.product(*[els for _, els in picks])
    ]
    return crystal, elements


def random_universe_graph(rng, datum):
    return graph_from_universe(*random_universe(rng, datum))


def random_factor_graph(rng, datum):
    return graph_from_universe(*random_factor(rng, datum, 14))
