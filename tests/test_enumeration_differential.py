"""The oracle box enumerator against the reference that builds every
string from its multiset: the same strings, once each, stripped, by
nondecreasing height and C(positions + height, height) of them, on a
grid of small boxes and on every oracle box of the acceptance suite up
to depth 6.  A memory guard checks that the box is streamed, not
materialized."""

import math
import tracemalloc
from collections import deque

import pytest

import gkmcrystals as G
from gkmcrystals.closed_form import default_position_bound, iter_bounded_strings

import closed_form_reference as ref


def acceptance_boxes():
    """(positions, depth) of every acceptance oracle run at depth <= 6."""
    boxes = set()
    for abc in [(1, 1, 0), (1, 2, 2), (2, 1, 4)]:
        seq = G.cyclic_sequence(G.rank2_datum(G.Rank2Params(*abc)))
        boxes.add((default_position_bound(seq, 6), 6))
    for level, mults in [(2, (2, 1)), (3, (1, 1, 1))]:
        seq = G.MonsterModel(G.MonsterParams(level, mults)).sequence
        boxes.update((default_position_bound(seq, depth), depth) for depth in (4, 5))
    return sorted(boxes)


def assert_box(positions, height, reference):
    got = list(iter_bounded_strings(positions, height))
    assert len(got) == math.comb(positions + height, height)
    assert len(set(got)) == len(got), "duplicates"
    assert set(got) == set(reference)
    assert all(not x or x[-1] for x in got), "trailing zeros"
    heights = list(map(sum, got))
    assert heights == sorted(heights), "heights decrease"


@pytest.mark.parametrize("positions", range(21))
def test_grid_matches_reference(positions):
    # the reference yields by height, so each lower box is a prefix of it
    reference = list(ref.iter_bounded_strings(positions, 6))
    for height in range(7):
        assert_box(positions, height, reference[:math.comb(positions + height, height)])


@pytest.mark.parametrize("positions,depth", acceptance_boxes())
def test_acceptance_box_matches_reference(positions, depth):
    assert_box(positions, depth, ref.iter_bounded_strings(positions, depth))


def test_box_is_streamed():
    tracemalloc.start()
    try:
        counted = deque(enumerate(iter_bounded_strings(16, 8), 1), maxlen=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counted[0][0] == math.comb(24, 8) == 735_471
    assert peak < 2_000_000, peak
