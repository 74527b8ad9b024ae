"""Every small rank-2 Borcherds-Cartan datum, with three sequences each.

``small_data()`` enumerates the 150 rank-2 data with at least one
imaginary index, diagonal entries in {2, 0, -2, -4} and off-diagonal
entries in {0, -1, -2, -3}.  ``sequences(datum)`` spells three index
sequences for a datum: the cyclic one, the reversed cycle, and a
one-entry prefix before a doubled cycle, so that whatever reads a
sequence meets a prefix and a cycle that is not primitive.
"""

from itertools import product

import gkmcrystals as G

DIAGONAL = (2, 0, -2, -4)
OFF_DIAGONAL = (0, -1, -2, -3)


def small_data() -> list:
    data = []
    for d1, d2 in product(DIAGONAL, repeat=2):
        if d1 == d2 == 2:
            continue
        for a12, a21 in product(OFF_DIAGONAL, repeat=2):
            if (a12 == 0) == (a21 == 0):
                syms = (-a21, -a12) if a12 else (1, 1)  # s_1 a_12 = s_2 a_21
                data.append(G.make_datum(("1", "2"), ((d1, a12), (a21, d2)), syms))
    return data


def sequences(datum) -> list:
    cycle = tuple(datum.indices())
    return [G.cyclic_sequence(datum),
            G.explicit_sequence(datum, (), cycle[::-1]),
            G.explicit_sequence(datum, cycle[:1], cycle * 2)]
