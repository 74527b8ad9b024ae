"""Reference implementation of Z ∪ {-inf}.

This is the ``NegInfinity`` class the library used before the bottom
element became a float subclass: a plain object that writes out its
equality, hash, repr and four comparisons by hand.  It is kept,
unchanged, as the path the float-backed ``NEG_INF`` is diffed against
(``test_cartan_differential.py``); nothing in the library uses it.
"""


class NegInfinity:
    """The bottom element adjoined to Z, printed as -inf.

    Absorbing under addition and minimal under every comparison, which
    is exactly what the crystal statistics need:

        NEG_INF + n == NEG_INF        max(NEG_INF, n) == n

    Only the shared ``NEG_INF`` instance should be used.
    """

    __slots__ = ()

    def __repr__(self):
        return "-inf"

    def __eq__(self, other):
        return isinstance(other, NegInfinity)

    def __hash__(self):
        return hash("gkmcrystals.NEG_INF")

    def __lt__(self, other):
        if isinstance(other, NegInfinity):
            return False
        if isinstance(other, int):
            return True
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, (NegInfinity, int)):
            return True
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, (NegInfinity, int)):
            return False
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, NegInfinity):
            return True
        if isinstance(other, int):
            return False
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, (NegInfinity, int)):
            return self
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return self
        return NotImplemented

    def __neg__(self):
        raise ArithmeticError("negation of -inf leaves Z ∪ {-inf}")


NEG_INF = NegInfinity()
