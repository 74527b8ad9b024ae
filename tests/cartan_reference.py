"""Reference implementations of Z ∪ {-inf} and of integral weights.

``NegInfinity`` is the class the library used before the bottom
element became a float subclass: a plain object that writes out its
equality, hash, repr and four comparisons by hand.  It is kept,
unchanged, as the path the float-backed ``NEG_INF`` is diffed against
(``test_cartan_differential.py``).

``Weight`` is the frozen dataclass the library used before weights
became tuples: every result of its arithmetic goes through the
validating ``__post_init__``.  It is kept, unchanged, as the path the
tuple-backed ``Weight`` is diffed against
(``test_weight_differential.py``).  Nothing in the library uses either.
"""

from dataclasses import dataclass
from operator import index as _as_int


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


@dataclass(frozen=True)
class Weight:
    """Integral weight written over the spanning set {Lambda_i} ∪ {alpha_i}.

    ``lam`` holds the fundamental-weight coefficients and ``rt`` the
    simple-root coefficients.  The pair is a formal coordinate (never
    reduced); equality is componentwise.  Pairing against a coroot is
    done by the datum, which knows the Cartan integers.
    """

    lam: tuple
    rt: tuple

    def __post_init__(self):
        object.__setattr__(self, "lam", tuple(map(_as_int, self.lam)))
        object.__setattr__(self, "rt", tuple(map(_as_int, self.rt)))
        if len(self.lam) != len(self.rt):
            raise ValueError("lam and rt parts must have equal length")

    @classmethod
    def zero(cls, size: int) -> "Weight":
        return cls((0,) * size, (0,) * size)

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(
            tuple(a + b for a, b in zip(self.lam, other.lam, strict=True)),
            tuple(a + b for a, b in zip(self.rt, other.rt, strict=True)),
        )

    def __sub__(self, other: "Weight") -> "Weight":
        return self + (-other)

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.lam), tuple(-a for a in self.rt))

    def scaled(self, k: int) -> "Weight":
        return Weight(tuple(k * a for a in self.lam), tuple(k * a for a in self.rt))

    def is_zero(self) -> bool:
        return not any(self.lam) and not any(self.rt)

    def root_height(self) -> int:
        """Number of simple roots subtracted, i.e. -sum of the rt part."""
        return -sum(self.rt)

    def sort_key(self):
        return (self.root_height(), self.rt, self.lam)
