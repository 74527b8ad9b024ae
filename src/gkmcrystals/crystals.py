"""The abstract-crystal interface and its one-point and one-index models.

A crystal over a Borcherds-Cartan datum is a set B with a weight map
wt: B -> P, operators e_i, f_i: B -> B ∪ {0} and statistics
eps_i, phi_i: B -> Z ∪ {-inf}.  Crystal classes here expose exactly that
surface; elements are inert hashable values, all structure lives on the
crystal, and the crystal zero is represented by None.

Three concrete crystals are provided:

* ``ElementaryCrystal`` -- the chain {b_i(-n) : n >= 0} on which only
  index i acts;
* ``ShiftCrystal``      -- the one-point crystal of weight lam (usually
  written T_lam) with eps = phi = -inf, used to shift highest weights;
* ``UnitCrystal``       -- the one-point crystal {c} of weight 0 with
  eps = phi = 0, the gate that kills lowering once phi drops to 0.

All element types are defined here, next to ``sort_key``: the
``ElementaryElement``, ``ShiftElement`` and ``UnitElement`` of those
three crystals, the ``StringElement`` of the string crystals in
``binfinity`` and the flat ``TensorElement`` of ``tensor``.  All five
are tuples (the first three namedtuples, the last two slotted tuple
subclasses), so hashing and equality run in C and are by value: an
element equals the plain tuple of its fields, and nothing in the
library mixes the two.  ``UnitElement()`` is the empty tuple, so it is
falsy; the crystal zero is None and is always tested with ``is``, never
by truth value.  Tuples also order with ``<`` and iterate, and a
namedtuple's ``_make`` and ``_replace`` skip ``__new__`` and so any
validation; no code uses these (``sort_key`` orders elements).  The
constructors of ``ElementaryElement``, ``StringElement`` and
``TensorElement`` validate; the operator targets of ``StringCrystal``
and ``TensorCrystal``, canonical by construction, are built without
re-validation.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import repeat
from operator import itemgetter

from .cartan import NEG_INF, BorcherdsCartanDatum, Weight, is_int


class Crystal:
    """Interface: wt / eps / phi / e / f over hashable elements, and
    ``stats``, which returns all of them for one element.

    ``e`` and ``f`` return None for the crystal zero.  Implementations
    are pure functions of immutable data and safe to share.
    """

    def __init__(self, datum: BorcherdsCartanDatum):
        self.datum = datum

    def wt(self, b) -> Weight:
        raise NotImplementedError

    def eps(self, i: int, b):
        raise NotImplementedError

    def phi(self, i: int, b):
        raise NotImplementedError

    def e(self, i: int, b):
        raise NotImplementedError

    def f(self, i: int, b):
        raise NotImplementedError

    def stats(self, b) -> tuple:
        """All statistics of b at once: (wt, eps, phi, e targets,
        f targets), the last four as tuples indexed by i.

        This default maps the five operators over the indices; every
        product leaf is read through it (``TensorCrystal`` folds leaves
        without a tree, keeping each factor's last leaf read; all five
        ``StringCrystal`` operators read one ``stats``, weight included,
        and a ``GraphCrystal`` leaf is five reads of one node record).
        Graph generation reads every node through this method.
        """
        indices, bs = self.datum.indices(), repeat(b)
        return (
            self.wt(b),
            tuple(map(self.eps, indices, bs)),
            tuple(map(self.phi, indices, bs)),
            tuple(map(self.e, indices, bs)),
            tuple(map(self.f, indices, bs)),
        )


class ElementaryElement(namedtuple("ElementaryElement", "index steps")):
    """b_index(-steps) with steps >= 0; steps counts lowerings from the top."""

    __slots__ = ()

    def __new__(cls, index, steps):
        if not (is_int(index) and is_int(steps)):
            raise TypeError("elementary index and steps must be ints, not bools or floats")
        if steps < 0:
            raise ValueError("elementary elements live at nonpositive positions")
        return tuple.__new__(cls, (index, steps))


ShiftElement = namedtuple("ShiftElement", "weight")
UnitElement = namedtuple("UnitElement", "")


class StringElement(tuple):
    """Finitely supported string, canonical form: no trailing zeros.

    The tuple (x, seq_id), so hashing and equality run in C.  Equality
    is by value: an element equals the plain tuple (x, seq_id), and
    strings over different sequences are never equal.  The constructor
    validates; ``StringCrystal`` builds its operator targets, canonical
    by construction, without re-validating them.
    """

    __slots__ = ()

    def __new__(cls, x, seq_id):
        x = tuple(x)
        if not all(map(is_int, x)):
            raise TypeError(f"string entries must be ints, not bools or floats: {x!r}")
        if x and min(x) < 0:
            raise ValueError("string entries must be nonnegative")
        if x and x[-1] == 0:
            raise ValueError("strings must carry no trailing zeros")
        return tuple.__new__(cls, (x, seq_id))

    x = property(itemgetter(0))
    seq_id = property(itemgetter(1))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"{type(self).__qualname__}(x={self.x!r}, seq_id={self.seq_id!r})"


class TensorElement(tuple):
    """Flat ordered tuple of at least two non-tensor factors.

    The tuple (factors,), equal by value like ``StringElement``.  The
    constructor validates; ``TensorCrystal`` builds its operator
    targets from its own flat leaves without re-validating them.
    """

    __slots__ = ()

    def __new__(cls, factors):
        factors = tuple(factors)
        if len(factors) < 2:
            raise ValueError("tensor elements need at least two factors")
        if any(isinstance(f, TensorElement) for f in factors):
            raise ValueError("tensor elements must be flat")
        return tuple.__new__(cls, (factors,))

    factors = property(itemgetter(0))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"{type(self).__qualname__}(factors={self.factors!r})"


class ElementaryCrystal(Crystal):
    """The elementary crystal on index i.

    Operator table, with n = steps:

        wt b_i(-n) = -n alpha_i
        e_i b_i(-n) = b_i(-n+1)   (zero at n = 0)
        f_i b_i(-n) = b_i(-n-1)
        eps_i = n,  phi_i = -n             for real i
        eps_i = 0,  phi_i = -n a_ii        for imaginary i
        e_j = f_j = 0, eps_j = phi_j = -inf  for j != i
    """

    def __init__(self, datum, index: int):
        super().__init__(datum)
        if not is_int(index):
            raise TypeError("elementary index and steps must be ints, not bools or floats")
        if not 0 <= index < datum.size:
            raise ValueError(f"index {index} out of range")
        self.index = index

    def element(self, steps: int) -> ElementaryElement:
        return ElementaryElement(self.index, steps)

    def top(self) -> ElementaryElement:
        return ElementaryElement(self.index, 0)

    def wt(self, b):
        return self.datum.alpha(self.index).scaled(-b.steps)

    def eps(self, i, b):
        if i != self.index:
            return NEG_INF
        return b.steps if self.datum.is_real(i) else 0

    def phi(self, i, b):
        if i != self.index:
            return NEG_INF
        if self.datum.is_real(i):
            return -b.steps
        return -b.steps * self.datum.a(i, i)

    def e(self, i, b):
        if i != self.index or b.steps == 0:
            return None
        return ElementaryElement(self.index, b.steps - 1)

    def f(self, i, b):
        if i != self.index:
            return None
        return ElementaryElement(self.index, b.steps + 1)


class ShiftCrystal(Crystal):
    """One-point crystal of weight lam: all operators vanish and every
    statistic is -inf, so it shifts weights without gating operators."""

    def __init__(self, datum, lam: Weight):
        super().__init__(datum)
        if len(lam.lam) != datum.size:
            raise ValueError("weight size does not match the datum")
        self.lam = lam

    def element(self) -> ShiftElement:
        return ShiftElement(self.lam)

    def wt(self, b):
        return b.weight

    def eps(self, i, b):
        return NEG_INF

    def phi(self, i, b):
        return NEG_INF

    def e(self, i, b):
        return None

    def f(self, i, b):
        return None


class UnitCrystal(Crystal):
    """The crystal {c}: weight 0, eps = phi = 0, operators vanish."""

    def element(self) -> UnitElement:
        return UnitElement()

    def wt(self, b):
        return self.datum.zero_weight()

    def eps(self, i, b):
        return 0

    def phi(self, i, b):
        return 0

    def e(self, i, b):
        return None

    def f(self, i, b):
        return None


def sort_key(elt):
    """Total order on crystal elements, used for deterministic node ids.

    Elements of one crystal share a type (node ids for a ``GraphCrystal``),
    so the tag only matters for mixed containers in tests and diagnostics.
    """
    if isinstance(elt, StringElement):  # the common case, tested first
        return (3, elt.x)
    if isinstance(elt, ElementaryElement):
        return (0, elt.index, elt.steps)
    if isinstance(elt, ShiftElement):
        return (1, elt.weight.lam, elt.weight.rt)
    if isinstance(elt, UnitElement):
        return (2,)
    if isinstance(elt, TensorElement):
        return (4, tuple(sort_key(f) for f in elt.factors))
    if is_int(elt):  # a ``GraphCrystal`` node id; a bool is not one
        return (5, elt)
    raise TypeError(f"not a crystal element: {elt!r}")
