"""Borcherds-Cartan data, integral weights, and Z ∪ {-inf} arithmetic.

A Borcherds-Cartan matrix generalizes a Cartan matrix by allowing even
nonpositive diagonal entries.  An index i is *real* when a_ii = 2 and
*imaginary* when a_ii <= 0; every crystal-operator case split downstream
keys off that classification.  The datum also carries positive integer
symmetrizers s_i with s_i a_ij = s_j a_ji.

Weights live in the Z-span of the fundamental weights and the simple
roots and are kept as a formal coordinate pair; the datum evaluates
coroot pairings via <h_i, Lambda_j> = delta_ij and <h_i, alpha_j> = a_ij.
A ``Weight`` is a slotted subclass of the tuple (lam, rt), so it hashes
and compares in C and equals that plain tuple; nothing in the library
mixes the two.  Its constructor validates, and its arithmetic builds
results that are valid by construction without re-validating them.

Crystal statistics eps_i, phi_i take values in Z ∪ {-inf}.  The bottom
element NEG_INF is a float subclass fixed at -inf: float supplies its
order (exact against ints of any size), equality, hash and repr, and
its own + and - absorb ints unconverted.  A plain float("-inf") would
not do: n + float("-inf") converts n to a float and raises OverflowError
once |n| passes about 1.8e308, and a datum may hold larger entries.  All
integer arithmetic is exact (Python bignums), so overflow cannot occur.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from operator import add, itemgetter, mul, neg, sub


class NegInfinity(float):
    """The bottom element adjoined to Z: a float fixed at -inf whose + and
    - absorb ints unconverted, so NEG_INF + n is NEG_INF and
    max(NEG_INF, n) is n.  Use the shared ``NEG_INF`` instance."""

    __slots__ = ()

    def __new__(cls, *_):  # copy and pickle pass float's value back in
        return super().__new__(cls, "-inf")

    def __add__(self, other):
        if isinstance(other, (NegInfinity, int)):
            return self
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return self
        return NotImplemented

    def __rsub__(self, other):  # float's would give n - (-inf) = +inf
        return NotImplemented

    def __neg__(self):
        raise ArithmeticError("negation of -inf leaves Z ∪ {-inf}")


NEG_INF = NegInfinity()


def is_neg_inf(value) -> bool:
    return isinstance(value, NegInfinity)


def is_int(value) -> bool:
    """The one integer rule of datum, sequence and parameter values."""
    return isinstance(value, int) and not isinstance(value, bool)


def ext_to_json(value):
    """Serialize an extended integer; -inf becomes the string "-inf"."""
    return "-inf" if is_neg_inf(value) else value


def _size_error(lam, other_lam) -> ValueError:
    return ValueError(f"weight sizes differ: {len(lam)} and {len(other_lam)}")


class Weight(tuple):
    """Integral weight written over the spanning set {Lambda_i} ∪ {alpha_i}.

    ``lam`` holds the fundamental-weight coefficients and ``rt`` the
    simple-root coefficients.  The pair is a formal coordinate (never
    reduced); equality is componentwise.  Pairing against a coroot is
    done by the datum, which knows the Cartan integers.

    The tuple (lam, rt), so hashing and equality run in C: a weight
    equals the plain tuple (lam, rt), and nothing in the library mixes
    the two.  The constructor validates (ints that are not bools, and
    parts of equal length); ``+``, ``-``, negation and ``scaled`` build
    their results, valid by construction, without re-validating.
    """

    __slots__ = ()

    def __new__(cls, lam, rt):
        return tuple.__new__(cls, (tuple(lam), tuple(rt)))

    def __init__(self, lam, rt):
        # validated here, on the stored tuples: __new__ may have
        # consumed an iterator argument
        lam, rt = self
        if not (all(map(is_int, lam)) and all(map(is_int, rt))):
            raise TypeError(f"weight coordinates must be ints, not bools or floats: {self!r}")
        if len(lam) != len(rt):
            raise ValueError("lam and rt parts must have equal length")

    lam = property(itemgetter(0))
    rt = property(itemgetter(1))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"{type(self).__qualname__}(lam={self.lam!r}, rt={self.rt!r})"

    @classmethod
    def zero(cls, size: int) -> "Weight":
        return cls((0,) * size, (0,) * size)

    def __add__(self, other: "Weight") -> "Weight":
        (lam, rt), (other_lam, other_rt) = self, other
        if len(lam) != len(other_lam):
            raise _size_error(lam, other_lam)
        return tuple.__new__(
            Weight, (tuple(map(add, lam, other_lam)), tuple(map(add, rt, other_rt)))
        )

    def __sub__(self, other: "Weight") -> "Weight":
        (lam, rt), (other_lam, other_rt) = self, other
        if len(lam) != len(other_lam):
            raise _size_error(lam, other_lam)
        return tuple.__new__(
            Weight, (tuple(map(sub, lam, other_lam)), tuple(map(sub, rt, other_rt)))
        )

    def __neg__(self) -> "Weight":
        lam, rt = self
        return tuple.__new__(Weight, (tuple(map(neg, lam)), tuple(map(neg, rt))))

    def scaled(self, k: int) -> "Weight":
        if not is_int(k):
            raise TypeError(f"weight scale must be an int, not a bool or float: {k!r}")
        lam, rt = self
        return tuple.__new__(Weight, (tuple([k * a for a in lam]), tuple([k * a for a in rt])))

    def is_zero(self) -> bool:
        return not any(self.lam) and not any(self.rt)

    def root_height(self) -> int:
        """Number of simple roots subtracted, i.e. -sum of the rt part."""
        return -sum(self.rt)

    def sort_key(self):
        return (self.root_height(), self.rt, self.lam)


class DatumShapeError(ValueError):
    """Structurally malformed input: not a square integer matrix with
    matching positive symmetrizers.  Distinct from condition violations."""


class DatumConditionError(ValueError):
    """A structurally sound matrix that fails the Borcherds-Cartan
    conditions; carries the full validation report."""

    def __init__(self, report: "ValidationReport"):
        super().__init__("; ".join(report.lines()))
        self.report = report


class DatumFormatError(ValueError):
    """A datum file whose JSON payload does not match the schema."""


@dataclass
class DatumViolation:
    condition: str
    message: str

    def __str__(self):
        return f"{self.condition}: {self.message}"


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, condition: str, message: str):
        self.violations.append(DatumViolation(condition, message))

    def lines(self):
        return [str(v) for v in self.violations]


def validate_cartan_data(matrix, symmetrizers) -> ValidationReport:
    """Check the Borcherds-Cartan conditions on a raw matrix.

    Violations reported (empty report means valid):
      * diagonal     -- a_ii must be 2 or an even nonpositive integer
      * sign         -- a_ij <= 0 for i != j
      * zero-symmetry-- a_ij = 0 exactly when a_ji = 0
      * symmetrizable-- s_i a_ij = s_j a_ji

    Raises DatumShapeError for inputs that are not a nonempty square
    integer matrix with matching positive integer symmetrizers.
    """
    rows = list(matrix)
    n = len(rows)
    if n == 0:
        raise DatumShapeError("a datum needs at least one index")
    for r in rows:
        if len(r) != n:
            raise DatumShapeError(f"matrix is not square: {n} rows, row of length {len(r)}")
        for v in r:
            if not is_int(v):
                raise DatumShapeError(f"matrix entry {v!r} is not an integer")
    syms = list(symmetrizers)
    if len(syms) != n:
        raise DatumShapeError(f"{len(syms)} symmetrizers for a {n}x{n} matrix")
    for s in syms:
        if not is_int(s) or s <= 0:
            raise DatumShapeError(f"symmetrizer {s!r} is not a positive integer")

    report = ValidationReport()
    for i in range(n):
        d = rows[i][i]
        if not (d == 2 or (d <= 0 and d % 2 == 0)):
            report.add("diagonal", f"a[{i}][{i}] = {d} is neither 2 nor an even nonpositive integer")
    for i in range(n):
        for j in range(n):
            if i != j and rows[i][j] > 0:
                report.add("sign", f"a[{i}][{j}] = {rows[i][j]} > 0")
    for i in range(n):
        for j in range(i + 1, n):
            if (rows[i][j] == 0) != (rows[j][i] == 0):
                report.add(
                    "zero-symmetry",
                    f"a[{i}][{j}] = {rows[i][j]} but a[{j}][{i}] = {rows[j][i]}",
                )
    for i in range(n):
        for j in range(n):
            if syms[i] * rows[i][j] != syms[j] * rows[j][i]:
                report.add(
                    "symmetrizable",
                    f"s[{i}]*a[{i}][{j}] = {syms[i] * rows[i][j]} != "
                    f"s[{j}]*a[{j}][{i}] = {syms[j] * rows[j][i]}",
                )
    return report


@dataclass(frozen=True)
class BorcherdsCartanDatum:
    """A finite Borcherds-Cartan datum: named indices, the Cartan matrix,
    and its symmetrizers.  Immutable and validated at construction."""

    index_names: tuple
    cartan: tuple
    symmetrizers: tuple

    def __post_init__(self):
        object.__setattr__(self, "index_names", tuple(self.index_names))
        object.__setattr__(self, "cartan", tuple(tuple(row) for row in self.cartan))
        object.__setattr__(self, "symmetrizers", tuple(self.symmetrizers))
        report = validate_cartan_data(self.cartan, self.symmetrizers)
        if not report.ok:
            raise DatumConditionError(report)
        if len(self.index_names) != len(self.cartan):
            raise DatumShapeError(
                f"{len(self.index_names)} index names for a {len(self.cartan)}x{len(self.cartan)} matrix"
            )
        if not all(isinstance(name, str) for name in self.index_names):
            raise DatumShapeError("index names must be strings")
        if len(set(self.index_names)) != len(self.index_names):
            raise DatumShapeError("index names must be distinct")

    @cached_property
    def size(self) -> int:
        return len(self.cartan)

    def indices(self):
        return range(self.size)

    def a(self, i: int, j: int) -> int:
        return self.cartan[i][j]

    def is_real(self, i: int) -> bool:
        return self.cartan[i][i] == 2

    def is_imaginary(self, i: int) -> bool:
        return self.cartan[i][i] <= 0

    @property
    def imaginary_indices(self):
        return tuple(i for i in self.indices() if self.is_imaginary(i))

    def index_of(self, name: str) -> int:
        try:
            return self.index_names.index(name)
        except ValueError:
            raise KeyError(f"unknown index name {name!r}") from None

    def zero_weight(self) -> Weight:
        return self._zero

    @cached_property
    def _zero(self) -> Weight:
        """The one zero Weight of the datum."""
        return Weight.zero(self.size)

    def fundamental(self, i: int) -> Weight:
        return self._basis[0][i]

    def alpha(self, i: int) -> Weight:
        return self._basis[1][i]

    @cached_property
    def _basis(self) -> tuple:
        """(the Lambda_i, the alpha_i), one shared Weight per index."""
        zero = (0,) * self.size
        units = [tuple(int(j == i) for j in self.indices()) for i in self.indices()]
        return tuple(Weight(u, zero) for u in units), tuple(Weight(zero, u) for u in units)

    @cached_property
    def index_rows(self) -> tuple:
        """(is_real, a_ii, Cartan row i) per index i, built once: what
        the tensor rule and the string statistics read for each index."""
        return tuple((self.is_real(i), row[i], row) for i, row in enumerate(self.cartan))

    def weight(self, lam=None, rt=None) -> Weight:
        lam = tuple(lam) if lam is not None else (0,) * self.size
        rt = tuple(rt) if rt is not None else (0,) * self.size
        if len(lam) != self.size or len(rt) != self.size:
            raise ValueError(f"weight coordinates must have length {self.size}")
        return Weight(lam, rt)

    def pairing(self, i: int, w: Weight) -> int:
        """<h_i, w> for w = sum lam_j Lambda_j + sum rt_j alpha_j."""
        return w.lam[i] + sum(map(mul, self.cartan[i], w.rt))

    def is_dominant(self, w: Weight) -> bool:
        return all(self.pairing(i, w) >= 0 for i in self.indices())


def make_datum(index_names, cartan, symmetrizers=None) -> BorcherdsCartanDatum:
    """Build a datum from plain sequences; symmetrizers default to all 1."""
    cartan = tuple(tuple(row) for row in cartan)
    if symmetrizers is None:
        symmetrizers = (1,) * len(cartan)
    return BorcherdsCartanDatum(tuple(index_names), cartan, tuple(symmetrizers))


_DATUM_KEYS = {"indices", "cartan", "symmetrizers", "sequence"}
_REQUIRED_KEYS = {"indices", "cartan", "symmetrizers"}


def load_datum_file(path):
    """Load and validate a datum file; unknown fields are rejected.

    Returns (datum, sequence_spec_or_None); the sequence spec is only
    checked to be an object, ``binfinity.sequence_from_spec`` builds it.
    Raises OSError, UnicodeDecodeError or json.JSONDecodeError for an
    unreadable file, DatumFormatError for a payload that does not match
    the schema, DatumShapeError / DatumConditionError for invalid data.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise
        except (ValueError, RecursionError) as exc:
            # JSON the decoder refuses although it is well formed: an
            # integer too long to convert, or nesting too deep
            raise DatumFormatError(f"unsupported JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DatumFormatError("datum file must contain a JSON object")
    unknown = sorted(set(obj) - _DATUM_KEYS)
    if unknown:
        raise DatumFormatError(f"unknown fields: {', '.join(unknown)}")
    missing = sorted(_REQUIRED_KEYS - set(obj))
    if missing:
        raise DatumFormatError(f"missing fields: {', '.join(missing)}")
    names = obj["indices"]
    if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
        raise DatumFormatError('"indices" must be a list of strings')
    matrix = obj["cartan"]
    if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
        raise DatumFormatError('"cartan" must be a list of rows')
    syms = obj["symmetrizers"]
    if not isinstance(syms, list):
        raise DatumFormatError('"symmetrizers" must be a list')
    seq = obj.get("sequence")
    if seq is not None and not isinstance(seq, dict):
        raise DatumFormatError('"sequence" must be an object')
    return make_datum(names, matrix, syms), seq


def datum_to_dict(datum: BorcherdsCartanDatum, sequence_spec=None) -> dict:
    out = {
        "indices": list(datum.index_names),
        "cartan": [list(row) for row in datum.cartan],
        "symmetrizers": list(datum.symmetrizers),
    }
    if sequence_spec is not None:
        out["sequence"] = sequence_spec
    return out


def save_datum_file(path, datum: BorcherdsCartanDatum, sequence_spec=None):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(datum_to_dict(datum, sequence_spec), fh, indent=2, sort_keys=True)
        fh.write("\n")
