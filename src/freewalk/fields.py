"""Scalar arithmetic over the two supported local fields.

The archimedean field is the reals with the usual absolute value,
represented by Python floats.  The nonarchimedean field is the rationals
carrying a p-adic absolute value |x| = p**(-v_p(x)), represented exactly
by :class:`fractions.Fraction`.  Keeping nonarchimedean scalars exact
turns every ultrametric identity into an equality that tests can assert
without tolerances.

Certified archimedean arithmetic rounds outward: every result is a pair
of float endpoints guaranteed to contain the exact value.  Three private
endpoint functions hold that rounding: the enclosure of an exact rational
n/d given as two ints, the square root and the quotient of endpoint
pairs.  The ping-pong certifier calls them on its integer bounds, and the
public :class:`Interval` type calls the same functions, so there is one
rounding path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ConfigError, DomainError, UsageError

ARCHIMEDEAN = "archimedean"
NONARCHIMEDEAN = "nonarchimedean"

#: Marker returned by :func:`valuation` at zero.
INFINITE_VALUATION = math.inf

Scalar = Union[float, Fraction, int]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The working local field: the reals, or Q with a p-adic absolute value."""

    kind: str
    prime: int | None = None

    def __post_init__(self):
        if self.kind not in (ARCHIMEDEAN, NONARCHIMEDEAN):
            raise DomainError(f"unknown field kind {self.kind!r}")
        if self.kind == NONARCHIMEDEAN:
            # an int, not 3.0 or True, which compare equal to ints
            if type(self.prime) is not int or not _is_prime(self.prime):
                raise DomainError(f"nonarchimedean field needs a prime >= 2, got {self.prime!r}")
        elif self.prime is not None:
            raise DomainError("archimedean field takes no prime")

    @property
    def is_archimedean(self) -> bool:
        return self.kind == ARCHIMEDEAN

    @classmethod
    def real(cls) -> "FieldSpec":
        return cls(ARCHIMEDEAN)

    @classmethod
    def padic(cls, prime: int) -> "FieldSpec":
        return cls(NONARCHIMEDEAN, prime)

    def to_dict(self) -> dict:
        if self.is_archimedean:
            return {"kind": ARCHIMEDEAN}
        return {"kind": NONARCHIMEDEAN, "prime": self.prime}

    @classmethod
    def from_dict(cls, doc: dict) -> "FieldSpec":
        if not isinstance(doc, dict) or not doc.keys() <= {"kind", "prime"}:
            raise ConfigError(f"a field spec is an object with keys kind and prime only, got {doc!r}")
        return cls(doc["kind"], doc.get("prime"))

    def __str__(self) -> str:
        return "R" if self.is_archimedean else f"Q_{self.prime}"


def valuation(x: Scalar, prime: int) -> int | float:
    """p-adic valuation of an exact rational.

    Returns v_p(numerator) - v_p(denominator), or :data:`INFINITE_VALUATION`
    for x = 0.  Floats are rejected: the valuation is only meaningful for
    exact scalars.
    """
    if isinstance(x, float):
        raise UsageError("valuation is defined for exact rationals, not floats")
    x = Fraction(x)
    return _int_valuation(x.numerator, prime) - _int_valuation(x.denominator, prime)


def _int_valuation(n: int, prime: int) -> int | float:
    """p-adic valuation of a Python int, :data:`INFINITE_VALUATION` at 0."""
    if n == 0:
        return INFINITE_VALUATION
    v = 0
    while n % prime == 0:
        n //= prime
        v += 1
    return v


def _p_power(prime: int, e: int) -> Fraction:
    """prime**e as an exact Fraction, for any integer e."""
    return Fraction(prime**e) if e >= 0 else Fraction(1, prime ** (-e))


def abs_value(x: Scalar, field: FieldSpec):
    """Absolute value of a scalar in the given field.

    Archimedean: the usual absolute value as a float.  Nonarchimedean:
    p**(-v_p(x)) returned as an exact Fraction, with |0| = 0.
    """
    if field.is_archimedean:
        return abs(float(x))
    return Fraction(0) if x == 0 else _p_power(field.prime, -valuation(x, field.prime))


_TOO_LONG = 10**4300  # the least int of more than 4300 digits, the most str() writes


def parse_scalar(text, field: FieldSpec) -> Fraction:
    """The exact rational of a document scalar ("num/den", integer or decimal literal), in both fields.

    Over R it must also round to a finite float.  A bool, a value that is not a str, int or float,
    a decimal exponent beyond 4300, a numerator or denominator of more than 4300 digits and what
    Fraction rejects (inf, nan, 1/0) raise ConfigError.
    """
    if isinstance(text, bool) or not isinstance(text, (str, int, float)):
        raise ConfigError(f"scalar {text!r} is not a string or a number")
    # a plain ASCII integer literal of at most 18 digits: int reads it as Fraction's pattern would, and faster
    if type(text) is str and len(text) < 19 and text.isascii() and text.removeprefix("-").isdigit():
        return Fraction(int(text))
    try:
        # Fraction builds 10**e for an exponent e; cap |e| at the digits Python reads into an int
        exp = text.lower().partition("e")[2].replace("_", "").strip().lstrip("+-") if isinstance(text, str) else ""
        if exp.isdecimal() and int(exp) > 4300:
            raise ValueError("its decimal exponent is beyond 4300")
        x = Fraction(text)
        if max(abs(x.numerator), x.denominator) >= _TOO_LONG:
            raise ValueError("its numerator or denominator has more than 4300 digits")
        if field.is_archimedean:
            float(x)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"cannot parse scalar {text!r} over {field}: {exc}") from exc
    return x


def format_scalar(x: Scalar, field: FieldSpec) -> str:
    """Serialize a scalar: round-trippable decimal for reals, num/den otherwise."""
    if field.is_archimedean:
        return repr(float(x))
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# Certified interval arithmetic (archimedean only)
# ---------------------------------------------------------------------------

_INF = math.inf


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


def _enclose(n: int, d: int) -> tuple[float, float]:
    """Endpoints enclosing the rational n / d (Python ints, d != 0).

    n / d is the correctly rounded quotient; when it equals n / d exactly
    it is both endpoints, else its two float neighbours are.  A quotient
    beyond the float range raises OverflowError.
    """
    f = n / d
    fn, fd = f.as_integer_ratio()
    if fn * d == n * fd:
        return f, f
    return _down(f), _up(f)


def _sqrt(lo: float, hi: float) -> tuple[float, float]:
    """Endpoints enclosing the square roots of [lo, hi]."""
    if lo < 0:
        raise DomainError("interval sqrt of a possibly negative interval")
    return max(0.0, _down(math.sqrt(lo))), _up(math.sqrt(hi))


def _div(alo: float, ahi: float, blo: float, bhi: float) -> tuple[float, float]:
    """Endpoints enclosing [alo, ahi] / [blo, bhi]."""
    if blo <= 0.0 <= bhi:
        raise DomainError("interval division by an interval containing zero")
    c = (alo / blo, alo / bhi, ahi / blo, ahi / bhi)
    return _down(min(c)), _up(max(c))


@dataclass(frozen=True)
class Interval:
    """Closed float interval with outward rounding.

    Each operation widens its endpoints by one ulp, so the result is
    guaranteed to contain the exact real value whenever the inputs do.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi) or self.lo > self.hi:
            raise DomainError(f"bad interval [{self.lo}, {self.hi}]")

    @classmethod
    def exact(cls, x) -> "Interval":
        """Interval containing an int, float or Fraction exactly."""
        if isinstance(x, Interval):
            return x
        if isinstance(x, float):
            return cls(x, x)
        q = Fraction(x)
        return cls(*_enclose(int(q.numerator), int(q.denominator)))

    def __add__(self, other) -> "Interval":
        o = Interval.exact(other)
        return Interval(_down(self.lo + o.lo), _up(self.hi + o.hi))

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other) -> "Interval":
        return self + (-Interval.exact(other))

    def __mul__(self, other) -> "Interval":
        o = Interval.exact(other)
        c = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(_down(min(c)), _up(max(c)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        o = Interval.exact(other)
        return Interval(*_div(self.lo, self.hi, o.lo, o.hi))

    def sqrt(self) -> "Interval":
        return Interval(*_sqrt(self.lo, self.hi))

    # Certified comparisons: true only when every pair of contained values
    # satisfies the relation.
    def certainly_lt(self, other) -> bool:
        return self.hi < Interval.exact(other).lo

    def certainly_ge(self, other) -> bool:
        return self.lo >= Interval.exact(other).hi

    def certainly_gt(self, other) -> bool:
        return self.lo > Interval.exact(other).hi

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)
