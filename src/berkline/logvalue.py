"""The ordered value group Q + Q*eps with +infinity adjoined.

Radii and norms live here on a logarithmic scale: a point at log-value s
stands for the norm 2**(-s), so larger s means a smaller disc.  The eps
component is a formal positive infinitesimal ordered lexicographically below
any rational gap; log-values with nonzero eps part model radii outside the
value group of the field (type-3 data).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        if math.isinf(x):
            return x
        raise TypeError("log-value components must be exact rationals")
    return Fraction(x)


@dataclass(frozen=True)
class LogValue:
    """Element (q, e) of Q + Q*eps, ordered lexicographically.

    ``q`` may be +infinity, in which case the element is the absorbing top
    and ``e`` is normalized to 0.
    """

    q: Fraction
    e: Fraction = Fraction(0)

    def __post_init__(self):
        q = _frac(self.q)
        e = _frac(self.e)
        if isinstance(q, float) and math.isinf(q):
            if q < 0:
                raise ValueError("-infinity is not a log-value")
            e = Fraction(0)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "e", e)

    @property
    def is_infinite(self) -> bool:
        return isinstance(self.q, float)

    def __eq__(self, other):
        if not isinstance(other, LogValue):
            if not isinstance(other, (int, Fraction)) and other != math.inf:
                return NotImplemented
            other = as_logvalue(other)
        return self.q == other.q and self.e == other.e

    def __hash__(self):
        # equal to hash(q) when e == 0, as LogValue(q) == q
        return hash(self.q) if self.e == 0 else hash((self.q, self.e))

    def _key(self):
        if self.is_infinite:
            return (1, Fraction(0), Fraction(0))
        return (0, self.q, self.e)

    def __lt__(self, other):
        return self._key() < as_logvalue(other)._key()

    def __le__(self, other):
        return self._key() <= as_logvalue(other)._key()

    def __gt__(self, other):
        return self._key() > as_logvalue(other)._key()

    def __ge__(self, other):
        return self._key() >= as_logvalue(other)._key()

    def __add__(self, other):
        other = as_logvalue(other)
        if self.is_infinite or other.is_infinite:
            return INFINITY
        return LogValue(self.q + other.q, self.e + other.e)

    __radd__ = __add__

    def __sub__(self, other):
        other = as_logvalue(other)
        if self.is_infinite:
            if other.is_infinite:
                raise ValueError("infinity - infinity is undefined")
            return INFINITY
        if other.is_infinite:
            raise ValueError("subtracting infinity from a finite log-value")
        return LogValue(self.q - other.q, self.e - other.e)

    def __neg__(self):
        if self.is_infinite:
            raise ValueError("-infinity is not a log-value")
        return LogValue(-self.q, -self.e)

    def scale(self, k: int) -> "LogValue":
        """k-fold sum for an integer k >= 0; scale(0) is 0 even at infinity."""
        if k < 0:
            raise ValueError("scale factor must be nonnegative")
        if k == 0:
            return ZERO
        if self.is_infinite:
            return INFINITY
        return LogValue(k * self.q, k * self.e)

    def __str__(self):
        if self.is_infinite:
            return "inf"
        if self.e == 0:
            return str(self.q)
        sign = "+" if self.e > 0 else "-"
        return f"{self.q}{sign}{abs(self.e)}*eps"

    __repr__ = __str__


def as_logvalue(x) -> LogValue:
    """Coerce a rational, int, or +infinity into a LogValue."""
    if isinstance(x, LogValue):
        return x
    if isinstance(x, float) and math.isinf(x) and x > 0:
        return INFINITY
    return LogValue(_frac(x))


ZERO = LogValue(Fraction(0))
INFINITY = LogValue(math.inf)
