"""``berkline.logvalue.LogValue`` as it was while it was a frozen dataclass
that validated every construction: the test oracle.

Kept verbatim apart from its names (``RefLogValue``, ``ref_as_logvalue``,
``REF_ZERO``, ``REF_INFINITY``).  ``tests/test_logvalue_reference.py``
checks the library's slotted class against it.
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
class RefLogValue:
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
        if not isinstance(other, RefLogValue):
            if not isinstance(other, (int, Fraction)) and other != math.inf:
                return NotImplemented
            other = ref_as_logvalue(other)
        return self.q == other.q and self.e == other.e

    def __hash__(self):
        # equal to hash(q) when e == 0, as RefLogValue(q) == q
        return hash(self.q) if self.e == 0 else hash((self.q, self.e))

    def _key(self):
        if self.is_infinite:
            return (1, Fraction(0), Fraction(0))
        return (0, self.q, self.e)

    def __lt__(self, other):
        return self._key() < ref_as_logvalue(other)._key()

    def __le__(self, other):
        return self._key() <= ref_as_logvalue(other)._key()

    def __gt__(self, other):
        return self._key() > ref_as_logvalue(other)._key()

    def __ge__(self, other):
        return self._key() >= ref_as_logvalue(other)._key()

    def __add__(self, other):
        other = ref_as_logvalue(other)
        if self.is_infinite or other.is_infinite:
            return REF_INFINITY
        return RefLogValue(self.q + other.q, self.e + other.e)

    __radd__ = __add__

    def __sub__(self, other):
        other = ref_as_logvalue(other)
        if self.is_infinite:
            if other.is_infinite:
                raise ValueError("infinity - infinity is undefined")
            return REF_INFINITY
        if other.is_infinite:
            raise ValueError("subtracting infinity from a finite log-value")
        return RefLogValue(self.q - other.q, self.e - other.e)

    def __neg__(self):
        if self.is_infinite:
            raise ValueError("-infinity is not a log-value")
        return RefLogValue(-self.q, -self.e)

    def scale(self, k: int) -> "RefLogValue":
        """k-fold sum for an integer k >= 0; scale(0) is 0 even at infinity."""
        if k < 0:
            raise ValueError("scale factor must be nonnegative")
        if k == 0:
            return REF_ZERO
        if self.is_infinite:
            return REF_INFINITY
        return RefLogValue(k * self.q, k * self.e)

    def __str__(self):
        if self.is_infinite:
            return "inf"
        if self.e == 0:
            return str(self.q)
        sign = "+" if self.e > 0 else "-"
        return f"{self.q}{sign}{abs(self.e)}*eps"

    __repr__ = __str__


def ref_as_logvalue(x) -> RefLogValue:
    """Coerce a rational, int, or +infinity into a RefLogValue."""
    if isinstance(x, RefLogValue):
        return x
    if isinstance(x, float) and math.isinf(x) and x > 0:
        return REF_INFINITY
    return RefLogValue(_frac(x))


REF_ZERO = RefLogValue(Fraction(0))
REF_INFINITY = RefLogValue(math.inf)
