"""The ordered value group Q + Q*eps with +infinity adjoined.

Radii and norms live here on a logarithmic scale: a point at log-value s
stands for the norm 2**(-s), so larger s means a smaller disc.  The eps
component is a formal positive infinitesimal ordered lexicographically below
any rational gap; log-values with nonzero eps part model radii outside the
value group of the field (type-3 data).

Two constructors build a LogValue.  ``LogValue(q, e)`` validates: it coerces
ints and rationals to ``Fraction``, accepts ``math.inf`` for q (and then
sets e to 0), and rejects -infinity and every other float; it runs
``__post_init__``, looked up on the class.  ``trusted(q, e)`` checks nothing:
q and e must be ``Fraction``s, so the value is finite.  It builds the results
of ``+``, ``-``, negation and ``scale``, and the log-values that the library
computes exactly from field valuations.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import Frozen


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        if math.isinf(x):
            return x
        raise TypeError("log-value components must be exact rationals")
    return Fraction(x)


_F0 = Fraction(0)
_INF_KEY = (1, 0, 0)


class LogValue(Frozen):
    """Element (q, e) of Q + Q*eps, ordered lexicographically.

    ``q`` may be +infinity, in which case the element is the absorbing top
    and ``e`` is normalized to 0.  Instances are immutable; the order key
    ``(0, q, e)``, or ``(1, 0, 0)`` at infinity, is stored at construction.
    """

    __slots__ = ("q", "e", "_k")

    def __init__(self, q, e=_F0):
        _set_q(self, q)
        _set_e(self, e)
        self.__post_init__()

    def __post_init__(self):
        q = _frac(self.q)
        e = _frac(self.e)
        if isinstance(q, float) and math.isinf(q):
            if q < 0:
                raise ValueError("-infinity is not a log-value")
            e = _F0
        _set_q(self, q)
        _set_e(self, e)
        _set_k(self, _INF_KEY if isinstance(q, float) else (0, q, e))

    def __reduce__(self):
        return LogValue, (self.q, self.e)

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

    def __lt__(self, other):
        return self._k < as_logvalue(other)._k

    def __le__(self, other):
        return self._k <= as_logvalue(other)._k

    def __gt__(self, other):
        return self._k > as_logvalue(other)._k

    def __ge__(self, other):
        return self._k >= as_logvalue(other)._k

    def __add__(self, other):
        other = as_logvalue(other)
        if self.is_infinite or other.is_infinite:
            return INFINITY
        return trusted(self.q + other.q, self.e + other.e)

    __radd__ = __add__

    def __sub__(self, other):
        other = as_logvalue(other)
        if self.is_infinite:
            if other.is_infinite:
                raise ValueError("infinity - infinity is undefined")
            return INFINITY
        if other.is_infinite:
            raise ValueError("subtracting infinity from a finite log-value")
        return trusted(self.q - other.q, self.e - other.e)

    def __neg__(self):
        if self.is_infinite:
            raise ValueError("-infinity is not a log-value")
        return trusted(-self.q, -self.e)

    def scale(self, k: int) -> "LogValue":
        """k-fold sum for an integer k >= 0; scale(0) is 0 even at infinity."""
        if not isinstance(k, int):
            raise TypeError(f"scale factor must be an int, not {type(k).__name__}")
        if k < 0:
            raise ValueError("scale factor must be nonnegative")
        if k == 0:
            return ZERO
        if self.is_infinite:
            return INFINITY
        return trusted(k * self.q, k * self.e)

    def __str__(self):
        if self.is_infinite:
            return "inf"
        if self.e == 0:
            return str(self.q)
        sign = "+" if self.e > 0 else "-"
        return f"{self.q}{sign}{abs(self.e)}*eps"

    __repr__ = __str__


_set_q = LogValue.q.__set__
_set_e = LogValue.e.__set__
_set_k = LogValue._k.__set__
_new = object.__new__


def trusted(q: Fraction, e: Fraction = _F0) -> LogValue:
    """The finite LogValue (q, e) of two Fractions, built without checks."""
    v = _new(LogValue)
    _set_q(v, q)
    _set_e(v, e)
    _set_k(v, (0, q, e))
    return v


def as_logvalue(x) -> LogValue:
    """Coerce a rational, int, or +infinity into a LogValue."""
    if isinstance(x, LogValue):
        return x
    if isinstance(x, float) and math.isinf(x) and x > 0:
        return INFINITY
    return LogValue(_frac(x))


ZERO = LogValue(Fraction(0))
INFINITY = LogValue(math.inf)
