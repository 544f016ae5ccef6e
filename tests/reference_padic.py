"""Reference p-adic arithmetic on ``Fraction`` values: the test oracle.

``RefPadicElem`` is the element the library used before it stored p-adic
numbers as an int numerator over a positive denominator, kept verbatim
apart from its class name.  Its value is a ``Fraction`` and every result is
re-normalised by ``Fraction``: it shares no code with ``berkline.field``'s
int arithmetic, which is what makes it a useful oracle for it.
``RefPadicField`` builds it, and ``ref_elem_to_json`` and ``ref_unit_class``
are the library's former p-adic branches of ``elem_to_json`` and
``unit_class``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from berkline.errors import DivisionByZero
from berkline.field import INF, _check_same_field, _frac


class RefPadicField:
    """The rationals with the p-adic valuation; arithmetic is exact."""

    def __init__(self, p: int):
        self.p = p

    def __eq__(self, other):
        return isinstance(other, RefPadicField) and other.p == self.p

    def __hash__(self):
        return hash(("ref-padic", self.p))

    def elem(self, value) -> "RefPadicElem":
        return RefPadicElem(self, _frac(value))

    def constant(self, c) -> "RefPadicElem":
        return self.elem(c)


@dataclass(frozen=True)
class RefPadicElem:
    field: PadicField
    value: Fraction

    @property
    def is_exact(self) -> bool:
        return True

    def is_zero(self) -> bool:
        return self.value == 0

    def valuation(self):
        if self.value == 0:
            return INF
        p = self.field.p
        num, den = self.value.numerator, self.value.denominator
        v = 0
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        return Fraction(v)

    valuation_lower_bound = valuation

    def __bool__(self):
        return self.value != 0

    def __add__(self, other):
        _check_same_field(self, other)
        return RefPadicElem(self.field, self.value + other.value)

    def __neg__(self):
        return RefPadicElem(self.field, -self.value)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.field.constant(other)
        _check_same_field(self, other)
        return RefPadicElem(self.field, self.value * other.value)

    __rmul__ = __mul__

    def inverse(self):
        if self.value == 0:
            raise DivisionByZero("inverse of zero")
        return RefPadicElem(self.field, 1 / self.value)

    def agrees_with(self, other) -> bool:
        _check_same_field(self, other)
        return self.value == other.value

    def canonical_str(self) -> str:
        return str(self.value)

    def __repr__(self):
        return self.canonical_str()


def ref_elem_to_json(x):
    return {"backend": "padic", "p": x.field.p,
            "value": str(Fraction(x.value))}


def ref_unit_class(c):
    """(q, res, modulus) of a nonzero element's unit class."""
    p = c.field.p
    v = int(c.valuation())
    unit = c.value / Fraction(p) ** v
    num, den = unit.numerator, unit.denominator
    res = (num % p) * pow(den % p, -1, p) % p
    return Fraction(v), res, p
