"""LogValue: equality and hashing agree with the ordering."""

import math
from fractions import Fraction

import pytest

from berkline import INFINITY, LogValue


@pytest.mark.parametrize("x", [0, 1, -3, Fraction(1, 2), Fraction(-7, 3)])
def test_equal_to_the_rational_it_orders_like(x):
    v = LogValue(x)
    assert v <= x and v >= x
    assert v == x and x == v
    assert not (v != x)
    assert hash(v) == hash(x)
    assert len({v, x}) == 1


def test_infinity_equals_float_inf():
    assert INFINITY == math.inf and math.inf == INFINITY
    assert hash(INFINITY) == hash(math.inf)
    assert INFINITY != 5


def test_eps_part_breaks_equality():
    assert LogValue(1, 1) != 1
    assert LogValue(1, 1) > 1
    assert LogValue(1, 1) == LogValue(Fraction(1), Fraction(1))
    assert hash(LogValue(1, 1)) == hash(LogValue(Fraction(1), Fraction(1)))


@pytest.mark.parametrize("other", ["x", "1", None, 1.0, -math.inf, [1]])
def test_other_types_are_unequal_without_raising(other):
    assert LogValue(1) != other
    assert not (LogValue(1) == other)
