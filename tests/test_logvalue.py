"""LogValue: equality and hashing agree with the ordering."""

import math
import random
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


def _order_key(v):
    # the order spelled out: +infinity on top, else (q, e) lexicographically
    return (1, 0, 0) if v.is_infinite else (0, v.q, v.e)


def test_order_is_lexicographic_with_infinity_on_top():
    rng = random.Random(1310)
    parts = [0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 3), Fraction(5, 2)]
    pool = [INFINITY, LogValue(math.inf, 5)] + [
        LogValue(rng.choice(parts), rng.choice(parts + [0, 0]))
        for _ in range(60)]
    for _ in range(3000):
        x, y = rng.choice(pool), rng.choice(pool)
        kx, ky = _order_key(x), _order_key(y)
        assert (x < y) == (kx < ky)
        assert (x <= y) == (kx <= ky)
        assert (x > y) == (kx > ky)
        assert (x >= y) == (kx >= ky)
        assert (x == y) == (kx == ky)
        if x == y:
            assert hash(x) == hash(y)
    shuffled = rng.sample(pool, len(pool))
    assert ([_order_key(v) for v in sorted(shuffled)]
            == sorted(_order_key(v) for v in shuffled))
