"""LogValue: equality and hashing agree with the ordering; scale and the
construction hook."""

import math
import random
from fractions import Fraction

import pytest

from berkline import INFINITY, LogValue
from berkline.logvalue import trusted


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


@pytest.mark.parametrize("k", [Fraction(1, 2), Fraction(2), 1.5, 2.0, "2"])
def test_scale_takes_only_an_int_factor(k):
    # a float stored as q would read as +infinity through is_infinite
    with pytest.raises(TypeError):
        LogValue(5).scale(k)
    with pytest.raises(TypeError):
        INFINITY.scale(k)


def test_scale_by_an_int():
    assert LogValue(5, -1).scale(3) == LogValue(15, -3)
    assert LogValue(5).scale(True) == LogValue(5)
    assert INFINITY.scale(0) == 0 and INFINITY.scale(2) is INFINITY
    with pytest.raises(ValueError):
        LogValue(5).scale(-1)


def test_only_the_validating_constructor_runs_the_post_init_hook(monkeypatch):
    # the benchmark's tracer counts validated constructions by patching
    # LogValue.__post_init__ on the class, by that name
    calls = []
    post_init = LogValue.__dict__["__post_init__"]

    def counted(self):
        calls.append(1)
        post_init(self)

    monkeypatch.setattr(LogValue, "__post_init__", counted)
    x = LogValue(Fraction(3, 2), -1)
    assert len(calls) == 1 and x == LogValue(Fraction(3, 2), -1)
    calls.clear()
    y = (x + x - LogValue(1, 1)).scale(2)
    assert len(calls) == 1 and y == LogValue(4, -6)
    calls.clear()
    z = trusted(Fraction(1, 3))
    assert not calls and (z.q, z.e) == (Fraction(1, 3), 0)
