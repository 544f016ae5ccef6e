"""Metamorphic relations: answers that must agree because of what they mean.

A differential test compares a query with the code it replaced, so a
mistake both copies share cannot show.  The relations here hold by
mathematics instead:

* representation: f and ``f.recenter(b)`` are one function, so they have
  the same root counts in every disc and the same Gauss valuations;
* multiplicativity: v_s(fg) = v_s(f) + v_s(g) at every disc point, and the
  root counts of f and g in a disc add up to those of fg.

Each relation runs on seeded cases over F_2((t)), F_3((t)), Q((t)), Q_2 and
Q_3, half of them with truncated Puiseux coefficients and shifts (p-adic
numbers are always exact).  Where both sides answer they must be equal.
Where only one side answers, the other must raise PrecisionExhausted: a
truncated coefficient carries one flat precision bound, so a shift or a
product may lose what the other side still knows.  Any other error fails
the test.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from berkline import (INFINITY, LogValue, PadicField, Polynomial,
                      PuiseuxField, gauss_valuation, roots_in_disc)
from berkline.errors import PrecisionExhausted
from conftest import rand_padic, rand_puiseux, rand_puiseux_nonzero

FIELDS = [PuiseuxField(2), PuiseuxField(3), PuiseuxField(0), PadicField(2),
          PadicField(3)]
IDS = ["F2", "F3", "Q", "Q2", "Q3"]
CASES = 300
UNKNOWN = "PrecisionExhausted"


def elem(rng, fld, nonzero=False):
    if isinstance(fld, PadicField):
        return rand_padic(rng, fld, allow_zero=not nonzero)
    make = rand_puiseux_nonzero if nonzero else rand_puiseux
    return make(rng, fld, exp_range=(-2, 6))


def truncate(rng, x, share):
    """x cut at a random bound with probability ``share``; p-adic numbers
    stay exact."""
    if isinstance(x.field, PadicField) or rng.random() >= share:
        return x
    return x.truncated(Fraction(rng.randint(-1, 10), rng.choice((1, 2, 3))))


def case(rng, fld, k, factors=1):
    """``factors`` polynomials of degree 1..4 on one center, a shift b, and
    a disc (c, s); every odd case truncates coefficients and the shift."""
    share = 0.5 if k % 2 else 0.0
    center = elem(rng, fld) if rng.random() < 0.5 else fld.zero()
    polys = []
    for _ in range(factors):
        deg = rng.randint(1, 4)
        coeffs = [elem(rng, fld) for _ in range(deg)] + [elem(rng, fld, True)]
        polys.append(Polynomial.from_coeffs(
            fld, [truncate(rng, c, share) for c in coeffs], center))
    b = truncate(rng, elem(rng, fld), share / 2)
    c = elem(rng, fld)
    s = INFINITY if rng.random() < 0.1 else LogValue(
        Fraction(rng.randint(-2, 8), rng.choice((1, 2))))
    return polys, b, c, s


def answer(fn, *args):
    try:
        return fn(*args)
    except PrecisionExhausted:
        return UNKNOWN


SIDES = {(True, True): "both", (True, False): "left only",
         (False, True): "right only", (False, False): "neither"}


def check(tally, left, right):
    """Equal where both sides answer; tally who answered."""
    answered = (left is not UNKNOWN, right is not UNKNOWN)
    tally[SIDES[answered]] += 1
    if all(answered):
        assert left == right


def assert_mostly_answered(tally):
    # the relation must be tested, not vacuous: most cases answer on both
    # sides, and the truncated half leaves the flat precision some slack
    assert sum(tally.values()) == CASES
    assert tally["both"] >= CASES * 3 // 4, tally


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_recentering_keeps_root_counts(fld):
    rng = random.Random(3001)
    tally = Counter()
    for k in range(CASES):
        (f,), b, c, s = case(rng, fld, k)
        closed = rng.random() < 0.7
        check(tally, answer(roots_in_disc, f, c, s, closed),
              answer(roots_in_disc, f.recenter(b), c, s, closed))
    assert_mostly_answered(tally)


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_recentering_keeps_gauss_valuations(fld):
    rng = random.Random(3002)
    tally = Counter()
    for k in range(CASES):
        (f,), b, c, s = case(rng, fld, k)
        check(tally, answer(gauss_valuation, f, c, s),
              answer(gauss_valuation, f.recenter(b), c, s))
    assert_mostly_answered(tally)


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_gauss_valuation_is_multiplicative(fld):
    rng = random.Random(3003)
    tally = Counter()
    for k in range(CASES):
        (f, g), _, c, s = case(rng, fld, k, factors=2)
        vf, vg = answer(gauss_valuation, f, c, s), answer(gauss_valuation, g, c, s)
        check(tally, answer(gauss_valuation, f * g, c, s),
              UNKNOWN if vf is UNKNOWN or vg is UNKNOWN else vf + vg)
    assert_mostly_answered(tally)


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_root_counts_add_over_products(fld):
    rng = random.Random(3004)
    tally = Counter()
    for k in range(CASES):
        (f, g), _, c, s = case(rng, fld, k, factors=2)
        closed = rng.random() < 0.7
        nf = answer(roots_in_disc, f, c, s, closed)
        ng = answer(roots_in_disc, g, c, s, closed)
        check(tally, answer(roots_in_disc, f * g, c, s, closed),
              UNKNOWN if nf is UNKNOWN or ng is UNKNOWN else nf + ng)
    assert_mostly_answered(tally)
