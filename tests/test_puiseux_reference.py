"""Lattice Puiseux elements against the Fraction-exponent reference element.

Random seeded operands over F_2, F_3 and Q, exact and truncated, with
exponent denominators that differ between operands (1/2, 1/3, 1/1024,
3**30/7, ...), so that every operation aligns lattices.  A second stream over
Q does the same for coefficient denominators (1/3**20, -5/2**40,
7/(10**12 + 39), 22/7, ...).  Each result must equal the reference result in
``terms``, ``prec`` and ``canonical_str``, and be in canonical form.  The
one string that differs on purpose is a truncated zero's: the reference
prints ``0`` like the exact zero, the library prints ``O(t^prec)``.
"""

import math
import random
from fractions import Fraction

import pytest

from berkline import INF, PuiseuxField, field
from berkline.errors import DivisionByZero, PrecisionExhausted
from reference_puiseux import RefPuiseuxField

EXPONENTS = [Fraction(n, d) for n in range(-3, 9) for d in (1, 2, 3, 4, 6)] + [
    Fraction(1, 1024), Fraction(3, 1024), Fraction(-5, 1024), Fraction(2, 3),
    Fraction(3**30, 7), Fraction(-(3**30), 7), Fraction(2**40),
    Fraction(2**41 + 1, 1024),
]
PRECS = [Fraction(n, d) for n in range(-2, 10) for d in (1, 2, 3, 1024)]
# small enough that the reference inverse of 1 + t^(1/1024) stays cheap
WORKING_PREC = Fraction(3)


def _coef(rng, char):
    if char:
        return rng.randrange(char)  # zero included: it must be dropped
    return rng.choice([0, -3, -1, 1, 2, Fraction(1, 2), Fraction(-7, 3)])


def _raw(rng, char):
    terms = [(rng.choice(EXPONENTS), _coef(rng, char))
             for _ in range(rng.randint(0, 4))]
    prec = INF if rng.random() < 0.6 else rng.choice(PRECS)
    return terms, prec


def _check_canonical(x, char):
    assert all(type(e) is int for e in x.exps)
    assert all(a < b for a, b in zip(x.exps, x.exps[1:]))
    assert all(type(n) is int for n in x.nums)
    assert len(x.nums) == len(x.exps) and all(n != 0 for n in x.nums)
    assert type(x.cden) is int and x.cden > 0
    assert math.gcd(x.cden, *x.nums) == 1
    if char:
        assert x.cden == 1
        assert all(0 < n < char for n in x.nums)
    assert x.den > 0 and math.gcd(x.den, *x.exps) == 1
    assert x.prec == INF or isinstance(x.prec, Fraction)
    if x.prec != INF:
        assert all(e < x.prec for e, _ in x.terms)


def _same(x, r, char):
    _check_canonical(x, char)
    assert x.terms == r.terms
    assert x.prec == r.prec
    if r.terms or r.prec == INF:
        assert x.canonical_str() == r.canonical_str()
    else:
        assert r.canonical_str() == "0"
        assert x.canonical_str() == f"O(t^{r.prec})"


def _outcome(fn):
    """The result of fn(), or the type of the domain error it raised."""
    try:
        return fn()
    except (DivisionByZero, PrecisionExhausted) as exc:
        return type(exc)


def _inverse_is_small(x):
    """Whether the inverse has few candidate exponents, so that the reference
    finishes.  An element such as t^(-3**30/7) + t^(1/2) has an inverse with
    ~10**13 terms below its precision bound, on either implementation."""
    if len(x.exps) < 2:
        return True
    unit_prec = WORKING_PREC if x.prec == INF else x.prec - x.valuation()
    return unit_prec * x.den <= 4096


def _compare(new, ref, char):
    if isinstance(ref, type):
        assert new is ref
    else:
        _same(new, ref, char)


@pytest.mark.parametrize("char", [2, 3, 0])
def test_operations_match_reference(char, monkeypatch):
    rng = random.Random(6000 + char)
    monkeypatch.setattr(field, "WORKING_PREC", WORKING_PREC)
    fld = PuiseuxField(char)
    ref = RefPuiseuxField(char, working_prec=WORKING_PREC)
    pool = []
    for _ in range(40):
        terms, prec = _raw(rng, char)
        x, r = fld.elem(terms, prec), ref.elem(terms, prec)
        _same(x, r, char)
        pool.append((x, r))
    for step in range(700):
        (x, rx), (y, ry) = rng.choice(pool), rng.choice(pool)
        for new, old in ((x + y, rx + ry), (x - y, rx - ry), (-x, -rx),
                         (x * y, rx * ry), (x * 3, rx * 3)):
            _same(new, old, char)
        if _inverse_is_small(x):
            _compare(_outcome(x.inverse), _outcome(rx.inverse), char)
        q = rng.choice(PRECS + [INF])
        _same(x.truncated(q), rx.truncated(q), char)
        assert x.agrees_with(y) == rx.agrees_with(ry)
        assert x.agrees_with(x.truncated(q)) and rx.agrees_with(rx.truncated(q))
        assert x.agrees_with(x.truncated(q) + y) == rx.agrees_with(
            rx.truncated(q) + ry)
        assert _outcome(x.valuation) == _outcome(rx.valuation)
        assert x.valuation_lower_bound() == rx.valuation_lower_bound()
        assert (x == y) == (rx == ry)
        if x == y:
            assert hash(x) == hash(y)
        # grow the pool with results, so operands sit on mixed lattices
        if step % 3 == 0 and len(pool) < 120:
            z = rng.choice([(x + y, rx + ry), (x * y, rx * ry)])
            pool.append(z)


def test_default_working_precision_inverse():
    # the exact inverse of 1 + t^(1/2) + t^(1/3) runs to the default bound
    for char in (2, 3, 0):
        x = PuiseuxField(char).elem(
            [(0, 1), (Fraction(1, 2), 1), (Fraction(1, 3), 1)])
        r = RefPuiseuxField(char).elem(
            [(0, 1), (Fraction(1, 2), 1), (Fraction(1, 3), 1)])
        _same(x.inverse(), r.inverse(), char)


# large, pairwise coprime coefficient denominators, and integers
COEFS_Q = [Fraction(1, 3**20), Fraction(-5, 2**40), Fraction(7, 10**12 + 39),
           Fraction(22, 7), Fraction(-1, 3**20), Fraction(3**20, 2**40),
           1, -2, 3, 0]
EXPONENTS_Q = [Fraction(n, d) for n in range(-2, 5) for d in (1, 2, 3)]


def test_coefficient_denominators_match_reference(monkeypatch):
    rng = random.Random(6100)
    monkeypatch.setattr(field, "WORKING_PREC", WORKING_PREC)
    fld = PuiseuxField(0)
    ref = RefPuiseuxField(0, working_prec=WORKING_PREC)
    pool = []
    for _ in range(40):
        terms = [(rng.choice(EXPONENTS_Q), rng.choice(COEFS_Q))
                 for _ in range(rng.randint(0, 4))]
        prec = INF if rng.random() < 0.6 else rng.choice(PRECS)
        x, r = fld.elem(terms, prec), ref.elem(terms, prec)
        _same(x, r, 0)
        pool.append((x, r))
    for step in range(500):
        (x, rx), (y, ry) = rng.choice(pool), rng.choice(pool)
        results = [(x + y, rx + ry), (x - y, rx - ry), (-x, -rx),
                   (x * y, rx * ry), (x * 3, rx * 3)]
        if _inverse_is_small(x):
            inv, rinv = _outcome(x.inverse), _outcome(rx.inverse)
            if isinstance(rinv, type):
                assert inv is rinv
            else:
                results.append((inv, rinv))
        q = rng.choice(PRECS + [INF])
        results.append((x.truncated(q), rx.truncated(q)))
        for new, old in results:
            _same(new, old, 0)
            # the same value built from its terms is the same element
            again = fld.elem(new.terms, new.prec)
            assert again == new and hash(again) == hash(new)
        assert x.agrees_with(y) == rx.agrees_with(ry)
        assert x.agrees_with(x.truncated(q) + y) == rx.agrees_with(
            rx.truncated(q) + ry)
        # (x + y) - y has x's value, reached on other coefficient lattices
        back = (x + y) - y
        assert back.agrees_with(x)
        assert (back == x) == ((rx + ry) - ry == rx)
        if back == x:
            assert hash(back) == hash(x)
        assert (x == y) == (rx == ry)
        if x == y:
            assert hash(x) == hash(y)
        if step % 3 == 0 and len(pool) < 120:
            pool.append(rng.choice([(x + y, rx + ry), (x * y, rx * ry)]))
