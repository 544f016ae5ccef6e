"""Int-pair p-adic elements against the Fraction-valued reference element.

Random seeded operands over Q_2, Q_3 and Q_5, with large and negative
numerators and denominators and high powers of p on either side, so that
every operation reduces across big gcds.  Each result must equal the
reference result in value, ``canonical_str``, JSON encoding, valuation and
unit class, and be in canonical form: int ``num`` over an int ``den > 0``
with gcd(num, den) == 1.
"""

import math
import random
from fractions import Fraction

import pytest

from berkline import INF, PadicField
from berkline.errors import DivisionByZero
from berkline.serialize import elem_from_json, elem_to_json
from berkline.units import unit_class
from reference_padic import RefPadicField, ref_elem_to_json, ref_unit_class


def _value(rng, p):
    """A rational with a random power of p and large, signed cofactors."""
    if rng.random() < 0.08:
        return Fraction(0)
    num = rng.choice([1, 2, 3, 5, 7, 10**12 + 39, 3**40, 2**61 - 1,
                      7 * 11 * 13, 10**30])
    den = rng.choice([1, 1, 2, 3, 5, 9, 2**40, 5**17, 10**12 + 39, 720])
    v = rng.choice([0, 0, 1, -1, 2, -3, 17, -25, 64])
    return Fraction(rng.choice([1, -1]) * num, den) * Fraction(p) ** v


def _check_canonical(x):
    assert type(x.num) is int and type(x.den) is int
    assert x.den > 0
    assert math.gcd(x.num, x.den) == 1
    assert isinstance(x.value, Fraction)
    assert (x.num, x.den) == (x.value.numerator, x.value.denominator)


def _same(x, r):
    _check_canonical(x)
    assert x.value == r.value
    assert x.canonical_str() == r.canonical_str()
    assert repr(x) == repr(r)
    assert x.valuation() == r.valuation()
    assert x.valuation_lower_bound() == r.valuation_lower_bound()
    assert x.is_zero() == r.is_zero() and bool(x) == bool(r)
    assert elem_to_json(x) == ref_elem_to_json(r)
    assert elem_from_json(elem_to_json(x)) == x
    if not r.is_zero():
        u = unit_class(x)
        assert (u.q, u.res, u.modulus) == ref_unit_class(r)


def _outcome(fn):
    try:
        return fn()
    except DivisionByZero as exc:
        return type(exc)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_operations_match_reference(p):
    rng = random.Random(7000 + p)
    fld, ref = PadicField(p), RefPadicField(p)
    pool = []
    for _ in range(40):
        v = _value(rng, p)
        x, r = fld.elem(v), ref.elem(v)
        _same(x, r)
        pool.append((x, r))
    for step in range(600):
        (x, rx), (y, ry) = rng.choice(pool), rng.choice(pool)
        k = rng.choice([3, -4, p, -p**5, 0])
        for new, old in ((x + y, rx + ry), (x - y, rx - ry), (-x, -rx),
                         (x * y, rx * ry), (x * k, rx * k), (k * x, k * rx),
                         (x + (-x), rx + (-rx))):
            _same(new, old)
        inv, rinv = _outcome(x.inverse), _outcome(rx.inverse)
        if isinstance(rinv, type):
            assert inv is rinv
        else:
            _same(inv, rinv)
        assert x.agrees_with(y) == rx.agrees_with(ry)
        assert (x == y) == (rx == ry)
        if x == y:
            assert hash(x) == hash(y)
        # the same value reached another way is the same element
        back = (x + y) - y
        assert back == x and hash(back) == hash(x)
        assert fld.elem(x.value) == x
        d = x.valuation_of_difference(y)
        assert d == (rx - ry).valuation()
        assert d == (INF if x == y else (x - y).valuation())
        if step % 3 == 0 and len(pool) < 120:
            pool.append(rng.choice([(x + y, rx + ry), (x * y, rx * ry)]))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_monomials_match_reference(p):
    # PadicField.t builds c * p**q on ints; the old one multiplied Fractions
    fld, ref = PadicField(p), RefPadicField(p)
    for q in range(-6, 7):
        for c in (1, -1, 2, Fraction(3, 4), Fraction(-p**3, 7), 10**20):
            _same(fld.t(q, c), ref.elem(Fraction(p) ** q * c))
