"""The leading-form test of v(h) > 0 at one point against h by products.

``units._forms_agree(n1, d0, n0, d1, s, p)`` decides v(h) > 0 for h =
n1 d0 / (n0 d1) - 1 at radius s around the center the four polynomials are
written at, by comparing LT(n1) LT(d0) with LT(n0) LT(d1).
``reference_units.h_positive`` decides the same from h formed by products:
the Gauss valuations of its numerator and denominator, or their first
Newton-polygon vertices at a puncture (s = +infinity).

Seeded cases over Q((t)), F_2((t)), F_3((t)), Q_3 and Q_5 draw polynomials
whose coefficients sit on or near a line of slope -s, so that several
indices tie on the supporting line, with exact zeros (also below the lowest
nonzero index, for punctures), radii with eps parts -1, 0 and +1, and f1 =
f0 * A * (1 + B), f0 * (1 + B) on f0's own denominator object, or f0 * A *
u, so that both verdicts and every way for the forms to differ (minimum,
index set, residues) are common:

- on exact coefficients both decide every case the same way;
- on truncated coefficients, where the leading forms answer, every sampled
  exact completion (``completion.py``) gets the same answer from the
  products, and so does the truncated data wherever the products answer.
"""

import random
from fractions import Fraction

import pytest

from berkline import INFINITY, LogValue, PadicField, Polynomial, PuiseuxField
from berkline.errors import PrecisionExhausted
from berkline.units import _forms_agree

import reference_units as ref
from completion import complete_poly

FIELDS = {
    "Q((t))": PuiseuxField(0),
    "F_2((t))": PuiseuxField(2),
    "F_3((t))": PuiseuxField(3),
    "Q_3": PadicField(3),
    "Q_5": PadicField(5),
}
EXACT_CASES = 2_000
TRUNCATED_CASES = 600


def _padic(fld):
    return isinstance(fld, PadicField)


def _unit(rng, fld):
    if _padic(fld):
        return rng.choice([1, -1, 2, -2, 4, Fraction(1, 2), Fraction(7, 4)])
    if fld.char:
        return rng.randrange(1, fld.char)
    return rng.choice([1, -1, 2, -3, Fraction(1, 2)])


def _elem(rng, fld, v):
    """A nonzero element of valuation v, one or two terms."""
    c = fld.t(v, _unit(rng, fld))
    if rng.random() < 0.3:
        c = c + fld.t(v + 1, _unit(rng, fld))
    return c


def _radius(rng, fld):
    if rng.random() < 0.15:
        return INFINITY
    q = Fraction(rng.randint(-2, 2), rng.choice([1, 2] if _padic(fld) else [1, 2, 3]))
    return LogValue(q, rng.choice([-1, 0, 1]))


def _poly(rng, fld, center, s, deg=None):
    """A nonzero polynomial at center whose coefficients lie on, or a
    little above, a line of slope -s.q; some are exact zeros."""
    deg = rng.randint(0, 3) if deg is None else deg
    q = Fraction(0) if s.is_infinite else s.q
    base = Fraction(rng.randint(-1, 2))
    coeffs = []
    for i in range(deg + 1):
        if i < deg and rng.random() < 0.25:
            coeffs.append(fld.zero())
            continue
        v = base - i * q + rng.choice([0, 0, 0, Fraction(1, 2), 1])
        if _padic(fld):
            v = Fraction(v.__floor__())
        coeffs.append(_elem(rng, fld, v))
    return Polynomial(center, tuple(coeffs))


def _center(rng, fld):
    if _padic(fld):
        return fld.constant(rng.choice([0, 1, fld.p, 2]))
    return rng.choice([fld.zero(), fld.one(), fld.t(1), fld.one() + fld.t(2)])


def _case(rng, fld):
    """(n0, d0, n1, d1, s), all four written at one center."""
    a = _center(rng, fld)
    s = _radius(rng, fld)
    n0, d0, big_a = (_poly(rng, fld, a, s) for _ in range(3))
    mode = rng.random()
    if mode < 0.5:
        # v(h) = v(B) at the point: positive, zero or negative
        b = _poly(rng, fld, a, s, rng.randint(0, 2))
        b = Polynomial(a, tuple(c * fld.t(rng.choice([-1, 0, 1, 1, 2]))
                                for c in b.coeffs))
        one = Polynomial.from_coeffs(fld, [fld.one()], a)
        if rng.random() < 0.3:
            # f1 = f0 (1 + B), sharing f0's denominator
            n1, d1 = n0 * (one + b), d0
        else:
            n1, d1 = n0 * big_a * (one + b), d0 * big_a
    elif mode < 0.7:
        # times a constant: the same minimum and indices, residues apart
        # unless u is a 1-unit
        u = rng.choice([fld.constant(_unit(rng, fld)),
                        fld.one() + fld.t(rng.choice([1, 2]))])
        n1, d1 = (n0 * big_a).scale(u), d0 * big_a
    else:
        n1, d1 = _poly(rng, fld, a, s), _poly(rng, fld, a, s)
    if n1.is_zero():  # 1 + B = 0
        return _case(rng, fld)
    return n0, d0, n1, d1, s


def _cases(name, count):
    rng = random.Random(f"leading-forms/{name}")
    fld = FIELDS[name]
    return fld, [_case(rng, fld) for _ in range(count)]


@pytest.mark.parametrize("name", FIELDS)
def test_exact_forms_match_products(name):
    fld, cases = _cases(name, EXACT_CASES)
    verdicts = {False: 0, True: 0}
    for n0, d0, n1, d1, s in cases:
        want = ref.h_positive(n0, d0, n1, d1, s)
        got = _forms_agree(n1, d0, n0, d1, s, fld.residue_char)
        assert got is want, (n0, d0, n1, d1, s)
        verdicts[want] += 1
    # both verdicts are common
    assert min(verdicts.values()) > EXACT_CASES // 5, verdicts


def _truncate(rng, fld, g: Polynomial) -> Polynomial:
    """g with some coefficients known only a little past their valuation
    (or only below it), and some exact zeros made truncated zeros."""
    coeffs = []
    for c in g.coeffs:
        if c.is_zero():
            if rng.random() < 0.3:
                c = fld.elem([], rng.choice([-1, 0, Fraction(1, 2), 1, 2]))
        elif rng.random() < 0.3:
            c = c.truncated(c.valuation() + rng.choice([0, Fraction(1, 2), 1, 2]))
        coeffs.append(c)
    return Polynomial(g.center, tuple(coeffs))


@pytest.mark.parametrize("name", [n for n in FIELDS if not n.startswith("Q_")])
def test_truncated_forms_hold_on_completions(name):
    fld, cases = _cases(name, TRUNCATED_CASES)
    rng = random.Random(f"leading-forms/truncated/{name}")
    answered = 0
    for case in cases:
        *polys, s = case
        polys = [_truncate(rng, fld, g) for g in polys]
        n0, d0, n1, d1 = polys
        try:
            got = _forms_agree(n1, d0, n0, d1, s, fld.residue_char)
        except PrecisionExhausted:
            continue
        answered += 1
        try:
            assert ref.h_positive(n0, d0, n1, d1, s) is got, (polys, s)
        except PrecisionExhausted:
            pass
        for _ in range(8):
            n0c, d0c, n1c, d1c = (complete_poly(rng, g) for g in polys)
            assert ref.h_positive(n0c, d0c, n1c, d1c, s) is got, \
                (polys, s, (n0c, d0c, n1c, d1c))
    assert answered > TRUNCATED_CASES // 4, answered
