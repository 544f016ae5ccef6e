"""Polynomial products and Taylor shifts on int series, against element-wise loops.

``Polynomial.__mul__`` always goes through the convolution kernel, truncated
coefficients included; with every coefficient and the center exact,
``Polynomial.recenter`` goes through an int-series Horner shift.
``elementwise_mul`` and ``elementwise_recenter`` below are the loops on field
elements that define both results: every product, and every exact shift,
must equal theirs in value and in each coefficient's precision, over F_2,
F_3, Q((t)), Q_3 and Q_5.  ``Polynomial.from_roots`` with exact inputs
multiplies all its factors in one kernel chain; ``sequential_from_roots``
is the loop of binary products it replaces, and the two must agree in every
stored field.  Evaluation, ``divide_linear`` and a truncated shift share one
synthetic division; ``horner_call``, ``elementwise_divide_linear`` and
``elementwise_recenter`` are the three loops it replaces.  A polynomial has
one form with two views, its elements and its flat int-series encoding,
each computed from the other on first read.  An exact product stays flat
until its coefficients are read; ``eager_twin`` is the same polynomial
built from its decoded coefficients, and every question asked of the flat
product must get the twin's answer.  So does an exact shift: its leading
forms, root counts, witness discs, leading classes and homotopy verdicts,
read off the flat form, must be those read off the elements.  Every reader
takes the coefficient points of ``gauss._coeff_values``, read off the flat
form of every polynomial; those points, and what each reader makes of
them, must be those of the element reader that
``reference_gauss.element_coeff_values`` keeps, whose elements may lie on
different lattices, truncated polynomials included.
"""

import math
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest

from berkline import (INF, INFINITY, Domain, ExcludedDisc, LogValue,
                      PadicField, Polynomial, PuiseuxField, RationalFunction,
                      _purekernel, gauss_valuation, homotopy_check,
                      leading_class, naive_norm, newton_polygon,
                      root_count_annulus, roots_in_disc, spectral_profile)
from berkline.field import PadicElem, PuiseuxElem
from berkline import cancel, gauss, units
from berkline import poly as poly_mod
from berkline.errors import BackendMismatch, NotCertified, PrecisionExhausted
from berkline.gauss import _coeff_values, log2_naive_norm
from berkline.units import _leading_form, _witness_disc
from reference_gauss import element_coeff_values

FIELDS = [PuiseuxField(2), PuiseuxField(3), PuiseuxField(0), PadicField(3),
          PadicField(5)]
IDS = ["F2", "F3", "Q", "Q3", "Q5"]

# exponent lattices that mix: halves, thirds, sevenths, 1/1024, negatives
EXPONENTS = [Fraction(n, d) for n in range(-4, 7) for d in (1, 2, 3)] + [
    Fraction(1, 7), Fraction(-3, 7), Fraction(1, 1024), Fraction(5, 1024)]
# coefficient denominators that are large and pairwise coprime
Q_COEFS = [1, -1, 2, Fraction(1, 2), Fraction(-7, 3), Fraction(1, 3**20),
           Fraction(-5, 2**40), Fraction(7, 10**12 + 39), Fraction(22, 7)]


def elementwise_mul(f, g):
    fld = f.field
    out = [fld.zero()] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, ci in enumerate(f.coeffs):
        for j, cj in enumerate(g.coeffs):
            out[i + j] = out[i + j] + ci * cj
    return Polynomial.from_coeffs(fld, out, f.center)


def elementwise_recenter(f, a):
    d = a - f.center
    b = list(f.coeffs)
    n = len(b) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            b[j] = b[j] + d * b[j + 1]
    return Polynomial.from_coeffs(f.field, b, a)


def horner_call(f, x):
    """``f(x)`` as its own Horner loop, ``acc * u + c``."""
    if not f.coeffs:
        return f.field.zero()
    u = x - f.center
    acc = f.coeffs[-1]
    for c in reversed(f.coeffs[:-1]):
        acc = acc * u + c
    return acc


def elementwise_divide_linear(f, root):
    """``f.divide_linear(root)`` as its own loop of ``c + d * q``."""
    if f.is_zero():
        return f, f.field.zero()
    d = root - f.center
    out = [f.coeffs[-1]]
    for c in reversed(f.coeffs[:-1]):
        out.append(c + d * out[-1])
    out.reverse()
    return Polynomial.from_coeffs(f.field, out[1:], f.center), out[0]


def rand_elem(rng, fld, nonzero=False):
    if isinstance(fld, PadicField):
        p = fld.p
        if not nonzero and rng.random() < 0.15:
            return fld.zero()
        num = rng.choice([1, -1, 2, 7, 10**12 + 39, -(3**20) - 1])
        den = rng.choice([1, 2, 3, 5, 7, 2**40 + 1, 10**12 + 39])
        if num % p == 0 or den % p == 0:
            num, den = num + p + 1, 1
        return fld.t(rng.randint(-4, 4), Fraction(num, den))
    while True:
        terms = [(rng.choice(EXPONENTS),
                  rng.randrange(1, fld.char) if fld.char else rng.choice(Q_COEFS))
                 for _ in range(rng.randint(0, 3))]
        x = fld.elem(terms)
        if x or not nonzero:
            return x


def rand_trunc(rng, fld, nonzero=False):
    """A Puiseux element that is often truncated: a truncated zero O(t^p),
    or a random element cut at a bound on the mixed exponent lattices, which
    may leave only a truncated zero; p-adic elements are always exact."""
    if isinstance(fld, PadicField):
        return rand_elem(rng, fld, nonzero)
    r = rng.random()
    if r < 0.15:
        return fld.elem([], prec=rng.choice(EXPONENTS))
    x = rand_elem(rng, fld, nonzero)
    if r < 0.55:
        return x.truncated(rng.choice(EXPONENTS) + rng.randint(0, 4))
    return x


def rand_poly(rng, fld, deg, center=None, make=rand_elem):
    """A polynomial of degree deg: its leading coefficient is never an exact
    zero, though make may truncate it, even to O(t^p)."""
    coeffs = [make(rng, fld) for _ in range(deg)] + [make(rng, fld, True)]
    return Polynomial.from_coeffs(fld, coeffs, center)


def prec(c):
    return c.prec if isinstance(c.field, PuiseuxField) else INF


def precs(f):
    return [prec(c) for c in f.coeffs]


def truncation_kinds(f):
    """Which of the truncated shapes the product test must meet f has."""
    kinds = set()
    for c in f.coeffs:
        if c.is_exact:
            continue
        if not c.exps:
            kinds.add("O(t^p)")
        elif c.exps[0] < 0:
            kinds.add("truncated with a negative exponent")
    if f.coeffs and not f.coeffs[-1].is_exact:
        kinds.add("truncated leading coefficient")
    if len({c.den for c in f.coeffs if c.exps}) > 1:
        kinds.add("mixed lattices")
    return kinds


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_products_match_elementwise(fld):
    rng = random.Random(1401)
    seen = set()
    for k in range(3000):
        center = fld.zero() if k % 3 else rand_elem(rng, fld, True)
        f = rand_poly(rng, fld, rng.randint(0, 6), center, rand_trunc)
        g = rand_poly(rng, fld, rng.randint(0, 6), center, rand_trunc)
        got, want = f * g, elementwise_mul(f, g)
        assert got == want
        assert precs(got) == precs(want)
        if isinstance(fld, PuiseuxField):
            seen |= truncation_kinds(f) | truncation_kinds(g)
    if isinstance(fld, PuiseuxField):
        assert seen == {"O(t^p)", "truncated with a negative exponent",
                        "truncated leading coefficient", "mixed lattices"}


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_recenter_matches_elementwise(fld):
    rng = random.Random(1402)
    for k in range(60):
        center = fld.zero() if k % 2 else rand_elem(rng, fld, True)
        f = rand_poly(rng, fld, rng.randint(0, 6), center)
        # a shift with its own exponent and coefficient denominators
        a = rand_elem(rng, fld, nonzero=k % 5 != 0)
        got = f.recenter(a)
        assert got == elementwise_recenter(f, a)
        assert got.center == a


def outcome(fn, *args):
    """What a call gives: its value with every precision spelled out, or
    its error's type and message."""
    try:
        out = fn(*args)
    except Exception as e:
        return type(e), str(e)
    if isinstance(out, tuple):
        quotient, rem = out
        return quotient, precs(quotient), rem, prec(rem)
    if isinstance(out, Polynomial):
        return out, out.center, precs(out)
    return out, prec(out)


def rand_point(rng, fld, other):
    """An evaluation point and its kind: exact, truncated, an int, or an
    element of another field."""
    r = rng.random()
    if r < 0.04:
        return rng.randint(-3, 3), "int"
    if r < 0.08:
        return rand_elem(rng, other, True), "another field"
    x = rand_trunc(rng, fld) if r < 0.5 else rand_elem(rng, fld)
    return x, "exact" if x.is_exact else "truncated"


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_evaluation_division_and_shifts_match_elementwise(fld):
    """``f(x)``, ``f.divide_linear(x)`` and ``f.recenter(x)`` give what
    their own loops give: value, every precision, or the same error."""
    rng = random.Random(1410)
    other = FIELDS[(FIELDS.index(fld) + 1) % len(FIELDS)]
    seen = Counter()
    for k in range(600):
        center = rand_trunc(rng, fld, True) if k % 10 < 3 else fld.zero()
        deg = rng.randint(-1, 5)
        f = (Polynomial(center, ()) if deg < 0 else
             rand_poly(rng, fld, deg, center,
                       rand_trunc if rng.random() < 0.6 else rand_elem))
        x, kind = rand_point(rng, fld, other)
        # an int point is the field's constant; a center must be an element
        as_elem = fld.constant(x) if kind == "int" else x
        for got, want, arg in ((f, horner_call, as_elem),
                               (f.divide_linear, elementwise_divide_linear,
                                as_elem),
                               (f.recenter, elementwise_recenter, x)):
            out = outcome(got, x)
            assert out == outcome(want, f, arg)
            seen["error"] += isinstance(out[0], type)
        seen[kind] += 1
        seen["truncated coefficient"] += not all(c.is_exact for c in f.coeffs)
        seen["truncated center"] += not center.is_exact
    kinds = {"exact", "int", "another field", "error"}
    if isinstance(fld, PuiseuxField):
        kinds |= {"truncated", "truncated coefficient", "truncated center"}
    assert kinds <= {k for k, n in seen.items() if n}


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_int_point_is_the_constant(fld):
    rng = random.Random(1411)
    for _ in range(20):
        f = rand_poly(rng, fld, rng.randint(0, 5), rand_elem(rng, fld))
        for n in (-2, 0, 3):
            assert outcome(f, n) == outcome(f, fld.constant(n))
            assert (outcome(f.divide_linear, n)
                    == outcome(f.divide_linear, fld.constant(n)))
        # any other point that is not an element is still refused
        for bad in (1.5, "3", None):
            with pytest.raises(TypeError):
                f(bad)
            with pytest.raises(TypeError):
                f.divide_linear(bad)
        with pytest.raises(TypeError):
            f.recenter(3)


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_recenter_properties(fld):
    rng = random.Random(1403)
    for _ in range(30):
        f = rand_poly(rng, fld, rng.randint(0, 5), rand_elem(rng, fld))
        a = rand_elem(rng, fld, True)
        g = f.recenter(a)
        assert g.recenter(f.center) == f
        for _ in range(2):
            x = rand_elem(rng, fld)
            assert g(x) == f(x)


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_zero_shift_and_degree_zero(fld):
    rng = random.Random(1404)
    c = rand_elem(rng, fld, True)
    f = rand_poly(rng, fld, 4, c)
    assert f.recenter(c) == f
    assert f.recenter(c + fld.zero()).coeffs is f.coeffs
    const = Polynomial.from_coeffs(fld, [rand_elem(rng, fld, True)], c)
    a = rand_elem(rng, fld, True)
    assert const.recenter(a) == elementwise_recenter(const, a)
    assert const.recenter(a).coeffs == const.coeffs
    assert const * const == elementwise_mul(const, const)
    assert const * f == elementwise_mul(const, f)
    zero = Polynomial(c, ())
    assert zero.recenter(a) == elementwise_recenter(zero, a) == Polynomial(a, ())


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_powers(fld):
    rng = random.Random(1406)
    c = rand_elem(rng, fld)
    f = rand_poly(rng, fld, 2, c)
    assert f ** 0 == Polynomial.from_coeffs(fld, [fld.one()], c)
    assert f ** 1 is f
    want = f
    for k in range(2, 6):
        want = elementwise_mul(want, f)
        assert f ** k == want


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_cancellation(fld):
    """Coefficients that cancel to an exact zero come out as exact zeros."""
    rng = random.Random(1405)
    roots = [rand_elem(rng, fld, True) for _ in range(3)]
    f = Polynomial.from_roots(fld, roots)
    # recentered at a root, the constant coefficient cancels
    g = f.recenter(roots[1])
    assert g == elementwise_recenter(f, roots[1])
    assert g.coeffs[0].is_zero() and not g.coeffs[1].is_zero()
    # (T - r)(T + r) = T^2 - r^2: the middle coefficient cancels
    r = roots[0]
    lin = Polynomial.variable(fld)
    rc = Polynomial.from_coeffs(fld, [r])
    prod = (lin - rc) * (lin + rc)
    assert prod == elementwise_mul(lin - rc, lin + rc)
    assert prod.coeffs[1].is_zero()
    # terms cancelling inside one coefficient: (1 + u)(1 - u) = 1 - u^2
    one = fld.one()
    u = fld.t(2) if isinstance(fld, PadicField) else fld.elem([(Fraction(1, 3), 1)])
    a = Polynomial.from_coeffs(fld, [one + u, one])
    b = Polynomial.from_coeffs(fld, [one - u, -one])
    assert a * b == elementwise_mul(a, b)
    assert (a * b).coeffs[1] == -(u + u)


def test_large_coprime_denominators_and_negative_valuations():
    fld = PuiseuxField(0)
    c1 = fld.elem([(Fraction(-5, 7), Fraction(1, 3**20)),
                   (Fraction(1, 1024), Fraction(-5, 2**40))])
    c2 = fld.elem([(Fraction(-2, 3), Fraction(7, 10**12 + 39))])
    f = Polynomial.from_coeffs(fld, [c1, c2, c1 * c2])
    a = fld.elem([(Fraction(-1, 2), Fraction(22, 7)), (Fraction(3), Fraction(1, 11))])
    assert f * f == elementwise_mul(f, f)
    assert f.recenter(a) == elementwise_recenter(f, a)
    q = PadicField(5)
    g = Polynomial.from_coeffs(q, [q.elem(Fraction(1, 5**7 * 3**20)),
                                   q.elem(Fraction(2**40 + 1, 25)), q.one()])
    b = q.elem(Fraction(10**12 + 39, 5**3 * 7))
    assert g * g == elementwise_mul(g, g)
    assert g.recenter(b) == elementwise_recenter(g, b)


@pytest.mark.parametrize("char", [0, 3])
def test_truncated_products_take_the_kernel(char, monkeypatch):
    fld = PuiseuxField(char)
    exact = fld.elem([(Fraction(1, 2), 1), (2, 2 if char else Fraction(1, 3))])
    trunc = fld.elem([(Fraction(-1, 3), 1), (1, 1)], prec=Fraction(5, 2))
    f = Polynomial.from_coeffs(fld, [exact, trunc, fld.one()])
    g = Polynomial.from_coeffs(fld, [exact, fld.one()])
    assert poly_mod._try_kernel_mul(f, g) is not None
    calls = []
    mul = poly_mod.kernel.poly_mul_modp
    monkeypatch.setattr(poly_mod.kernel, "poly_mul_modp",
                        lambda *a: calls.append(a) or mul(*a))
    got = f * g
    assert len(calls) == 1
    want = elementwise_mul(f, g)
    assert got == want
    assert precs(got) == precs(want) == [INF, 3, Fraction(5, 2), INF]
    # shifts with a truncated coefficient or center keep the element loop
    a = fld.elem([(Fraction(1, 3), 1)])
    got = f.recenter(a)
    want = elementwise_recenter(f, a)
    assert got == want
    assert precs(got) == precs(want)
    assert got.coeffs[0].prec != INF
    # an exact polynomial shifted by a truncated center
    a_trunc = fld.elem([(Fraction(1, 3), 1)], prec=4)
    got = g.recenter(a_trunc)
    want = elementwise_recenter(g, a_trunc)
    assert got == want
    assert precs(got) == precs(want)
    assert got.coeffs[0].prec == 4


def test_kernel_over_z():
    # (1 + 2t) * (3 - 2t) + cancellation at t^1 over Z, no reduction
    out = _purekernel.poly_mul_modp([2], [0, 1], [1, 2], [2], [0, 1], [3, -2], 0)
    assert out == ([3], [0, 1, 2], [3, 4, -4])
    out = _purekernel.poly_mul_modp([2], [0, 1], [1, 2], [2], [0, 1], [1, -2], 0)
    assert out == ([2], [0, 2], [1, -4])


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_products_without_a_center_share_the_zero(fld, monkeypatch):
    assert fld.zero() is fld.zero() and fld.one() is fld.one()
    assert fld.zero() == fld.constant(0) and fld.one() == fld.constant(1)
    rng = random.Random(1407)
    f = rand_poly(rng, fld, 3)
    g = rand_poly(rng, fld, 2)

    def refuse(self, other):
        raise AssertionError("agrees_with called")

    monkeypatch.setattr(type(fld.zero()), "agrees_with", refuse)
    assert f * g == elementwise_mul(f, g)


def test_from_coeffs_rejects_another_field():
    q, f3 = PuiseuxField(0), PuiseuxField(3)
    with pytest.raises(BackendMismatch):
        Polynomial.from_coeffs(q, [f3.one(), f3.t(1, 2)])
    with pytest.raises(BackendMismatch):
        Polynomial.from_coeffs(q, [q.one()], center=f3.t(1))
    with pytest.raises(BackendMismatch):
        Polynomial.from_coeffs(PadicField(3), [PadicField(5).one()])


@pytest.mark.parametrize("n", [Fraction(0), 0.0, 2.0, Fraction(2), "2", None])
def test_pow_rejects_non_int_exponents(n):
    fld = PuiseuxField(3)
    f = Polynomial.from_roots(fld, [fld.t(1), fld.one()])
    with pytest.raises(TypeError, match="exponent must be an int"):
        f ** n


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_int_operands_are_constants(fld):
    rng = random.Random(31)
    for _ in range(10):
        f = rand_poly(rng, fld, rng.randint(0, 4))
        for n in (0, 1, -2, 3, 7):
            c = Polynomial.from_coeffs(fld, [fld.constant(n)], f.center)
            assert f * n == f * c == f.scale(fld.constant(n))
            assert f + n == f + c
            assert f - n == f - c
        x = fld.t(1, 2)
        assert f + x == f + Polynomial.from_coeffs(fld, [x], f.center)


@pytest.mark.parametrize("fld", FIELDS[1:4], ids=IDS[1:4])
def test_element_and_int_operands_commute(fld):
    """An element or an int on the left of a polynomial means what it means
    on the right: the element operators leave a polynomial operand to
    ``Polynomial.__radd__`` and ``__rmul__``."""
    rng = random.Random(32)
    for _ in range(10):
        f = rand_poly(rng, fld, rng.randint(0, 4))
        x = rand_elem(rng, fld)
        assert x.__mul__(f) is NotImplemented and x.__add__(f) is NotImplemented
        assert x * f == f * x
        assert x + f == f + x
        assert x - f == -(f - x)
        for n in (0, 3, -2):
            assert n * f == f * n
            assert n + f == f + n


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_rational_function_and_subtraction_operands_commute(fld):
    """A polynomial times a rational function is the same on either side;
    ``n - f`` is ``-(f - n)`` for an int n, as it is for an element; and a
    rational function times anything but a polynomial or a rational
    function is refused with TypeError, on either side."""
    rng = random.Random(34)
    for _ in range(10):
        x = rand_poly(rng, fld, rng.randint(0, 4))
        f = RationalFunction(rand_poly(rng, fld, rng.randint(0, 3)),
                             rand_poly(rng, fld, rng.randint(0, 3)))
        assert x * f == f * x
        a = rand_elem(rng, fld)
        assert a - x == -(x - a)
        for n in (0, 3, -2):
            assert n - x == -(x - n)
        for other in (3, a, 1.5, "3", None):
            assert f.__mul__(other) is NotImplemented
            with pytest.raises(TypeError):
                f * other
            with pytest.raises(TypeError):
                other * f


@pytest.mark.parametrize("other", [1.5, Fraction(1, 2), "3", None, [1]])
def test_other_operands_raise_type_error(other):
    fld = PuiseuxField(3)
    f = Polynomial.from_roots(fld, [fld.t(1), fld.one()])
    assert f.__mul__(other) is NotImplemented
    assert f.__add__(other) is NotImplemented
    for op in (lambda: f * other, lambda: f + other, lambda: f - other):
        with pytest.raises(TypeError):
            op()
    for x in (fld.t(1), PuiseuxField(0).t(1), PadicField(3).t(1)):
        assert x.__mul__(other) is NotImplemented
        assert x.__add__(other) is NotImplemented
        for op in (lambda: x * other, lambda: x + other, lambda: x + 3):
            with pytest.raises(TypeError):
                op()


def test_elements_of_another_field_still_mismatch():
    fld, other = PuiseuxField(3), PuiseuxField(2)
    f = Polynomial.from_roots(fld, [fld.t(1), fld.one()])
    for y in (other.t(1), PadicField(3).t(1)):
        for op in (lambda: y * f, lambda: y + f, lambda: y - f,
                   lambda: f * y, lambda: f + y,
                   lambda: y * fld.t(1), lambda: y + fld.t(1)):
            with pytest.raises(BackendMismatch):
                op()
    # a product with no coefficient pair to multiply checks the field too:
    # the zero polynomial, or a zero of the other field
    z = Polynomial(fld.zero(), ())
    for op in (lambda: z * other.t(1), lambda: other.t(1) * z,
               lambda: z * other.zero(),
               lambda: Polynomial.from_coeffs(fld, [1, 1]) * other.zero()):
        with pytest.raises(BackendMismatch) as exc:
            op()
        assert str(exc.value) == ("mixed operands: PuiseuxField(F_3((t))) "
                                  "vs PuiseuxField(F_2((t)))")


def elementwise_scale(f, c):
    """``f.scale(c)`` as one element product per coefficient, an exact
    zero c giving the zero polynomial: the route the kernel replaces."""
    if c.is_zero():
        return Polynomial(f.center, ())
    return Polynomial.from_coeffs(f.field, [x * c for x in f.coeffs], f.center)


def scalar_kind(c):
    if c.is_exact:
        return "exact zero" if c.is_zero() else "exact"
    return "truncated" if c.exps else "truncated zero"


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_scale_matches_elementwise(fld):
    """A product by an element takes the kernel, as the product by the
    constant polynomial: every coefficient, and its precision, is the one
    the per-coefficient product gives."""
    rng = random.Random(1409)
    seen = set()
    for k in range(2000):
        center = fld.zero() if k % 3 else rand_elem(rng, fld, True)
        f = rand_poly(rng, fld, rng.randint(0, 6), center, rand_trunc)
        c = fld.zero() if rng.random() < 0.1 else rand_trunc(rng, fld)
        got, want = f.scale(c), elementwise_scale(f, c)
        assert got.coeffs == want.coeffs and got.center is want.center
        assert precs(got) == precs(want)
        assert f * c == c * f == got
        seen.add(scalar_kind(c))
    kinds = {"exact", "exact zero"}
    if isinstance(fld, PuiseuxField):
        kinds |= {"truncated", "truncated zero"}
    assert seen == kinds


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_scale_makes_no_element_product(fld, monkeypatch):
    """``f.scale(c)`` and ``f * 3`` answer with element products refused,
    through one kernel call each."""
    rng = random.Random(1410)
    f = rand_poly(rng, fld, 4, make=rand_trunc)
    c = rand_trunc(rng, fld, True)
    want = [elementwise_scale(f, c), elementwise_scale(f, fld.constant(3))]

    def refuse(self, other):
        raise AssertionError("an element product was made")

    for cls in (PuiseuxElem, PadicElem):
        monkeypatch.setattr(cls, "__mul__", refuse)
    calls = []
    mul = _purekernel.poly_mul_modp
    monkeypatch.setattr(poly_mod.kernel, "poly_mul_modp",
                        lambda *a: calls.append(1) or mul(*a))
    assert f.scale(c) == want[0]
    assert len(calls) == 1
    assert f * 3 == want[1]
    assert len(calls) == 2


@pytest.mark.parametrize("fld", FIELDS[:3], ids=IDS[:3])
def test_kernel_calls_count_polynomial_products_only(fld, monkeypatch):
    """Element products bind the kernel at import, so the module attribute
    that a tracer patches sees polynomial products alone: one call per
    ``f * g`` and one per linear factor of an exact ``from_roots``."""
    rng = random.Random(33)
    pairs = [(rand_elem(rng, fld), rand_elem(rng, fld)) for _ in range(40)]
    want = [x * y for x, y in pairs]

    def refuse(*args):
        raise AssertionError("an element product reached kernel.poly_mul_modp")

    monkeypatch.setattr(poly_mod.kernel, "poly_mul_modp", refuse)
    assert [x * y for x, y in pairs] == want
    calls = []
    mul = _purekernel.poly_mul_modp
    monkeypatch.setattr(poly_mod.kernel, "poly_mul_modp",
                        lambda *a: calls.append(1) or mul(*a))
    f = rand_poly(rng, fld, 3)
    g = rand_poly(rng, fld, 2)
    f * g
    assert len(calls) == 1
    calls.clear()
    roots = [rand_elem(rng, fld) for _ in range(4)]
    Polynomial.from_roots(fld, roots, lead=fld.t(1))
    assert len(calls) == len(roots)


def sequential_from_roots(fld, roots, center=None, lead=None, mul=None):
    """``from_roots`` as a loop of binary products, one linear factor at a
    time: the route the int-series chain replaces for exact inputs."""
    center = fld.zero() if center is None else center
    out = Polynomial.from_coeffs(fld, [fld.one() if lead is None else lead],
                                 center)
    for r in roots:
        lin = Polynomial(center, (-(r - center), fld.one()))
        out = out * lin if mul is None else mul(out, lin)
    return out


def stored(f):
    """Every stored field of every coefficient, precision included."""
    return [(c.exps, c.nums, c.den, c.cden, c.prec)
            if isinstance(c.field, PuiseuxField) else (c.num, c.den)
            for c in f.coeffs]


def rand_roots(rng, fld, center, make=rand_elem):
    """Up to six roots, some repeated, some in pairs r, -r, some equal to
    the center; returns (roots, the shapes they have)."""
    roots = [make(rng, fld) for _ in range(rng.randint(0, 6))]
    kinds = set()
    r = rng.random()
    if roots and r < 0.2:
        roots.append(rng.choice(roots))
        kinds.add("repeated root")
    elif roots and r < 0.4:
        roots = [x for y in roots[:3] for x in (y, -y)]
        kinds.add("r and -r")
    elif r < 0.55:
        roots.insert(rng.randrange(len(roots) + 1), center)
        kinds.add("root at the center")
    if not roots:
        kinds.add("no roots")
    if len({x.den for x in roots if getattr(x, "exps", None)}) > 1:
        kinds.add("mixed lattices")
    return roots, kinds


def rand_lead(rng, fld, make=rand_elem):
    r = rng.random()
    if r < 0.3:
        return None, "no lead"
    if r < 0.4:
        return fld.zero(), "zero lead"
    return make(rng, fld, True), "lead"


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_from_roots_chain_matches_sequential(fld):
    rng = random.Random(1701)
    seen = set()
    for k in range(2000):
        center = fld.zero() if k % 3 else rand_elem(rng, fld, True)
        roots, kinds = rand_roots(rng, fld, center)
        lead, lead_kind = rand_lead(rng, fld)
        got = Polynomial.from_roots(fld, roots, center, lead)
        want = sequential_from_roots(fld, roots, center, lead)
        assert stored(got) == stored(want)
        assert got == want and got.center is center
        if "r and -r" in kinds and center.is_zero() and lead is not None \
                and not lead.is_zero():
            # (T^2 - r^2)^m: every odd coefficient is an exact zero
            assert all(c.is_zero() for c in got.coeffs[1::2])
            seen.add("odd coefficients cancel")
        if "root at the center" in kinds and not center.is_zero():
            seen.add("root at a nonzero center")
        seen |= kinds | {lead_kind}
    want_seen = {"repeated root", "r and -r", "root at the center", "no roots",
                 "no lead", "zero lead", "lead", "odd coefficients cancel",
                 "root at a nonzero center"}
    if isinstance(fld, PuiseuxField):
        want_seen.add("mixed lattices")
    assert seen == want_seen


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_from_roots_without_a_lead_starts_at_the_first_factor(fld, monkeypatch):
    """With no lead, the kernel chain has no constant-one factor: it gives
    what ``lead=one`` gives with one kernel call fewer."""
    rng = random.Random(1703)
    calls = []
    mul = _purekernel.poly_mul_modp
    monkeypatch.setattr(poly_mod.kernel, "poly_mul_modp",
                        lambda *a: calls.append(1) or mul(*a))
    for n in (1, 2, 6):
        for k in range(10):
            center = fld.zero() if k % 2 else rand_elem(rng, fld, True)
            roots = [rand_elem(rng, fld) for _ in range(n)]
            calls.clear()
            bare = Polynomial.from_roots(fld, roots, center)
            without = len(calls)
            calls.clear()
            led = Polynomial.from_roots(fld, roots, center, fld.one())
            assert without == len(calls) - 1 == n - 1
            assert is_flat(bare) and bare.center is center
            assert bare.degree == led.degree == n
            assert bare.coeffs == led.coeffs
            assert bare == sequential_from_roots(fld, roots, center)


@pytest.mark.parametrize("fld", FIELDS[:3], ids=IDS[:3])
def test_truncated_from_roots_multiplies_one_factor_at_a_time(fld, monkeypatch):
    """A truncated root, lead or center keeps the loop through
    ``_try_kernel_mul``, whose precisions are the element-wise loop's."""
    rng = random.Random(1702)
    calls = []
    mul = poly_mod._try_kernel_mul
    monkeypatch.setattr(poly_mod, "_try_kernel_mul",
                        lambda f, g: calls.append(1) or mul(f, g))
    truncated = 0
    for k in range(400):
        center = rand_trunc(rng, fld, True) if k % 4 == 0 else fld.zero()
        roots, _ = rand_roots(rng, fld, center, rand_trunc)
        lead, _ = rand_lead(rng, fld, rand_trunc)
        calls.clear()
        got = Polynomial.from_roots(fld, roots, center, lead)
        want = sequential_from_roots(fld, roots, center, lead,
                                     mul=elementwise_mul)
        assert got == want
        assert precs(got) == precs(want)
        inputs = [center, *roots] + ([] if lead is None else [lead])
        if not all(x.is_exact for x in inputs):
            truncated += 1
            assert len(calls) == len(roots)
    assert truncated > 150


@pytest.mark.parametrize("char", [0, 3])
def test_truncation_cuts_at_the_bound(char):
    """A term exactly at the precision bound is cut, in products and in
    ``truncated``."""
    fld = PuiseuxField(char)
    a = fld.elem([(0, 1), (1, 1)], prec=2)          # 1 + t + O(t^2)
    b = fld.elem([(1, 1), (2, 1)])                  # t + t^2
    got = Polynomial.from_coeffs(fld, [a]) * Polynomial.from_coeffs(fld, [b])
    (c,) = got.coeffs
    assert c.prec == 3 and c.exps == (1, 2) and c.nums == (1, 2)
    assert a * b == c
    x = fld.elem([(0, 1), (Fraction(3, 2), 1), (2, 1)]).truncated(2)
    assert (x.exps, x.den, x.prec) == ((0, 3), 2, 2)


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_recenter_at_its_own_center(fld):
    """At its own exact center a polynomial comes back as it is; at an
    equal center that is another object, the result carries that object."""
    rng = random.Random(1703)
    c = rand_elem(rng, fld, True)
    f = rand_poly(rng, fld, 4, c)
    assert f.recenter(c) is f
    twin = type(c)(*c._values(c))
    assert twin == c and twin is not c
    g = f.recenter(twin)
    assert g == f and g.center is twin and g.coeffs is f.coeffs


@pytest.mark.parametrize("fld", FIELDS[:3], ids=IDS[:3])
def test_recenter_at_its_own_truncated_center(fld):
    """c - c is a truncated zero, but T - c is exactly T - c: the shift at
    the center object itself keeps every coefficient's precision."""
    c = fld.elem([(0, 1), (1, 1)], prec=3)          # 1 + t + O(t^3)
    h = Polynomial.from_coeffs(fld, [fld.one(), fld.t(1), fld.one()], c)
    got = h.recenter(c)
    assert got is h
    assert precs(got) == [INF, INF, INF]
    # the element loop adds O(t^3) * c_{j+1} to each coefficient
    assert precs(elementwise_recenter(h, c))[:2] == [4, 3]


@pytest.mark.parametrize("fld", FIELDS[:3], ids=IDS[:3])
def test_recenter_at_truncated_center_refines_elementwise(fld):
    rng = random.Random(1801)
    sharper = 0
    for _ in range(300):
        c = rand_trunc(rng, fld)
        f = rand_poly(rng, fld, rng.randint(0, 5), c, rand_trunc)
        got, want = f.recenter(c), elementwise_recenter(f, c)
        assert len(got.coeffs) == len(want.coeffs)
        for x, y in zip(got.coeffs, want.coeffs):
            assert x.agrees_with(y)
            assert x.prec >= y.prec
            sharper += x.prec > y.prec
    assert sharper


# ---------------------------------------------------------------------------
# exact products stay flat until read


def eager_twin(f):
    """The polynomial f built from its decoded coefficients; it holds no
    flat form until one is read."""
    twin = Polynomial(f.center, f.coeffs)
    assert "_flat" not in vars(twin)
    return twin


def is_flat(f):
    """Whether f holds a flat form whose elements are not decoded yet."""
    return "_flat" in vars(f) and "coeffs" not in vars(f)


def read_elements(monkeypatch):
    """Make every reader of coefficient points read them off the elements
    (``reference_gauss.element_coeff_values``), not off the flat form: the
    element reader that the flat readers must match."""
    for mod in (gauss, units, cancel):
        monkeypatch.setattr(mod, "_coeff_values", element_coeff_values)


RADII = [LogValue(q, e) for q in (Fraction(-3, 2), 0, Fraction(2, 3), 5)
         for e in (-1, 0, 1)]


def answer(fn, *args):
    """A call's value, or its error's type, message and witness."""
    try:
        return fn(*args)
    except Exception as e:
        return type(e), str(e), getattr(e, "witness", None)


def gauss_answers(f):
    """Every Gauss-valuation fact asked of f at its own center: valuations
    at radii with eps parts -1, 0 and +1, the Newton polygon (vertices,
    segments, mult0 and degree), root counts on annuli and the spectral
    profile, each a value or an error."""
    out = [answer(gauss_valuation, f, None, s) for s in RADII]
    out.append(answer(gauss_valuation, f, f.center, RADII[4]))
    out.append(answer(newton_polygon, f))
    out += [answer(root_count_annulus, f, lo, hi, lo_open, hi_open)
            for lo, hi in ((None, RADII[1]), (RADII[0], RADII[10]),
                           (RADII[4], RADII[4]), (RADII[7], INF))
            for lo_open in (False, True) for hi_open in (False, True)]
    out.append(answer(spectral_profile, f, [1, 2, Fraction(1, 4)], None, 1))
    # the size guard: f has deg + 1 coefficients, one too many
    out.append(answer(spectral_profile, f, [1], None, 1, f.degree))
    return out


def assert_flat_matches_twin(f):
    """f is flat; the Gauss facts leave it undecoded and equal its twin's,
    read off the twin's elements and off its own encoding, and once decoded
    f equals its twin as a record in every respect."""
    assert is_flat(f)
    facts = gauss_answers(f)
    assert is_flat(f)
    copy = pickle.loads(pickle.dumps(f))
    assert is_flat(copy)
    twin = eager_twin(f)
    with pytest.MonkeyPatch.context() as m:
        read_elements(m)
        assert facts == gauss_answers(twin)
    assert facts == gauss_answers(twin)
    assert stored(f) == stored(twin) == stored(copy)
    assert f.coeffs == twin.coeffs and f.center is twin.center
    assert f.degree == twin.degree == len(twin.coeffs) - 1
    assert f.is_zero() == twin.is_zero()
    assert f == twin and twin == f and copy == twin
    assert hash(f) == hash(twin) == hash(copy)
    assert repr(f) == repr(twin)
    assert pickle.loads(pickle.dumps(f)) == twin
    assert "_flat" in vars(f)       # kept once decoded
    assert gauss_answers(f) == facts


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_flat_products_match_their_eager_twins(fld):
    """Products, scalings, exact from_roots and powers, and chains of them
    with flat operands, over random exact inputs."""
    rng = random.Random(3201)
    for k in range(25):
        center = fld.zero() if k % 3 else rand_elem(rng, fld, True)
        f = rand_poly(rng, fld, rng.randint(0, 3), center)
        g = rand_poly(rng, fld, rng.randint(0, 3), center)
        roots, _ = rand_roots(rng, fld, center)
        lead, _ = rand_lead(rng, fld)
        fg = f * g
        # chains whose operands are flat, a decoded one among them
        chain = (f * g) * (g * f)
        decoded = f * g
        decoded.coeffs
        for p in (fg, f.scale(rand_elem(rng, fld)), f * 3,
                  Polynomial.from_roots(fld, roots or [center], center, lead),
                  f ** 2, g ** 3, chain, decoded * g, g * decoded):
            assert_flat_matches_twin(p)
        want = elementwise_mul(f, g)
        assert fg == want
        assert chain == elementwise_mul(want, elementwise_mul(g, f))


@pytest.mark.parametrize("fld", FIELDS[:3], ids=IDS[:3])
def test_flat_operands_move_to_the_product_lattice(fld):
    """A flat operand on exponents (1/2)Z times one on (1/3)Z or (1/5)Z:
    its exponents are rescaled to the product's lattice."""
    c = 1 if fld.char else Fraction(2, 3)
    halves = Polynomial.from_coeffs(fld, [fld.t(Fraction(1, 2), c),
                                          fld.t(Fraction(3, 2)), fld.one()])
    thirds = Polynomial.from_coeffs(fld, [fld.t(Fraction(1, 3)),
                                          fld.t(Fraction(-2, 3), c)])
    fifths = Polynomial.from_coeffs(fld, [fld.t(Fraction(2, 5))])
    sq = halves * halves
    assert sq._flat[3] == 2
    prod = sq * thirds
    assert prod._flat[3] == 6
    chain = thirds * prod * fifths
    assert chain._flat[3] == 30
    want_sq = elementwise_mul(halves, halves)
    # an exact shift by t^(1/3) reads the flat form on the lattice (1/6)Z
    d = fld.t(Fraction(1, 3))
    assert sq.recenter(d) == elementwise_recenter(want_sq, d)
    want_prod = elementwise_mul(want_sq, thirds)
    want_chain = elementwise_mul(elementwise_mul(thirds, want_prod), fifths)
    for got, want in ((sq, want_sq), (prod, want_prod), (chain, want_chain),
                      (thirds * sq, elementwise_mul(thirds, want_sq))):
        assert_flat_matches_twin(got)
        assert got == want


@pytest.mark.parametrize("fld", FIELDS[3:], ids=IDS[3:])
def test_flat_padic_valuations_count_the_denominator(fld):
    """Over Q_p the flat numerators share a denominator divisible by p;
    each valuation is v_p(numerator) - v_p(denominator)."""
    p = fld.p
    f = Polynomial.from_coeffs(fld, [fld.elem(Fraction(1, p ** 3)),
                                     fld.elem(Fraction(p, 7)), fld.one()])
    g = Polynomial.from_coeffs(fld, [fld.elem(Fraction(2, p)), fld.one()])
    prod = f * g
    assert prod._flat[4] % p == 0
    assert_flat_matches_twin(prod)
    assert newton_polygon(prod).vertices[0] == (0, -4)


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_flat_zero_products(fld):
    """A product by zero is the zero polynomial, whatever the other
    factor's degree: the kernel's zero counts are trimmed."""
    rng = random.Random(3202)
    c = rand_elem(rng, fld, True)
    f = rand_poly(rng, fld, 4, c)
    zero = Polynomial(c, ())
    for p in (f.scale(fld.zero()), f * 0, zero * f, f * zero, zero * zero):
        assert p.is_zero() and p.degree == -1 and p._flat[0] == []
        assert_flat_matches_twin(p)
        assert p == zero and p.coeffs == () and repr(p) == "0"
        assert gauss_valuation(p) == gauss_valuation(zero)


@pytest.mark.parametrize("fld", FIELDS[:3], ids=IDS[:3])
def test_truncated_inputs_stay_eager(fld):
    """A truncated coefficient, lead, root or center keeps the eager route,
    a flat operand included: the product is decoded at once, and its flat
    form, read later, carries each coefficient's precision."""
    rng = random.Random(3203)
    trunc = fld.elem([(Fraction(1, 2), 1)], prec=3)
    f = rand_poly(rng, fld, 3)
    g = Polynomial.from_coeffs(fld, [trunc, fld.one()])
    flat = f * f
    for p in (f * g, g * f, flat * g, g * flat, f.scale(trunc), g ** 2,
              Polynomial.from_roots(fld, [trunc, fld.one()]),
              Polynomial.from_roots(fld, [fld.one()], lead=trunc)):
        assert "_flat" not in vars(p)
        assert not all(c.is_exact for c in p.coeffs)
        assert p._flat[5] == precs(p)
    assert flat * g == elementwise_mul(flat, g)


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_flat_recenter(fld):
    """At an equal center a flat polynomial stays flat; at another, exact,
    it is shifted off its flat form, undecoded, and the shift is flat and
    equals its eager twin, as the shift of f's twin does."""
    rng = random.Random(3204)
    for _ in range(20):
        c = rand_elem(rng, fld, True)
        f = rand_poly(rng, fld, 3, c) * rand_poly(rng, fld, 2, c)
        twin = type(c)(*c._values(c))
        same = f.recenter(twin)
        assert is_flat(same) and same.center is twin and same._flat is f._flat
        assert f.recenter(c) is f
        a = rand_elem(rng, fld)
        got = f.recenter(a)
        assert is_flat(f)
        assert_flat_matches_twin(got)
        assert got == eager_twin(f).recenter(a) == elementwise_recenter(f, a)
        assert f.recenter(twin).coeffs is f.coeffs


# ---------------------------------------------------------------------------
# exact shifts stay flat, and the homotopy readers read them as they stand


def detached_twin(f):
    """``eager_twin`` of a copy of f, so that f itself stays undecoded."""
    return eager_twin(pickle.loads(pickle.dumps(f)))


def assert_kernel_shaped(f):
    """f's flat form is as the kernel gives its output: per coefficient,
    strictly increasing exponents with nonzero numerators, no trailing
    zero count, and no precisions."""
    counts, exps, cofs, lat, cden, precs = f._flat
    assert precs is None
    assert len(exps) == len(cofs) == sum(counts) and all(cofs)
    assert not counts or counts[-1]
    pos = 0
    for c in counts:
        assert all(x < y for x, y in zip(exps[pos:pos + c - 1],
                                         exps[pos + 1:pos + c]))
        pos += c


def record_shifts(monkeypatch):
    """Make ``recenter`` keep every shift it makes, not the polynomials it
    returns at an equal center, in the list returned, and check each one's
    shape before any reader walks it."""
    shifted = []
    recenter = Polynomial.recenter

    def recording(self, a):
        out = recenter(self, a)
        flat = vars(out).get("_flat")
        if flat is not None and flat is not vars(self).get("_flat"):
            shifted.append(out)
            assert_kernel_shaped(out)
        return out

    monkeypatch.setattr(Polynomial, "recenter", recording)
    return shifted


def shift_kinds(fld, d):
    """Which of the shapes the shift tests must meet the shift d has: a
    denominator E > 1 (each output j scaled by E**j) or exponents off the
    lattice Z (a change of lattice)."""
    kinds = set()
    if isinstance(fld, PadicField):
        if d.den > 1:
            kinds.add("E > 1")
        return kinds
    if d.cden > 1:
        kinds.add("E > 1")
    if d.den > 1:
        kinds.add("fractional exponents")
    return kinds


def want_shift_kinds(fld):
    if isinstance(fld, PadicField):
        return {"E > 1"}
    return {"fractional exponents"} | (set() if fld.char else {"E > 1"})


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_flat_shifts_match_their_eager_twins(fld, monkeypatch):
    """An exact shift, of an eager or a flat polynomial, is flat, and its
    leading forms and root counts, read off the flat form, are those of the
    element-wise shift read off its elements."""
    rng = random.Random(3401)
    seen = set()
    shifted = record_shifts(monkeypatch)
    for k in range(40):
        c = fld.zero() if k % 2 else rand_elem(rng, fld, True)
        f = rand_poly(rng, fld, rng.randint(0, 4), c)
        if k % 3 == 0:
            f = f * rand_poly(rng, fld, 1, c)
        d = rand_elem(rng, fld, True)
        seen |= shift_kinds(fld, d)
        a = c + d
        got = f.recenter(a)
        want = elementwise_recenter(f, a)
        forms = [answer(_leading_form, got, s) for s in (*RADII, INFINITY)]
        counts = [answer(roots_in_disc, got, b, s, closed)
                  for b in (a, c) for s in RADII for closed in (True, False)]
        with monkeypatch.context() as m:
            read_elements(m)
            assert forms == [answer(_leading_form, want, s)
                             for s in (*RADII, INFINITY)]
            assert counts == [answer(roots_in_disc, want, b, s, closed)
                              for b in (a, c) for s in RADII
                              for closed in (True, False)]
        for g in shifted:
            assert_kernel_shaped(g)
        shifted.clear()
        assert_flat_matches_twin(got)
        assert stored(got) == stored(want)
        assert got == want and want == got and hash(got) == hash(want)
        assert pickle.loads(pickle.dumps(got)) == want
    assert seen == want_shift_kinds(fld)


def poly_center(fld, k):
    """The center the functions are written at: 0, the domain's, or one
    whose shifts to the check points have E > 1 and, over Puiseux series,
    fractional exponents."""
    if k % 3 == 0:
        return fld.zero()
    if isinstance(fld, PadicField):
        return fld.elem(Fraction(2, 7) if k % 3 == 1 else Fraction(1, fld.p))
    return fld.t(Fraction(1, 2), 1 if fld.char else Fraction(2, 3))


def homotopy_case(rng, fld, k):
    """(domain, f0, [f1, ...]): f0 has certified root lists, its zeros and
    poles in the holes or beyond the bounding disc; the f1 are f0 times a
    1-unit (homotopic), times T (not), and times T - z for a z on the
    domain (not a unit), over f0's own denominator or a copy of it."""
    centers = [fld.zero(), fld.one(), fld.t(-1)]
    closed = [(k + j) % 2 == 0 for j in range(3)]
    dom = Domain(fld.zero(), LogValue(-1), tuple(
        ExcludedDisc(x, LogValue(1), cl) for x, cl in zip(centers, closed)))
    c = poly_center(fld, k)

    def unit():
        if isinstance(fld, PadicField):
            return rng.choice([1, 2, -1, Fraction(1, 2)])
        return rng.randrange(1, fld.char) if fld.char \
            else rng.choice([1, -2, Fraction(1, 3)])

    roots, poles = [], []
    for x, cl in zip(centers, closed):
        for out in (roots, poles):
            for _ in range(rng.randint(0, 2)):
                out.append(x + fld.t(rng.choice([2, 3]), unit()))
    roots.append(fld.t(-2, unit()))
    num = Polynomial.from_roots(fld, roots, c)
    den = Polynomial.from_roots(fld, poles, c) if poles \
        else Polynomial.from_coeffs(fld, [1], c)
    f0 = RationalFunction(num, den, num_roots=tuple(roots),
                          den_roots=tuple(poles))
    one_unit = Polynomial.from_coeffs(fld, [fld.one()] + [
        fld.t(j + 1 + rng.randint(0, 1), unit()) for j in range(1, 3)], c)
    z = fld.t(-1) + fld.one()
    off = Polynomial.from_roots(fld, [z], c)
    t_var = Polynomial.variable(fld, c)
    return dom, f0, [
        RationalFunction(num * one_unit, den),
        RationalFunction(num * one_unit * t_var * t_var, den * t_var * t_var),
        RationalFunction(num * t_var, den),
        RationalFunction(num * off, den)]


def homotopy_answers(dom, f0, f1s):
    """Both homotopy verdicts and their errors, the leading classes at the
    bounding point, and the witness discs of every numerator and
    denominator on the domain."""
    out = [answer(homotopy_check, f0, f1, dom) for f1 in f1s]
    out += [answer(leading_class, f, dom) for f in (f0, *f1s)]
    out += [answer(_witness_disc, g, dom, "num")
            for f in (f0, *f1s) for g in (f.num, f.den)]
    return out


def twin_function(f, den=None):
    return RationalFunction(detached_twin(f.num),
                            detached_twin(f.den) if den is None else den,
                            f.reduced, f.num_roots, f.den_roots)


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_homotopy_readers_match_on_flat_shifts(fld, monkeypatch):
    """Witness discs, leading classes and homotopy verdicts, with every
    shift flat and read as it stands, are those of the eager route; a
    homotopy check leaves the polynomials it shifts undecoded."""
    rng = random.Random(3402)
    verdicts = Counter()
    for k in range(24):
        dom, f0, f1s = homotopy_case(rng, fld, k)
        twin0 = twin_function(f0)
        twins = [twin_function(f1, twin0.den if f1.den is f0.den else None)
                 for f1 in f1s]
        for f1 in f1s:
            with monkeypatch.context() as m:
                shifted = record_shifts(m)
                verdict = answer(homotopy_check, f0, f1, dom)
            verdicts[verdict if isinstance(verdict, bool) else verdict[0]] += 1
            assert shifted and all(is_flat(g) for g in shifted)
            for g in shifted:
                assert_kernel_shaped(g)
        flat = homotopy_answers(dom, f0, f1s)
        with monkeypatch.context() as m:
            read_elements(m)
            assert flat == homotopy_answers(dom, twin0, twins)
    assert verdicts[True] and verdicts[False] and verdicts[NotCertified]


# ---------------------------------------------------------------------------
# one point form: a flat polynomial's points are its eager twin's


def points(f, a=None, reader=_coeff_values):
    """``reader``'s points of f, recentered at a if given, each valuation
    y/den and leading coefficient num/cden as a Fraction."""
    known, unknown = reader(f, a)
    return ([(i, Fraction(y, den), Fraction(num, cden))
             for i, y, den, num, cden in known],
            [(i, Fraction(y, den)) for i, y, den in unknown])


def element_points(f):
    """``points`` read off the elements themselves."""
    known, unknown = [], []
    for i, c in enumerate(f.coeffs):
        if c.is_zero():
            continue
        if not c:
            unknown.append((i, c.prec))
        elif isinstance(c, PadicElem):
            known.append((i, c.valuation(), c.value))
        else:
            known.append((i, c.valuation(), Fraction(c.terms[0][1])))
    return known, unknown


def log2_norm_formula(f, log2_r):
    """log2 of the sum norm from ``element_points`` by the float(Fraction)
    formula, its terms summed correctly rounded."""
    logs = [float(-v) + i * float(log2_r) for i, v, _ in element_points(f)[0]]
    top = max(logs)
    return top + math.log2(math.fsum(2.0 ** (x - top) for x in logs))


def reader_answers(f, g):
    """What every reader of the one point form makes of f (and of f/g):
    ``gauss_answers``, the sum norms as float reprs, leading forms, witness
    discs and leading classes at finite, eps and +infinity radii around f's
    center."""
    out = gauss_answers(f)
    for r, log2_r in ((1, 0), (2, 1), (Fraction(1, 4), -2), (3, math.log2(3)),
                      (1.7, math.log2(1.7))):
        want = log2_norm_formula(f, log2_r)
        assert repr(log2_naive_norm(f, log2_r)) == repr(want)
        assert repr(naive_norm(f, r)) == repr(2.0 ** want)
        out.append(repr(want))
    for s in (*RADII, INFINITY):
        dom = Domain(f.center, s)
        out += [answer(_leading_form, f, s), answer(_witness_disc, f, dom, "num"),
                answer(leading_class, RationalFunction(f, g), dom),
                answer(leading_class, RationalFunction(g, f), dom)]
    return out


def mixed_lattice_poly(rng, fld, center):
    """A polynomial whose coefficients lie on (1/2)Z, (1/3)Z and Z, so its
    eager twin's elements keep different denominators."""
    c = (lambda: rng.randrange(1, fld.char)) if fld.char \
        else (lambda: rng.choice(Q_COEFS))
    coeffs = [fld.t(Fraction(rng.randint(-3, 3), 2), c()),
              fld.t(Fraction(rng.randint(-3, 3), 3), c()),
              fld.t(rng.randint(-2, 2), c())]
    rng.shuffle(coeffs)
    return Polynomial.from_coeffs(fld, coeffs, center)


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_one_point_form_matches_the_eager_twin(fld, monkeypatch):
    """Flat products and shifts, undecoded and decoded, give the points of
    their twins built from the decoded elements, read off the elements or
    off the twin's own encoding, each valuation and leading coefficient
    equal as a Fraction; the flat points stay on the flat form's lattice
    once decoded; sum norms equal the float(Fraction) formula bit for bit
    on both; and leading forms, witness discs and leading classes agree on
    both, the twins read either way, at finite, eps and +infinity radii."""
    rng = random.Random(3501)
    mixed = 0
    for k in range(30):
        c = fld.zero() if k % 2 else rand_elem(rng, fld, True)
        if k % 3 == 0 and isinstance(fld, PuiseuxField):
            f = mixed_lattice_poly(rng, fld, c) * Polynomial.from_coeffs(
                fld, [1], c)
        else:
            f = rand_poly(rng, fld, rng.randint(0, 4), c) * rand_poly(
                rng, fld, rng.randint(0, 2), c)
        if k % 4 == 1:
            f = f.recenter(c + rand_elem(rng, fld, True)).recenter(c)
        g = rand_poly(rng, fld, 2, c) * rand_poly(rng, fld, 1, c)
        assert is_flat(f) and is_flat(g)
        got = points(f)
        assert is_flat(f)
        twin = Polynomial.from_coeffs(fld, f.coeffs, c)
        twin_g = Polynomial.from_coeffs(fld, g.coeffs, c)
        assert "_flat" not in vars(twin)
        assert got == points(twin, reader=element_coeff_values) \
            == element_points(twin) == points(twin)
        assert not got[1]
        assert points(f) == got  # decoded, still read off the flat form
        lat = f._flat[3]
        assert all(pt[2] == (1 if isinstance(fld, PadicField) else lat)
                   for pt in _coeff_values(f)[0])
        mixed += len({pt[2] for pt in element_coeff_values(twin)[0]}) > 1
        want = reader_answers(f, g)
        assert reader_answers(twin, twin_g) == want
        with monkeypatch.context() as m:
            read_elements(m)
            assert reader_answers(twin, twin_g) == want
    assert mixed or isinstance(fld, PadicField)


def point_answers(f, a):
    """``gauss_answers`` of f, its Gauss valuations and root counts around
    a, and its leading forms and witness discs around its own center."""
    out = gauss_answers(f)
    out += [answer(gauss_valuation, f, a, s) for s in RADII]
    out += [answer(roots_in_disc, f, a, s, closed)
            for s in RADII[::3] for closed in (True, False)]
    for s in (*RADII, INFINITY):
        out += [answer(_leading_form, f, s),
                answer(_witness_disc, f, Domain(f.center, s), "num")]
    return out


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_flat_points_match_the_element_reader(fld, monkeypatch):
    """Every polynomial is read through its flat form, whatever built it:
    from elements, truncated ones included, or as a flat product.  Its
    points, at its own center and recentered at an exact or truncated a,
    are the element reader's, each valuation and leading coefficient equal
    as a Fraction and each truncated zero's bound equal; and every answer
    read off them is the one read off the elements."""
    rng = random.Random(3502)
    seen = Counter()
    for k in range(120):
        c = fld.zero() if k % 2 else rand_elem(rng, fld, True)
        make = rand_trunc if k % 3 else rand_elem
        f = rand_poly(rng, fld, rng.randint(0, 5), c, make)
        if k % 4 == 0:
            f = f * rand_poly(rng, fld, 1, c, make)
        a = make(rng, fld)
        seen["flat"] += is_flat(f)
        seen["truncated"] += not all(x.is_exact for x in f.coeffs)
        for b in (None, a):
            got = points(f, b)
            assert got == points(f, b, element_coeff_values)
            seen["truncated zero"] += bool(got[1])
        want = point_answers(f, a)
        with monkeypatch.context() as m:
            read_elements(m)
            assert point_answers(f, a) == want
        seen["answered"] += sum(not (isinstance(x, tuple) and isinstance(
            x[0], type)) for x in want)
    assert seen["flat"] >= 10 and seen["answered"] > 1000
    if isinstance(fld, PuiseuxField):
        assert seen["truncated"] > 40 and seen["truncated zero"] > 10


@pytest.mark.parametrize("fld", FIELDS[:3], ids=IDS[:3])
def test_truncated_zero_points_keep_their_messages(fld):
    """A truncated zero is the point (i, y, den), and the errors it raises
    print its bound as the Fraction y/den."""
    f = Polynomial.from_coeffs(fld, [fld.one(), fld.elem([], Fraction(-4, 6)),
                                     fld.one()])
    assert _coeff_values(f)[1] == [(1, -2, 3)]
    assert answer(log2_naive_norm, f, 0) == (
        PrecisionExhausted, "coefficient 1 is only known below t^-2/3", 1)
    assert answer(newton_polygon, f) == (
        PrecisionExhausted,
        "coefficient 1 known only below t^-2/3 could cut the hull", 1)
    dom = Domain(fld.zero(), LogValue(0))
    assert answer(leading_class, RationalFunction(f, f), dom) == (
        PrecisionExhausted, "valuation only known to be >= -2/3", "-2/3")
