"""Polynomial products and Taylor shifts on int series, against element-wise loops.

With every coefficient exact, ``Polynomial.__mul__`` goes through the
convolution kernel and ``Polynomial.recenter`` through an int-series Horner
shift.  ``elementwise_mul`` and ``elementwise_recenter`` below are the loops
on field elements that anything truncated still takes; every exact result
must equal theirs, over F_2, F_3, Q((t)), Q_3 and Q_5.
"""

import random
from fractions import Fraction

import pytest

from berkline import INF, PadicField, Polynomial, PuiseuxField
from berkline import poly as poly_mod
from berkline.errors import BackendMismatch

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


def rand_poly(rng, fld, deg, center=None):
    coeffs = [rand_elem(rng, fld) for _ in range(deg)] + [rand_elem(rng, fld, True)]
    return Polynomial.from_coeffs(fld, coeffs, center)


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_products_match_elementwise(fld):
    rng = random.Random(1401)
    for k in range(60):
        center = fld.zero() if k % 3 else rand_elem(rng, fld, True)
        f = rand_poly(rng, fld, rng.randint(0, 6), center)
        g = rand_poly(rng, fld, rng.randint(0, 6), center)
        assert poly_mod._try_kernel_mul(f, g) is not None
        assert f * g == elementwise_mul(f, g)


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
def test_truncated_inputs_take_the_elementwise_loop(char):
    fld = PuiseuxField(char)
    exact = fld.elem([(Fraction(1, 2), 1), (2, 2 if char else Fraction(1, 3))])
    trunc = fld.elem([(Fraction(-1, 3), 1), (1, 1)], prec=Fraction(5, 2))
    f = Polynomial.from_coeffs(fld, [exact, trunc, fld.one()])
    g = Polynomial.from_coeffs(fld, [exact, fld.one()])
    assert poly_mod._try_kernel_mul(f, g) is None
    assert f * g == elementwise_mul(f, g)
    a = fld.elem([(Fraction(1, 3), 1)])
    got = f.recenter(a)
    want = elementwise_recenter(f, a)
    assert got == want
    assert [c.prec for c in got.coeffs] == [c.prec for c in want.coeffs]
    assert got.coeffs[0].prec != INF
    # an exact polynomial shifted by a truncated center
    a_trunc = fld.elem([(Fraction(1, 3), 1)], prec=4)
    assert g.recenter(a_trunc) == elementwise_recenter(g, a_trunc)
    assert g.recenter(a_trunc).coeffs[0].prec == 4


def test_kernel_over_z():
    from berkline import _purekernel
    # (1 + 2t) * (3 - 2t) + cancellation at t^1 over Z, no reduction
    out = _purekernel.poly_mul_modp([2], [0, 1], [1, 2], [2], [0, 1], [3, -2], 0)
    assert out == ([3], [0, 1, 2], [3, 4, -4])
    out = _purekernel.poly_mul_modp([2], [0, 1], [1, 2], [2], [0, 1], [1, -2], 0)
    assert out == ([2], [0, 2], [1, -4])


def test_from_coeffs_rejects_another_field():
    q, f3 = PuiseuxField(0), PuiseuxField(3)
    with pytest.raises(BackendMismatch):
        Polynomial.from_coeffs(q, [f3.one(), f3.t(1, 2)])
    with pytest.raises(BackendMismatch):
        Polynomial.from_coeffs(q, [q.one()], center=f3.t(1))
    with pytest.raises(BackendMismatch):
        Polynomial.from_coeffs(PadicField(3), [PadicField(5).one()])
