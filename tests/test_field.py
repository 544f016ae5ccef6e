"""Valued-field backends: ultrametric laws, precision discipline, round-trips."""

import math
import random
from fractions import Fraction

import pytest

from berkline import INF, PadicField, Polynomial, PuiseuxField, rat_normalize, valuation
from berkline.errors import (BackendMismatch, DivisionByZero, NotPrime,
                             PrecisionExhausted, ZeroDenominator)
from conftest import (rand_padic, rand_padic_nonzero, rand_puiseux,
                      rand_puiseux_nonzero)


class TestPuiseuxBasics:
    def test_char2_add_cancels(self, F2):
        t = F2.t()
        assert (t + t).is_zero()

    def test_inverse_multiplies_back(self, F2):
        # oracle: x * inv(x) must be 1 up to the working precision
        x = F2.elem([(0, 1), (1, 1)])
        inv = x.inverse()
        assert (inv * x).agrees_with(F2.one())
        assert inv.terms[:3] == ((Fraction(0), 1), (Fraction(1), 1), (Fraction(2), 1))

    def test_inverse_of_monomial_is_exact(self, FQ):
        x = FQ.t(Fraction(3, 2), 4)
        inv = x.inverse()
        assert inv.is_exact
        assert (inv * x).agrees_with(FQ.one())
        assert valuation(inv) == Fraction(-3, 2)

    def test_valuation_leading_exponent(self, FQ):
        assert valuation(FQ.t(Fraction(3, 2))) == Fraction(3, 2)
        assert valuation(FQ.zero()) == INF

    def test_truncated_zero_valuation_fails_loud(self, FQ):
        x = FQ.elem([], prec=Fraction(5))
        with pytest.raises(PrecisionExhausted):
            x.valuation()

    def test_precision_propagates_min(self, FQ):
        x = FQ.elem([(0, 1)], prec=Fraction(4))
        y = FQ.elem([(0, 1), (2, 1)], prec=Fraction(7))
        assert (x + y).prec == Fraction(4)

    def test_mul_precision_uses_series_rule(self, FQ):
        # multiplying by t shifts what is knowable
        x = FQ.elem([(0, 1)], prec=Fraction(4))
        t = FQ.t()
        assert (x * t).prec == Fraction(5)
        tin = FQ.t(-1)
        assert (x * tin).prec == Fraction(3)

    def test_backend_mismatch(self, F2, F3):
        with pytest.raises(BackendMismatch):
            F2.one() + F3.one()

    def test_zero_inverse(self, F2):
        with pytest.raises(DivisionByZero):
            F2.zero().inverse()
        with pytest.raises(PrecisionExhausted):
            F2.elem([], prec=Fraction(2)).inverse()

    def test_fp_coefficients_from_rationals(self, F3):
        # 1/2 = 2 mod 3
        assert F3.constant(Fraction(1, 2)).terms == ((Fraction(0), 2),)


class TestPadicBasics:
    def test_mul_valuation_additive(self, Q2):
        x = Q2.elem(Fraction(1, 2))
        y = Q2.elem(3)
        z = x * y
        assert z.value == Fraction(3, 2)
        assert valuation(z) == -1

    def test_valuation_of_12_base2(self, Q2):
        # oracle: 12 = 4 * 3
        assert valuation(Q2.elem(12)) == 2

    def test_zero(self, Q2):
        assert valuation(Q2.zero()) == INF
        with pytest.raises(DivisionByZero):
            Q2.zero().inverse()


class TestCharacteristic:
    @staticmethod
    def _trial_division(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    def test_small_values_match_trial_division(self):
        for n in range(1, 1500):
            if self._trial_division(n):
                assert PuiseuxField(n).char == n and PadicField(n).p == n
            else:
                for make in (PuiseuxField, PadicField):
                    with pytest.raises(NotPrime) as exc:
                        make(n)
                    assert exc.value.witness == n

    @pytest.mark.parametrize("n", [
        561,                          # Carmichael number
        3215031751,                   # strong pseudoprime to bases 2, 3, 5, 7
        3825123056546413051,          # strong pseudoprime to bases 2..23
        318665857834031151167461,     # strong pseudoprime to bases 2..37
    ])
    def test_strong_pseudoprimes_rejected(self, n):
        with pytest.raises(NotPrime):
            PuiseuxField(n)
        with pytest.raises(NotPrime):
            PadicField(n)

    def test_large_primes(self):
        assert PadicField(2**61 - 1).p == 2**61 - 1
        # a prime beyond the bound where the primality test is exact
        with pytest.raises(NotPrime) as exc:
            PuiseuxField(2**89 - 1)
        assert exc.value.witness == 2**89 - 1

    def test_char_4_no_longer_kills_units(self):
        with pytest.raises(NotPrime):
            PuiseuxField(4)
        assert PuiseuxField(0).char == 0


@pytest.mark.parametrize("backend", ["puiseux2", "puiseux0", "padic3"])
def test_ultrametric_and_multiplicativity(backend):
    rng = random.Random(20250 + len(backend))
    if backend == "puiseux2":
        fld, mk = PuiseuxField(2), rand_puiseux
    elif backend == "puiseux0":
        fld, mk = PuiseuxField(0), rand_puiseux
    else:
        fld, mk = PadicField(3), rand_padic
    for _ in range(1000):
        x = mk(rng, fld)
        y = mk(rng, fld)
        vx, vy = valuation(x), valuation(y)
        s = x + y
        vs = valuation(s)
        assert vs >= min(vx, vy)
        if vx != vy:
            assert vs == min(vx, vy)
        vp = valuation(x * y)
        assert vp == vx + vy


@pytest.mark.parametrize("char", [0, 2, 5])
def test_inverse_roundtrip(char):
    rng = random.Random(7 + char)
    fld = PuiseuxField(char)
    for _ in range(40):
        x = rand_puiseux_nonzero(rng, fld)
        assert x.inverse().inverse().agrees_with(x)
        assert (x.inverse() * x).agrees_with(fld.one())


class TestRecenter:
    def test_binomial_example(self, FQ):
        f = Polynomial.from_coeffs(FQ, [0, 0, 1])  # T^2
        g = f.recenter(FQ.one())
        assert [c.canonical_str() for c in g.coeffs] == ["1", "2", "1"]

    def test_roundtrip_exact(self, FQ):
        rng = random.Random(11)
        for _ in range(25):
            coeffs = [rand_puiseux(rng, FQ) for _ in range(5)]
            f = Polynomial.from_coeffs(FQ, coeffs)
            a = rand_puiseux(rng, FQ)
            assert f.recenter(a).recenter(FQ.zero()).coeffs == f.coeffs

    def test_recenter_preserves_values(self, FQ):
        # oracle: evaluate both presentations at sample points
        t = FQ.t()
        f = Polynomial.from_coeffs(FQ, [-t, 0, 1])  # T^2 - t
        g = f.recenter(t)
        for sample in [FQ.zero(), FQ.one(), t, t * t, FQ.constant(3)]:
            assert f(sample).agrees_with(g(sample))

    def test_degree_preserved(self, FQ):
        f = Polynomial.from_coeffs(FQ, [1, 2, 0, 5])
        assert f.recenter(FQ.constant(9)).degree == f.degree


class TestRationalFunctions:
    def test_cancel_common_factor(self, FQ):
        # oracle: polynomial division; (T^2 - t^2)/(T - t) = T + t
        t = FQ.t()
        num = Polynomial.from_roots(FQ, [t, -t])
        den = Polynomial.from_roots(FQ, [t])
        r = rat_normalize(num, den, num_roots=[t, -t], den_roots=[t])
        assert r.reduced
        assert r.den.degree == 0
        expected = Polynomial.from_roots(FQ, [-t])
        assert r.num.coeffs == expected.coeffs

    def test_trivial_cases(self, FQ):
        T = Polynomial.variable(FQ)
        one = Polynomial.from_coeffs(FQ, [1])
        r = rat_normalize(T, one)
        assert r.num.coeffs == T.coeffs
        z = rat_normalize(Polynomial.from_coeffs(FQ, []), T)
        assert z.is_zero()

    def test_zero_denominator(self, FQ):
        T = Polynomial.variable(FQ)
        with pytest.raises(ZeroDenominator):
            rat_normalize(T, Polynomial.from_coeffs(FQ, []))


def test_recenter_exact_example(FQ):
    # T^2 - t at center t: (T-t)^2 + 2t(T-t) + (t^2 - t)
    t = FQ.t()
    f = Polynomial.from_coeffs(FQ, [-t, FQ.zero(), FQ.one()])
    g = f.recenter(t)
    assert g.coeffs[2].agrees_with(FQ.one())
    assert g.coeffs[1].agrees_with(FQ.constant(2) * t)
    assert g.coeffs[0].agrees_with(t * t - t)
