"""Valued-field backends: ultrametric laws, precision discipline, round-trips."""

import math
import random
import time
from fractions import Fraction

import pytest

from berkline import (INF, PadicField, Polynomial, PuiseuxField,
                      RationalFunction, rat_normalize, valuation)
from berkline import field
from berkline.errors import (BackendMismatch, DivisionByZero, NotCertified,
                             NotPrime, PrecisionExhausted, ResourceLimit,
                             ZeroDenominator)
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

    def test_fp_coefficients_from_rationals(self, F3, F2):
        # 1/2 = 2 mod 3
        assert F3.constant(Fraction(1, 2)).terms == ((Fraction(0), 2),)
        # and has no residue mod 2
        with pytest.raises(ValueError, match="denominator 2 not invertible mod 2"):
            F2.elem([(0, Fraction(1, 2))])

    def test_float_inputs_rejected(self, FQ):
        for op in (lambda: FQ.t(0.5), lambda: FQ.elem([(0, 1.5)]),
                   lambda: FQ.elem([(0, 1)], prec=2.0)):
            with pytest.raises(TypeError, match="exact rational required"):
                op()

    def test_truncated_zero_prints_its_precision(self, F3, FQ):
        # a truncated zero is not the exact zero, and must not print as it:
        # direction keys and skeleton labels are built from these strings
        for fld in (F3, FQ):
            assert fld.elem([], 3).canonical_str() == "O(t^3)"
            assert fld.elem([], Fraction(-1, 2)).canonical_str() == "O(t^-1/2)"
            assert fld.zero().canonical_str() == "0"
            assert (fld.t(4) - fld.t(4).truncated(3)).canonical_str() == "O(t^3)"
            assert len({fld.elem([], 3).canonical_str(),
                        fld.elem([], 2).canonical_str(),
                        fld.zero().canonical_str()}) == 3


@pytest.mark.parametrize("char", [0, 3])
class TestCanonicalForm:
    """Equality and hash follow the value, not the lattice it was built on."""

    @staticmethod
    def _pairs(fld):
        t = fld.t
        h = Fraction(1, 2)
        return [
            (t(Fraction(1, 4)) * t(Fraction(1, 4)), t(h)),
            ((t(Fraction(1, 6)) + t(h)) - t(Fraction(1, 6)) + t(), t(h) + t()),
            (t(Fraction(1, 4)) * t(Fraction(1, 4)) + fld.one(), t(h) + fld.one()),
            ((fld.one() + t(Fraction(1, 5))).truncated(Fraction(1, 5)),
             fld.one().truncated(Fraction(1, 5))),
            ((t(Fraction(1, 3)) * t(Fraction(2, 3))).inverse(), t(-1)),
            # coefficient denominators that cancel
            (t(h, Fraction(1, 2)) + t(h, Fraction(1, 2)), t(h)),
            (fld.constant(Fraction(5, 4)) * fld.constant(Fraction(2, 5)),
             fld.constant(Fraction(1, 2))),
            ((fld.one() + t(1, Fraction(1, 4))).truncated(1),
             fld.one().truncated(1)),
        ]

    def test_two_quarters_is_one_half(self, char):
        fld = PuiseuxField(char)
        x = fld.t(Fraction(1, 4)) * fld.t(Fraction(1, 4))
        assert x == fld.t(Fraction(2, 4)) == fld.t(Fraction(1, 2))
        assert (x.exps, x.den) == ((1,), 2)

    def test_cancelled_terms_coarsen_the_lattice(self, char):
        fld = PuiseuxField(char)
        third = fld.t(Fraction(1, 3))
        x = (third + fld.t()) - third
        assert x == fld.t()
        assert x.den == 1 and x.exps == (1,)
        assert (third - third).den == 1

    def test_equal_values_hash_equal(self, char):
        fld = PuiseuxField(char)
        for x, y in self._pairs(fld):
            assert x == y and hash(x) == hash(y)
            assert ((x.exps, x.coefs, x.nums, x.den, x.cden, x.prec)
                    == (y.exps, y.coefs, y.nums, y.den, y.cden, y.prec))
            assert len({x, y}) == 1

    def test_polynomials_hash_equal(self, char):
        fld = PuiseuxField(char)
        pairs = self._pairs(fld)
        f = Polynomial.from_coeffs(fld, [x for x, _ in pairs])
        g = Polynomial.from_coeffs(fld, [y for _, y in pairs])
        assert f == g and hash(f) == hash(g)
        assert len({f, g}) == 1


@pytest.mark.parametrize("cls", [field.PuiseuxElem, field.PadicElem])
def test_arithmetic_is_defined_in_the_class_body(cls):
    # perfbench/tracing.py finds these in cls.__dict__ to time them as the
    # field.* metrics, so each must be the class's own, not inherited
    for name in ("__add__", "__mul__", "__rmul__", "inverse"):
        assert name in cls.__dict__, name


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

    def test_stored_as_reduced_ints(self, Q2):
        x = Q2.elem(Fraction(-12, 40))
        assert (x.num, x.den) == (-3, 10)
        assert (Q2.zero().num, Q2.zero().den) == (0, 1)
        assert (x + -x).den == 1 and (x * Q2.zero()).den == 1
        assert x.inverse() == Q2.elem(Fraction(-10, 3))
        assert (x.inverse().num, x.inverse().den) == (-10, 3)
        assert Q2.t(-3, Fraction(2, 3)) == Q2.elem(Fraction(1, 12))
        assert Q2.t(2, Fraction(3, 4)).canonical_str() == "3"
        assert x.canonical_str() == str(Fraction(-3, 10)) == "-3/10"
        # sums over denominators sharing a factor, reduced or not by it
        for a, b in ((Fraction(1, 2), Fraction(1, 4)),
                     (Fraction(1, 6), Fraction(1, 3))):
            y = Q2.elem(a) + Q2.elem(b)
            assert (y.num, y.den) == ((a + b).numerator, (a + b).denominator)
        with pytest.raises(ValueError, match="the p-adic value group is Z"):
            Q2.t(Fraction(1, 2))


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


class TestInverseTermCap:
    @pytest.mark.parametrize("char", [2, 3, 0])
    def test_far_negative_lead_raises_quickly(self, char):
        # terms near t^(-2.9*10**13) known below 7/12: the inverse would have
        # ~10**15 candidate exponents
        lead = -Fraction(3**30, 7)
        x = PuiseuxField(char).elem(
            [(lead + Fraction(1, 4), 1), (lead + Fraction(1, 3), 1),
             (Fraction(1, 2), 1)], Fraction(7, 12))
        assert x.terms[0][0] == Fraction(-823564528378589, 28)
        start = time.perf_counter()
        with pytest.raises(ResourceLimit) as info:
            x.inverse()
        assert time.perf_counter() - start < 1
        assert info.value.code == "resource_limit"
        assert info.value.witness == field.INVERSE_TERM_CAP

    @pytest.mark.parametrize("char", [2, 0])
    def test_cap_counts_solved_terms(self, char, monkeypatch):
        # the inverse of 1 + t to working precision w solves the w - 1
        # exponents 1 .. w - 1
        monkeypatch.setattr(field, "INVERSE_TERM_CAP", 10)
        x = PuiseuxField(char).elem([(0, 1), (1, 1)])
        monkeypatch.setattr(field, "WORKING_PREC", Fraction(11))
        assert len(x.inverse().exps) == 11
        monkeypatch.setattr(field, "WORKING_PREC", Fraction(12))
        with pytest.raises(ResourceLimit):
            x.inverse()

    def test_fine_lattice_inverse_fits(self):
        # 32767 solved terms, half the cap
        x = PuiseuxField(3).elem([(0, 1), (Fraction(1, 1024), 1)])
        assert len(x.inverse().exps) == 32 * 1024


class TestWorkingPrecision:
    def test_is_one_module_constant(self):
        # equal fields must invert equal elements alike, so no field carries
        # its own working precision
        with pytest.raises(TypeError):
            PuiseuxField(0, working_prec=4)
        for char in (2, 0):
            fld = PuiseuxField(char)
            assert (fld.one() + fld.t(1)).inverse().prec == field.WORKING_PREC


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

    def test_inverse_and_products(self, FQ):
        t = FQ.t()
        T = Polynomial.variable(FQ)
        num = Polynomial.from_roots(FQ, [t])
        den = Polynomial.from_roots(FQ, [FQ.one()])
        f = RationalFunction(num, den, True, (t,), (FQ.one(),))
        assert f.center is num.center
        inv = f.inverse()
        assert (inv.num, inv.den, inv.reduced) == (den, num, True)
        assert (inv.num_roots, inv.den_roots) == ((FQ.one(),), (t,))
        with pytest.raises(ZeroDenominator, match="inverting the zero function"):
            RationalFunction(Polynomial.from_coeffs(FQ, []), den).inverse()
        # num and den multiply, and the root lists concatenate
        g = f * inv
        assert (g.num, g.den, g.reduced) == (num * den, den * num, False)
        assert (g.num_roots, g.den_roots) == ((t, FQ.one()), (FQ.one(), t))
        # a polynomial is the function over 1, with no roots listed
        h = f * T
        assert (h.num, h.den) == (num * T, den)
        assert (h.num_roots, h.den_roots) == ((t,), (FQ.one(),))

    def test_shared_root_not_dividing_num(self, FQ):
        t = FQ.t()
        num = Polynomial.from_roots(FQ, [t])
        den = Polynomial.from_roots(FQ, [FQ.one(), FQ.t(2)])
        with pytest.raises(NotCertified) as exc:
            rat_normalize(num, den, num_roots=[FQ.t(2)],
                          den_roots=[FQ.one(), FQ.t(2)])
        assert exc.value.witness == {"which": "num", "index": 0}

    def test_shared_root_not_dividing_den(self, FQ):
        # the witness indexes the den list as given, before cancellation
        t = FQ.t()
        one, three = FQ.one(), FQ.constant(3)
        num = Polynomial.from_roots(FQ, [one, t])
        den = Polynomial.from_roots(FQ, [one, three, FQ.constant(4)])
        with pytest.raises(NotCertified) as exc:
            rat_normalize(num, den, num_roots=[one, t],
                          den_roots=[one, three, t])
        assert exc.value.witness == {"which": "den", "index": 2}


def test_recenter_exact_example(FQ):
    # T^2 - t at center t: (T-t)^2 + 2t(T-t) + (t^2 - t)
    t = FQ.t()
    f = Polynomial.from_coeffs(FQ, [-t, FQ.zero(), FQ.one()])
    g = f.recenter(t)
    assert g.coeffs[2].agrees_with(FQ.one())
    assert g.coeffs[1].agrees_with(FQ.constant(2) * t)
    assert g.coeffs[0].agrees_with(t * t - t)
