"""Differential validation of the exact homotopy decision.

Deterministic two-sided battery (cases whose truth is known by construction)
plus a sampling consistency check: whenever the checker answers True, the
inequality must hold at every sampled point of the domain.
"""

import random
import zlib
from fractions import Fraction

import pytest

from berkline import (Domain, ExcludedDisc, INFINITY, LogValue, Polynomial,
                      PuiseuxField, RationalFunction, gauss_valuation,
                      homotopy_check)
from berkline.points import _dist

lv = lambda q, e=0: LogValue(Fraction(q), Fraction(e))

FQ = PuiseuxField(0)
ONE_POLY = Polynomial.from_coeffs(FQ, [1])


def rf(num, den=None, num_roots=(), den_roots=()):
    return RationalFunction(num, den or ONE_POLY,
                            num_roots=tuple(num_roots),
                            den_roots=tuple(den_roots))


def annulus(lo=1, hi=-1):
    return Domain(FQ.zero(), lv(hi),
                  (ExcludedDisc(FQ.zero(), lv(lo), closed=False),))


T = Polynomial.variable(FQ)
t = FQ.t()
# the disc v(z) >= 0 minus the point 0 and the closed disc D(t, 2)
PUNCTURED = Domain(FQ.zero(), lv(0), (
    ExcludedDisc(FQ.zero(), INFINITY, closed=True),
    ExcludedDisc(t, lv(2), closed=True)))


def point_in_domain(dom, a, s):
    def v_dist(center):
        return min(s, _dist(a, center))

    if not v_dist(dom.center) >= dom.s:
        return False
    for d in dom.excluded:
        val = v_dist(d.center)
        if d.closed and val >= d.s:
            return False
        if not d.closed and val > d.s:
            return False
    return True


def v_of_difference(f0, f1, a, s):
    n0, d0, n1, d1 = f0.num, f0.den, f1.num, f1.den
    h_num = n1 * d0 - n0 * d1
    h_den = n0 * d1
    if h_num.is_zero():
        return INFINITY
    return gauss_valuation(h_num, a, s) - gauss_valuation(h_den, a, s)


def sample_points(rng, dom, count=200):
    """Random domain points, biased toward boundary circles and eps offsets."""
    centers = [dom.center] + [d.center for d in dom.excluded]
    qs = [dom.s.q] + [d.s.q for d in dom.excluded if not d.s.is_infinite]
    out = []
    while len(out) < count:
        a = rng.choice(centers)
        if rng.random() < 0.5:
            a = a + FQ.t(rng.randint(0, 4), rng.randint(1, 3))
        base = rng.choice(qs) if qs and rng.random() < 0.5 else \
            Fraction(rng.randint(-8, 16), rng.choice([1, 2, 3, 4]))
        s = LogValue(base, Fraction(rng.randint(-1, 1)))
        if point_in_domain(dom, a, s):
            out.append((a, s))
    return out


CASES = [
    # (f0, f1, domain, expected)
    ("identical", rf(T, num_roots=[FQ.zero()]),
     rf(T, num_roots=[FQ.zero()]), annulus(), True),
    ("one-unit constant", rf(ONE_POLY),
     rf(Polynomial.from_coeffs(FQ, [FQ.one() + FQ.t(3)])), annulus(), True),
    ("non-unit constant", rf(ONE_POLY),
     rf(Polynomial.from_coeffs(FQ, [2])), annulus(), False),
    ("coordinate shift", rf(ONE_POLY), rf(T, num_roots=[FQ.zero()]),
     annulus(), False),
    ("deep perturbation", rf(T, num_roots=[FQ.zero()]),
     rf(Polynomial.from_coeffs(FQ, [FQ.zero(), FQ.one(), FQ.t(4)]),
        num_roots=[FQ.zero()]), annulus(), True),
    # v(c) = d + 1 > d: 1 + cT^d stays a 1-unit on the annulus
    ("threshold above", rf(ONE_POLY),
     rf(Polynomial.from_coeffs(FQ, [FQ.one(), FQ.zero(), FQ.t(3)])),
     annulus(), True),
    # class change on a two-hole domain
    ("two holes", rf(Polynomial.from_roots(FQ, [FQ.t(2)]),
                     num_roots=[FQ.t(2)]),
     rf(Polynomial.from_roots(FQ, [FQ.t(2)]) * T,
        num_roots=[FQ.t(2), FQ.zero()]),
     Domain(FQ.zero(), lv(-1), (
         ExcludedDisc(FQ.zero(), lv(1), closed=True),
         ExcludedDisc(FQ.one(), lv(1), closed=True),
     )), False),
    # a perturbation supported in one hole's direction only
    ("hole-local unit", rf(ONE_POLY),
     rf(Polynomial.from_coeffs(FQ, [FQ.one(), FQ.t(2)])),
     Domain(FQ.zero(), lv(-1), (
         ExcludedDisc(FQ.zero(), lv(1), closed=True),
         ExcludedDisc(FQ.one(), lv(1), closed=True),
     )), True),
    # with u = T - 1: h = f1/f0 - 1 = -t u / (2 (u - t)^2).  v(h) is 1 at
    # the bounding point D(0, 0) and 0 at D(1, 1), where the paths to the
    # four holes branch; it keeps falling toward the double pole at 1 + t,
    # to -2 + 2 eps at that hole's Shilov point D(1 + t, 2 - eps), and that
    # check fails.  The minimum lies on the Shilov boundary, as the maximum
    # modulus principle says, so D(1, 1) itself needs no check
    ("interior breakpoint",
     rf(Polynomial.from_roots(FQ, [FQ.one() + t, FQ.one() + t]),
        num_roots=[FQ.one() + t, FQ.one() + t]),
     rf(Polynomial.from_roots(FQ, [FQ.one() + FQ.t(1, 2),
                                   FQ.one() + FQ.t(1, Fraction(1, 2))]),
        num_roots=[FQ.one() + FQ.t(1, 2), FQ.one() + FQ.t(1, Fraction(1, 2))]),
     Domain(FQ.zero(), lv(0), tuple(
         ExcludedDisc(FQ.one() + FQ.t(1, a), lv(2), closed=True)
         for a in (0, 1, 2, Fraction(1, 2)))), False),
    # a puncture at 0 where h's numerator and denominator vanish to the same
    # order 1, so the terminal value v_n - v_d of v(h) on the ray into it is
    # what the puncture's check reads: h = t^2 / (T - t), v_n - v_d = 2 - 1
    ("puncture, equal orders, positive constant",
     rf(T, num_roots=[FQ.zero()]),
     rf(Polynomial.from_roots(FQ, [FQ.zero(), t - FQ.t(2)]),
        Polynomial.from_roots(FQ, [t]),
        num_roots=[FQ.zero(), t - FQ.t(2)], den_roots=[t]),
     PUNCTURED, True),
    # h = t / (T - t), v_n - v_d = 1 - 1 = 0: the puncture's check returns
    # False.  With equal orders h extends over the puncture, so by the
    # maximum modulus principle another Shilov check fails as well, here
    # the one at D(t, 2 - eps), where v(h) = -1 + eps
    ("puncture, equal orders, zero constant",
     rf(T, num_roots=[FQ.zero()]),
     rf(Polynomial.from_roots(FQ, [FQ.zero(), FQ.zero()]),
        Polynomial.from_roots(FQ, [t]),
        num_roots=[FQ.zero(), FQ.zero()], den_roots=[t]),
     PUNCTURED, False),
]


@pytest.mark.parametrize("name,f0,f1,dom,expected",
                         CASES, ids=[c[0] for c in CASES])
def test_known_answers(name, f0, f1, dom, expected):
    assert homotopy_check(f0, f1, dom) is expected


@pytest.mark.parametrize("name,f0,f1,dom,expected",
                         CASES, ids=[c[0] for c in CASES])
def test_sampling_consistency(name, f0, f1, dom, expected):
    rng = random.Random(zlib.crc32(name.encode()))
    zero = lv(0)
    samples = sample_points(rng, dom, count=150)
    values = [v_of_difference(f0, f1, a, s) for a, s in samples]
    if expected:
        assert all(v > zero for v in values)
    else:
        # soundness of the False verdict: some sampled or boundary point
        # must witness the failure
        witnesses = [v for v in values if not v > zero]
        boundary = [v_of_difference(f0, f1, dom.center, dom.s)]
        for d in dom.excluded:
            probe = LogValue(d.s.q, d.s.e - 1) if not d.s.is_infinite else None
            if probe is not None:
                boundary.append(v_of_difference(f0, f1, d.center, probe))
            if not d.closed:
                boundary.append(v_of_difference(f0, f1, d.center, d.s))
        witnesses += [v for v in boundary if not v > zero]
        assert witnesses


def test_random_one_unit_families_sampled():
    rng = random.Random(424242)
    dom = annulus()
    for _ in range(30):
        k = rng.randint(0, 2)
        f0 = rf(Polynomial.from_roots(FQ, [FQ.t(rng.randint(2, 4))
                                           for _ in range(k)]))
        deg = rng.randint(1, 3)
        pert = Polynomial.from_coeffs(
            FQ, [FQ.one()] + [FQ.t(i + rng.randint(1, 2), rng.randint(1, 3))
                              for i in range(1, deg + 1)])
        f1 = RationalFunction(f0.num * pert, f0.den)
        assert homotopy_check(f0, f1, dom)
        for a, s in sample_points(rng, dom, count=60):
            assert v_of_difference(f0, f1, a, s) > lv(0)


def test_straight_line_interpolation_stays_homotopic():
    # whenever |f1/f0 - 1| < 1, every interpolant (1-c) f0 + c f1 with
    # |c| <= 1 is again a certified unit homotopic to f0
    dom = annulus()
    f0 = rf(T, num_roots=[FQ.zero()])
    pert = Polynomial.from_coeffs(FQ, [FQ.one(), FQ.t(3), FQ.t(4, 2)])
    f1 = RationalFunction(f0.num * pert, f0.den)
    assert homotopy_check(f0, f1, dom)
    unit_ball = [FQ.zero(), FQ.one(), t, FQ.constant(Fraction(1, 3)),
                 FQ.one() + t]
    for c in unit_ball:
        num = f0.num * f1.den.scale(FQ.one() - c) + f1.num * f0.den.scale(c)
        interp = RationalFunction(num, f0.den * f1.den)
        assert homotopy_check(f0, interp, dom)
        assert homotopy_check(interp, f1, dom)
