"""Gauss valuation, norms, polygons, root counting: oracle-backed tests."""

import math
import random
import zlib
from fractions import Fraction

import pytest

from berkline import (INFINITY, LogValue, Polynomial, gauss_valuation,
                      naive_norm, newton_polygon, root_count_annulus,
                      roots_in_disc, spectral_limit, sym_annulus_membership)
from berkline.errors import ZeroConstantTerm, ZeroPolynomial
from conftest import rand_poly, rand_puiseux

lv = lambda q, e=0: LogValue(Fraction(q), Fraction(e))


class TestGaussValuation:
    def test_norm_of_T_at_radius_half(self, FQ):
        # |T| = 1/2 at the log-radius-1 point
        T = Polynomial.variable(FQ)
        assert gauss_valuation(T, FQ.zero(), lv(1)) == lv(1)

    def test_norm_of_T_on_unit_disc(self, FQ):
        T = Polynomial.variable(FQ)
        assert gauss_valuation(T, FQ.zero(), lv(0)) == lv(0)

    def test_multiplicativity_example(self, FQ):
        # w((T-1)(T-t)) = w(T-1) + w(T-t) = 0 at the Gauss point
        t = FQ.t()
        f = Polynomial.from_roots(FQ, [FQ.one(), t])
        assert gauss_valuation(f, FQ.zero(), lv(0)) == lv(0)

    def test_zero_polynomial(self, FQ):
        z = Polynomial.from_coeffs(FQ, [])
        assert gauss_valuation(z, FQ.zero(), lv(0)) == INFINITY

    def test_type1_evaluation(self, FQ):
        # at s = +infinity only the constant term survives: v(f(a))
        t = FQ.t()
        f = Polynomial.from_roots(FQ, [t])  # T - t
        w = gauss_valuation(f, FQ.zero(), INFINITY)
        assert w == INFINITY or not w.is_infinite

    @pytest.mark.parametrize("backend", ["F2", "F3", "FQ", "Q2"])
    def test_additive_on_random_products(self, backend, request):
        fld = request.getfixturevalue(backend)
        rng = random.Random(zlib.crc32(backend.encode()))
        zero = fld.zero()
        for _ in range(150):
            f = rand_poly(rng, fld, max_deg=5)
            g = rand_poly(rng, fld, max_deg=5)
            s = lv(Fraction(rng.randint(-4, 8), rng.choice([1, 2, 3])),
                   Fraction(rng.randint(-2, 2)))
            wf = gauss_valuation(f, zero, s)
            wg = gauss_valuation(g, zero, s)
            assert gauss_valuation(f * g, zero, s) == wf + wg


class TestNaiveNorm:
    def test_sum_of_unit_norms(self, FQ):
        f = Polynomial.from_coeffs(FQ, [1, 1])
        assert naive_norm(f, 1) == pytest.approx(2.0, rel=1e-12)

    def test_single_term(self, FQ):
        f = Polynomial.from_coeffs(FQ, [0, 0, 1])
        assert naive_norm(f, Fraction(1, 2)) == pytest.approx(0.25, rel=1e-12)
        # a float radius, and a rational one off the powers of two
        assert naive_norm(f, 0.5) == pytest.approx(0.25, rel=1e-12)
        assert naive_norm(f, Fraction(1, 3)) == pytest.approx(1 / 9, rel=1e-12)

    def test_dominates_gauss_norm(self, FQ):
        rng = random.Random(3)
        for _ in range(60):
            f = rand_poly(rng, FQ, max_deg=5)
            q = Fraction(rng.randint(-2, 4))
            r = Fraction(2) ** -q if q >= 0 else 2 ** int(-q)
            w = gauss_valuation(f, FQ.zero(), lv(q))
            assert naive_norm(f, r) >= (1 - 1e-9) * 2.0 ** float(-w.q)

    def test_submultiplicative(self, FQ):
        rng = random.Random(4)
        for _ in range(60):
            f = rand_poly(rng, FQ, max_deg=4)
            g = rand_poly(rng, FQ, max_deg=4)
            r = rng.choice([Fraction(1, 4), Fraction(1, 2), 1, 2])
            lhs = naive_norm(f * g, r)
            rhs = naive_norm(f, r) * naive_norm(g, r)
            assert lhs <= rhs * (1 + 1e-9)


class TestSpectralLimit:
    def test_constant(self, FQ):
        f = Polynomial.from_coeffs(FQ, [FQ.t(2)])
        seq = spectral_limit(f, 1, n_max=6)
        assert all(x == pytest.approx(-2.0, abs=1e-9) for x in seq)

    def test_binomial_count_oracle(self, FQ):
        # (1+T)^n at r=1 over Q coefficients: norm is exactly n+1
        f = Polynomial.from_coeffs(FQ, [1, 1])
        seq = spectral_limit(f, 1, n_max=20)
        for n, x in enumerate(seq, start=1):
            assert x == pytest.approx(math.log2(n + 1) / n, abs=1e-9)

    def test_bounds_toward_gauss_valuation(self, F3):
        rng = random.Random(5)
        for _ in range(8):
            f = rand_poly(rng, F3, max_deg=3)
            q = Fraction(rng.randint(-2, 2))
            w = gauss_valuation(f, F3.zero(), lv(q))
            seq = spectral_limit(f, Fraction(2) ** int(-q) if q <= 0
                                 else Fraction(1, 2 ** int(q)), n_max=16)
            d = f.degree
            for n, x in enumerate(seq, start=1):
                assert x >= float(-w.q) - 1e-9
                assert abs(x + float(w.q)) <= 2 * math.log2(n * d + 1) / n + 1e-9


def brute_hull_height(pts, x):
    """Independent lower-hull oracle: min over chords straddling x."""
    best = None
    for i, (xi, yi) in enumerate(pts):
        for xj, yj in pts[i:]:
            if xi == xj:
                if xi == x:
                    val = min(yi, yj)
                else:
                    continue
            else:
                if not (min(xi, xj) <= x <= max(xi, xj)):
                    continue
                lam = Fraction(x - xj, xi - xj)
                val = lam * yi + (1 - lam) * yj
            if best is None or val < best:
                best = val
    return best


class TestNewtonPolygon:
    def test_square_root_example(self, FQ):
        # T^2 - t: two roots of valuation 1/2; oracle: expand the square
        t = FQ.t()
        f = Polynomial.from_coeffs(FQ, [-t, FQ.zero(), FQ.one()])
        np_ = newton_polygon(f)
        assert np_.segments == ((Fraction(-1, 2), 2),)
        half = FQ.t(Fraction(1, 2))
        square = Polynomial.from_roots(FQ, [half, -half])
        assert square.coeffs == f.coeffs

    def test_pure_power(self, FQ):
        f = Polynomial.from_coeffs(FQ, [0, 0, 0, 1])
        np_ = newton_polygon(f)
        assert np_.segments == ()
        assert np_.mult0 == 3

    def test_three_known_roots(self, FQ):
        t = FQ.t()
        f = Polynomial.from_roots(FQ, [t, t * t, FQ.one()])
        np_ = newton_polygon(f)
        assert sorted(np_.root_valuations()) == [
            (Fraction(0), 1), (Fraction(1), 1), (Fraction(2), 1)]

    def test_zero_polynomial(self, FQ):
        with pytest.raises(ZeroPolynomial):
            newton_polygon(Polynomial.from_coeffs(FQ, []))

    @pytest.mark.parametrize("seed", range(6))
    def test_against_brute_hull(self, FQ, seed):
        rng = random.Random(100 + seed)
        f = rand_poly(rng, FQ, max_deg=9)
        np_ = newton_polygon(f)
        pts = [(i, c.valuation()) for i, c in enumerate(f.coeffs)
               if not c.is_zero()]
        # every vertex is an input point and slopes strictly increase
        assert set(np_.vertices) <= set(pts)
        slopes = [s for s, _ in np_.segments]
        assert slopes == sorted(set(slopes))
        # hull height at every abscissa matches the brute oracle
        for x in range(np_.vertices[0][0], np_.vertices[-1][0] + 1):
            ours = None
            for (x1, y1), (x2, y2) in zip(np_.vertices, np_.vertices[1:]):
                if x1 <= x <= x2:
                    ours = y1 + Fraction(y2 - y1, x2 - x1) * (x - x1)
                    break
            if ours is None:
                ours = np_.vertices[0][1]
            assert ours == brute_hull_height(pts, x)

    @pytest.mark.parametrize("char", [0, 2, 5])
    def test_widths_match_known_roots(self, char):
        from berkline import PuiseuxField

        fld = PuiseuxField(char)
        rng = random.Random(42 + char)
        for _ in range(40):
            roots = []
            for _ in range(rng.randint(1, 6)):
                q = Fraction(rng.randint(0, 8), rng.choice([1, 2]))
                c = rng.randint(1, char - 1) if char else rng.randint(1, 6)
                roots.append(fld.t(q, c) if char else fld.t(q, Fraction(c)))
            f = Polynomial.from_roots(fld, roots)
            np_ = newton_polygon(f)
            got = []
            for sigma, w in np_.root_valuations():
                got.extend([sigma] * w)
            assert sorted(got) == sorted(r.valuation() for r in roots)


class TestRootCounting:
    def test_open_interval_one_root(self, FQ):
        t = FQ.t()
        f = Polynomial.from_roots(FQ, [t, t * t, FQ.one()])
        n = root_count_annulus(f, lv(Fraction(1, 2)), lv(Fraction(3, 2)),
                               lo_open=True, hi_open=True)
        assert n == 1

    def test_point_interval(self, FQ):
        t = FQ.t()
        f = Polynomial.from_coeffs(FQ, [-t, FQ.zero(), FQ.one()])
        assert root_count_annulus(f, lv(Fraction(1, 2)), lv(Fraction(1, 2))) == 2

    @pytest.mark.parametrize("s", [lv(Fraction(1, 3)), lv(Fraction(1, 3), 1),
                                   lv(Fraction(1, 3), -1), INFINITY],
                             ids=["finite", "eps+", "eps-", "inf"])
    def test_degenerate_intervals_are_empty(self, FQ, s):
        # f = -t^(2/3) T + T^3 has a root at 0 and two of valuation 1/3.
        # With lo == hi and an end open the interval is empty; with both
        # ends open, #(v > s) - #(v >= s) would be -#(v = s), -1 at +inf
        f = Polynomial.from_coeffs(FQ, [0, FQ.t(Fraction(2, 3), -1), 0, 1])
        for lo_open, hi_open in ((True, True), (True, False), (False, True)):
            assert root_count_annulus(f, s, s, lo_open, hi_open) == 0
        on_s = {lv(Fraction(1, 3)): 2, INFINITY: 1}.get(s, 0)
        assert root_count_annulus(f, s, s) == on_s

    def test_full_line_conservation(self, FQ):
        rng = random.Random(9)
        for _ in range(30):
            f = rand_poly(rng, FQ, max_deg=7)
            np_ = newton_polygon(f)
            total = root_count_annulus(f, None, INFINITY, hi_open=True)
            assert total == f.degree - np_.mult0

    def test_center_root_in_closed_disc(self, FQ):
        t = FQ.t()
        f = Polynomial.from_roots(FQ, [FQ.zero(), FQ.zero(), t])
        assert roots_in_disc(f, FQ.zero(), lv(2), closed=True) == 2
        assert roots_in_disc(f, FQ.zero(), lv(1), closed=True) == 3

    def test_partition_sums(self, FQ):
        rng = random.Random(10)
        for _ in range(20):
            f = rand_poly(rng, FQ, max_deg=6)
            np_ = newton_polygon(f)
            cuts = [lv(-3), lv(0), lv(1), lv(2), lv(5)]
            total = root_count_annulus(f, None, cuts[0], hi_open=True)
            for a, b in zip(cuts, cuts[1:]):
                total += root_count_annulus(f, a, b, hi_open=True)
            total += root_count_annulus(f, cuts[-1], INFINITY, hi_open=True)
            assert total == f.degree - np_.mult0


class TestSymAnnulus:
    def test_two_roots_inside(self, FQ):
        # roots +-t^(1/2), annulus 1/4 < |z| < 4
        t = FQ.t()
        assert sym_annulus_membership([t, FQ.zero()], lv(2), lv(-2))

    def test_roots_at_zero_and_one_inside(self, FQ):
        t = FQ.t()
        assert sym_annulus_membership([t, FQ.one()], lv(2), lv(-2))

    def test_boundary_root_fails(self, FQ):
        # roots at valuations {0, 1}: shrink annulus to (0, 1) exclusive
        t = FQ.t()
        f = Polynomial.from_roots(FQ, [FQ.one(), t])
        assert not sym_annulus_membership(list(f.coeffs[:2]), lv(1), lv(0))

    def test_zero_constant_term(self, FQ):
        with pytest.raises(ZeroConstantTerm):
            sym_annulus_membership([FQ.zero(), FQ.one()], lv(1), lv(-1))

    @pytest.mark.parametrize("char", [0, 2])
    def test_equivalence_with_root_location_small(self, char):
        from berkline import PuiseuxField

        fld = PuiseuxField(char)
        rng = random.Random(char)
        s2 = lv(Fraction(-3, 2))
        grid = [Fraction(-2), Fraction(-1), Fraction(0), Fraction(1),
                Fraction(1, 2), Fraction(2)]
        for _ in range(200):
            n = rng.randint(1, 4)
            roots = [fld.t(rng.choice(grid),
                           rng.randint(1, char - 1) if char else rng.randint(1, 5))
                     for _ in range(n)]
            f = Polynomial.from_roots(fld, roots)
            # s1 = +infinity: the punctured disc 0 < |z| < 2**(3/2)
            for s1 in (lv(Fraction(3, 2)), INFINITY):
                member = sym_annulus_membership(list(f.coeffs[:-1]), s1, s2)
                inside = all(s2 < lv(r.valuation()) < s1 for r in roots)
                assert member == inside
                count = root_count_annulus(f, s2, s1, lo_open=True,
                                           hi_open=True)
                assert member == (count == n)


class TestOverflowGuard:
    def test_spectral_respects_coefficient_cap(self, F2):
        f = Polynomial.from_coeffs(F2, [1, 1, 1, 1, 1])
        with pytest.raises(Exception) as exc:
            spectral_limit(f, 1, n_max=64, max_coeffs=50)
        from berkline.errors import CoefficientOverflow
        assert isinstance(exc.value, CoefficientOverflow)


class TestNaiveNormRecentered:
    def test_center_shift_changes_coefficients(self, FQ):
        # f = T^2 recentered at 1 is 1 + 2(T-1) + (T-1)^2: sum norm at r=1 is 3
        f = Polynomial.from_coeffs(FQ, [0, 0, 1])
        assert naive_norm(f, 1, FQ.one()) == pytest.approx(3.0, rel=1e-12)
        assert naive_norm(f, 1) == pytest.approx(1.0, rel=1e-12)


class TestEpsBoundaries:
    def test_eps_interval_isolates_rational_valuation(self, FQ):
        # rationally-valued roots are separated exactly by eps-thick slits
        t = FQ.t()
        f = Polynomial.from_roots(FQ, [t, t, FQ.one()])
        inner = root_count_annulus(f, LogValue(Fraction(1), Fraction(-1)),
                                   LogValue(Fraction(1), Fraction(1)),
                                   lo_open=True, hi_open=True)
        assert inner == 2
        below = root_count_annulus(f, None,
                                   LogValue(Fraction(1), Fraction(-1)))
        assert below == 1  # only the valuation-0 root

    def test_eps_annulus_membership(self, FQ):
        # an annulus pinched by eps around valuation 0 keeps exactly the
        # valuation-0 roots
        f = Polynomial.from_roots(FQ, [FQ.one(), FQ.constant(2)])
        s1 = LogValue(Fraction(0), Fraction(1))
        s2 = LogValue(Fraction(0), Fraction(-1))
        assert sym_annulus_membership(list(f.coeffs[:-1]), s1, s2)
        g = Polynomial.from_roots(FQ, [FQ.one(), FQ.t()])
        assert not sym_annulus_membership(list(g.coeffs[:-1]), s1, s2)


def test_spectral_doubling_monotonicity(F3):
    # subadditivity: the power-of-two subsequence never increases
    rng = random.Random(21)
    for _ in range(6):
        f = rand_poly(rng, F3, max_deg=3)
        seq = spectral_limit(f, Fraction(1, 2), n_max=32)
        for n in (1, 2, 4, 8, 16):
            assert seq[2 * n - 1] <= seq[n - 1] + 1e-9
