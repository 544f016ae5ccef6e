"""Reduced-unit classes, domain certification, balancing, homotopy decision."""

import random
from fractions import Fraction

import pytest

from berkline import (DiscPoint, Domain, ExcludedDisc, LogValue, Polynomial,
                      RationalFunction, boundary_degrees, char_poly_point,
                      direction_slopes, eval_point, exterior_degree,
                      gauss_valuation, homotopy_check, leading_class,
                      reduced_unit, unit_class)
from berkline.errors import (BadDomain, NotCertified, VanishesOnDomain,
                             ZeroElement)
from berkline.field import PadicField, PuiseuxField
from berkline.logvalue import INFINITY
from berkline.points import _dist
from berkline.units import _count_in_disc
from conftest import rand_padic, rand_puiseux

lv = lambda q, e=0: LogValue(Fraction(q), Fraction(e))


def one_rf(fld, poly):
    one = Polynomial.from_coeffs(fld, [fld.one()])
    return RationalFunction(poly, one)


class TestUnitClass:
    def test_one_unit_is_trivial(self, FQ):
        u = unit_class(FQ.elem([(0, 1), (1, 1)]))
        assert u.q == 0 and u.res == 1 and u.is_identity

    def test_uniformizer_padic(self, Q2):
        u = unit_class(Q2.elem(2))
        assert (u.q, u.res) == (1, 1)

    def test_leading_term_extraction(self, FQ):
        u = unit_class(FQ.elem([(2, 3), (3, 1)]))
        assert (u.q, u.res) == (2, 3)

    def test_zero_rejected(self, FQ):
        with pytest.raises(ZeroElement):
            unit_class(FQ.zero())

    @pytest.mark.parametrize("backend", ["F2", "F3", "FQ", "Q3"])
    def test_group_homomorphism(self, backend, request):
        fld = request.getfixturevalue(backend)
        rng = random.Random(len(backend))
        from berkline import PadicField
        from conftest import rand_padic_nonzero, rand_puiseux_nonzero

        mk = rand_padic_nonzero if isinstance(fld, PadicField) \
            else rand_puiseux_nonzero
        for _ in range(120):
            x, y = mk(rng, fld), mk(rng, fld)
            ux, uy, uxy = unit_class(x), unit_class(y), unit_class(x * y)
            assert (uxy.q, uxy.res) == ((ux * uy).q, (ux * uy).res)
            uinv = unit_class(x.inverse())
            assert (ux * uinv).is_identity

    def test_kernel_is_one_units(self, Q3):
        rng = random.Random(5)
        p = 3
        for _ in range(100):
            # 1 + p * (unit): a 1-unit, must land on the identity
            k = rng.randint(1, 3)
            u = Fraction(rng.choice([1, 2, 4, 5, 7]),
                         rng.choice([1, 2, 4, 5, 7]))
            x = Q3.elem(1 + Fraction(p) ** k * u)
            assert unit_class(x).is_identity


class TestCharPoly:
    def test_double_root(self, FQ):
        t = FQ.t()
        poly, cls = char_poly_point([t, t])
        # T^2 - 2tT + t^2
        assert poly.coeffs[0].agrees_with(t * t)
        assert poly.coeffs[1].agrees_with(FQ.constant(-2) * t)
        assert (cls.q, cls.res) == (2, 1)

    def test_single_one(self, FQ):
        poly, cls = char_poly_point([FQ.one()])
        assert poly.degree == 1
        assert cls.is_identity

    def test_inverse_pair_cancels(self, FQ):
        x = FQ.elem([(2, 3), (4, 1)])
        _, cls = char_poly_point([x, x.inverse()])
        assert cls.is_identity

    def test_product_class_random(self, FQ):
        rng = random.Random(6)
        from conftest import rand_puiseux_nonzero

        for _ in range(100):
            us = [rand_puiseux_nonzero(rng, FQ) for _ in range(rng.randint(1, 5))]
            _, cls = char_poly_point(us)
            prod = unit_class(us[0])
            for u in us[1:]:
                prod = prod * unit_class(u)
            assert (cls.q, cls.res) == (prod.q, prod.res)


class TestDomain:
    def test_validation(self, FQ):
        with pytest.raises(BadDomain):
            Domain(FQ.zero(), lv(0),
                   (ExcludedDisc(FQ.zero(), lv(0)),))  # not smaller
        with pytest.raises(BadDomain):
            Domain(FQ.zero(), lv(0),
                   (ExcludedDisc(FQ.zero(), lv(2)),
                    ExcludedDisc(FQ.t(3), lv(2))))  # overlapping

    def test_disjoint_holes_next_to_an_open_hole(self, FQ):
        # v(z) > 1 and v(z + t) >= 2 share no point: a point of the second
        # has v(z) = v(-t) = 1
        t = FQ.t()
        Domain(FQ.zero(), lv(-1), (ExcludedDisc(FQ.zero(), lv(1), closed=False),
                                   ExcludedDisc(-t, lv(2))))
        # two open discs of radius 1 whose centers lie at distance v = 1
        Domain(FQ.zero(), lv(-1), (ExcludedDisc(FQ.zero(), lv(1), closed=False),
                                   ExcludedDisc(t, lv(1), closed=False)))

    @pytest.mark.parametrize("hole_a,hole_b", [
        # a closed disc of radius min(s_a, s_b) holds the other center
        ((None, 1, True), (1, 2, True)),
        ((None, 1, True), (1, 1, False)),
        ((None, 1, False), (1, 1, True)),
        # the smaller disc's center lies inside the open larger one
        ((None, 1, False), (2, 3, True)),
        ((None, 1, False), (2, 3, False)),
        ((None, 1, False), (None, 1, False)),
    ])
    def test_meeting_holes_still_raise(self, FQ, hole_a, hole_b):
        # (k, s, closed): the hole v(z - t^k) >= s, or > s when open; the
        # center is 0 when k is None
        def hole(k, s, closed):
            center = FQ.zero() if k is None else FQ.t(k)
            return ExcludedDisc(center, lv(s), closed=closed)
        with pytest.raises(BadDomain):
            Domain(FQ.zero(), lv(-1), (hole(*hole_a), hole(*hole_b)))

    def test_certified_unit_T_outside_origin(self, FQ):
        # 1 < |z| <= 4: T has no zeros there
        dom = Domain(FQ.zero(), lv(-2),
                     (ExcludedDisc(FQ.zero(), lv(0), closed=True),))
        f = one_rf(FQ, Polynomial.variable(FQ))
        assert reduced_unit(f, dom).certified

    def test_vanishing_witness(self, FQ):
        dom = Domain(FQ.zero(), lv(0))
        f = one_rf(FQ, Polynomial.from_roots(FQ, [FQ.one()]))
        with pytest.raises(VanishesOnDomain) as exc:
            reduced_unit(f, dom)
        assert exc.value.witness["which"] == "num"

    def test_pair_in_excluded_disc(self, FQ):
        t = FQ.t()
        a, b = t, t + FQ.t(2)
        # excluded radius slightly above 1/2 so the valuation-1 roots fall in
        dom = Domain(FQ.zero(), lv(0),
                     (ExcludedDisc(FQ.zero(), lv(1, -1), closed=False),))
        f = RationalFunction(Polynomial.from_roots(FQ, [a]),
                             Polynomial.from_roots(FQ, [b]),
                             num_roots=(a,), den_roots=(b,))
        assert reduced_unit(f, dom).certified


class TestBoundaryDegrees:
    def test_product_over_excluded_centers(self, FQ):
        t = FQ.t()
        a1, a2 = FQ.zero(), FQ.one()
        dom = Domain(FQ.zero(), lv(-1), (
            ExcludedDisc(a1, lv(1), closed=True),
            ExcludedDisc(a2, lv(1), closed=True),
        ))
        f = one_rf(FQ, Polynomial.from_roots(FQ, [a1, a1, a2]))
        degs = boundary_degrees(f, dom)
        assert degs == (2, 1)
        assert sum(degs) + exterior_degree(f, dom) == 0

    def test_constant_zero_vector(self, FQ):
        dom = Domain(FQ.zero(), lv(0),
                     (ExcludedDisc(FQ.zero(), lv(2)),))
        f = one_rf(FQ, Polynomial.from_coeffs(FQ, [5]))
        assert boundary_degrees(f, dom) == (0,)

    def test_zero_pole_cancel(self, FQ):
        t = FQ.t()
        a, b = t, t * FQ.constant(3)  # both in the excluded disc at 0, s=1
        dom = Domain(FQ.zero(), lv(0),
                     (ExcludedDisc(FQ.zero(), lv(1), closed=True),))
        f = RationalFunction(Polynomial.from_roots(FQ, [a]),
                             Polynomial.from_roots(FQ, [b]))
        assert boundary_degrees(f, dom) == (0,)

    def test_uncertified(self, FQ):
        dom = Domain(FQ.zero(), lv(0),
                     (ExcludedDisc(FQ.zero(), lv(2)),))
        f = one_rf(FQ, Polynomial.from_roots(FQ, [FQ.one()]))
        with pytest.raises(NotCertified):
            boundary_degrees(f, dom)

    def test_sum_rule_random(self, FQ):
        rng = random.Random(7)
        for _ in range(60):
            t = FQ.t()
            centers = [FQ.zero(), FQ.one(), FQ.constant(2)]
            dom = Domain(FQ.zero(), lv(-1), tuple(
                ExcludedDisc(c, lv(1), closed=True) for c in centers))
            roots, poles = [], []
            for c in centers:
                for _ in range(rng.randint(0, 2)):
                    roots.append(c + FQ.t(rng.randint(1, 3)))
                for _ in range(rng.randint(0, 2)):
                    poles.append(c + FQ.t(rng.randint(1, 3), 2))
            # extra divisor beyond the bounding disc
            for _ in range(rng.randint(0, 2)):
                roots.append(FQ.t(-rng.randint(2, 4)))
            if not roots or not poles:
                continue
            f = RationalFunction(Polynomial.from_roots(FQ, roots),
                                 Polynomial.from_roots(FQ, poles))
            degs = boundary_degrees(f, dom)
            assert sum(degs) + exterior_degree(f, dom) == 0


class TestDirectionSlopes:
    def test_sums_to_zero_and_matches_finite_differences(self, FQ):
        rng = random.Random(8)
        for _ in range(60):
            roots = [FQ.t(rng.randint(0, 3), rng.randint(1, 4)) for _ in range(3)]
            poles = [FQ.one() + FQ.t(rng.randint(1, 2)) for _ in range(2)]
            f = RationalFunction(Polynomial.from_roots(FQ, roots),
                                 Polynomial.from_roots(FQ, poles),
                                 num_roots=tuple(roots),
                                 den_roots=tuple(poles))
            x = DiscPoint(FQ.zero(), lv(rng.randint(0, 3)))
            slopes = direction_slopes(f, x)
            assert sum(slopes.values()) == 0

    def test_slope_matches_derivative_oracle(self, FQ):
        # independent oracle: one-sided finite difference of v(f) along a ray
        t = FQ.t()
        roots = [t, t * t, FQ.one()]
        f = RationalFunction(Polynomial.from_roots(FQ, roots),
                             Polynomial.from_coeffs(FQ, [1]),
                             num_roots=tuple(roots))
        x = DiscPoint(FQ.zero(), lv(1))
        slopes = direction_slopes(f, x)

        def v_at(s):
            return gauss_valuation(f.num, FQ.zero(), s).q

        eps = Fraction(1, 64)
        down = (v_at(lv(1 + eps)) - v_at(lv(1))) / eps
        assert slopes["dir:t"] == down
        # moving up means shrinking s; the denominator is constant here, so
        # the up slope is minus the left derivative of v(num)
        up = (v_at(lv(1)) - v_at(lv(1 - eps))) / eps
        assert slopes["up"] == -up

    def test_type2_required(self, FQ):
        f = one_rf(FQ, Polynomial.variable(FQ))
        with pytest.raises(ValueError):
            direction_slopes(f, DiscPoint(FQ.zero(), lv(1, 1)), [])


class TestHomotopy:
    def annulus(self, FQ):
        return Domain(FQ.zero(), lv(-1),
                      (ExcludedDisc(FQ.zero(), lv(1), closed=False),))

    def test_reflexive(self, FQ):
        dom = self.annulus(FQ)
        f = one_rf(FQ, Polynomial.variable(FQ))
        assert homotopy_check(f, f, dom)

    def test_one_unit_perturbation(self, FQ):
        dom = self.annulus(FQ)
        T = Polynomial.variable(FQ)
        f0 = one_rf(FQ, T)
        # f1 = T(1 + t^2 g(T)) with |t^2 g| < 1 on the annulus
        g = Polynomial.from_coeffs(FQ, [FQ.t(2), FQ.t(3)])
        f1 = one_rf(FQ, T + T * g)
        assert homotopy_check(f0, f1, dom)

    def test_class_change_fails(self, FQ):
        dom = self.annulus(FQ)
        T = Polynomial.variable(FQ)
        f0 = one_rf(FQ, T)
        f1 = one_rf(FQ, T * T)
        assert not homotopy_check(f0, f1, dom)

    def test_boundary_sensitivity(self, FQ):
        # h = t*T: a 1-unit perturbation of 1 on |z| <= 1 but |h| reaches 1 on
        # the boundary circle |z| = 2, once the zero of f1 there is excluded
        small = Domain(FQ.zero(), lv(0))
        root_center = -FQ.t(-1)  # f1 vanishes at -1/t
        big = Domain(FQ.zero(), lv(-1),
                     (ExcludedDisc(root_center, lv(0), closed=True),))
        one = one_rf(FQ, Polynomial.from_coeffs(FQ, [1]))
        f1 = one_rf(FQ, Polynomial.from_coeffs(FQ, [FQ.one(), FQ.t()]))
        assert homotopy_check(one, f1, small)
        assert not homotopy_check(one, f1, big)

    def test_open_end_strictness(self, FQ):
        # h = T - 1 on 1 < |z| <= 2 has |h| = |T| < 1 approaching... actually
        # |T-1| = |T| > ... pick h vanishing only at the removed boundary
        FQhalf = FQ
        dom = Domain(FQhalf.zero(), lv(-1),
                     (ExcludedDisc(FQhalf.zero(), lv(0), closed=True),))
        one = one_rf(FQhalf, Polynomial.from_coeffs(FQhalf, [1]))
        # f1 = 1 + t/T: |t/T| < 1 iff v(t) - v(T) > 0 iff 1 > s... on the
        # domain s < 0 strictly... |T| > 1 means v < 0, so v(t/T) = 1 - v > 1
        f1 = RationalFunction(
            Polynomial.from_coeffs(FQhalf, [FQhalf.t(), FQhalf.one()]),
            Polynomial.variable(FQhalf))
        assert homotopy_check(one, f1, dom)

    def test_uncertified_rejected(self, FQ):
        dom = self.annulus(FQ)
        f = one_rf(FQ, Polynomial.from_roots(FQ, [FQ.one()]))
        g = one_rf(FQ, Polynomial.variable(FQ))
        with pytest.raises(NotCertified):
            homotopy_check(f, g, dom)

    def test_transitive_and_class_preserving(self, FQ):
        rng = random.Random(9)
        dom = self.annulus(FQ)
        T = Polynomial.variable(FQ)
        base = one_rf(FQ, T)
        fs = [base]
        for _ in range(3):
            # multiply by random 1-unit-on-the-annulus functions
            pert = Polynomial.from_coeffs(
                FQ, [FQ.one()] +
                [FQ.t(rng.randint(2, 4), rng.randint(1, 3))
                 for _ in range(rng.randint(1, 2))])
            fs.append(RationalFunction(fs[-1].num * pert, fs[-1].den))
        for i in range(len(fs)):
            for j in range(len(fs)):
                assert homotopy_check(fs[i], fs[j], dom)
                li = leading_class(fs[i], dom)
                lj = leading_class(fs[j], dom)
                assert (li.w, li.res_q, li.res) == (lj.w, lj.res_q, lj.res)
        assert boundary_degrees(fs[0], dom) == boundary_degrees(fs[-1], dom)


def test_char_poly_rejects_zero(FQ):
    with pytest.raises(ZeroElement):
        char_poly_point([FQ.one(), FQ.zero()])


class TestHomotopyPuncturedDisc:
    def test_positive_slope_toward_removed_point(self, FQ):
        # unit disc minus the classical origin; h = t*T stays below 1 and
        # grows toward the puncture
        from berkline import INFINITY

        dom = Domain(FQ.zero(), lv(0),
                     (ExcludedDisc(FQ.zero(), INFINITY, closed=True),))
        one = one_rf(FQ, Polynomial.from_coeffs(FQ, [1]))
        f1 = one_rf(FQ, Polynomial.from_coeffs(FQ, [FQ.one(), FQ.t()]))
        assert homotopy_check(one, f1, dom)

    def test_negative_slope_toward_removed_point_fails(self, FQ):
        # f1 = (T + t^3)/T on the disc punctured at 0 and at -t^3:
        # h = t^3/T has |h| -> infinity approaching the puncture
        from berkline import INFINITY

        dom = Domain(FQ.zero(), lv(0), (
            ExcludedDisc(FQ.zero(), INFINITY, closed=True),
            ExcludedDisc(-FQ.t(3), INFINITY, closed=True),
        ))
        one = one_rf(FQ, Polynomial.from_coeffs(FQ, [1]))
        f1 = RationalFunction(
            Polynomial.from_coeffs(FQ, [FQ.t(3), FQ.one()]),
            Polynomial.variable(FQ))
        assert not homotopy_check(one, f1, dom)


@pytest.mark.parametrize("fld", [PuiseuxField(0), PuiseuxField(3), PadicField(3)],
                         ids=["Q", "F3", "Q3"])
def test_root_list_counts_match_logvalue_comparisons(fld):
    """Counting a root list on plain valuations agrees with comparing the
    log-distances _dist(r, c) >= s (closed) and > s (open)."""
    rng = random.Random(1704)
    make = ((lambda: rand_padic(rng, fld)) if isinstance(fld, PadicField)
            else (lambda: rand_puiseux(rng, fld)))
    seen = set()
    for _ in range(2000):
        center = make()
        roots = [make() for _ in range(rng.randint(0, 5))]
        if rng.random() < 0.3:
            # the center itself, and an equal element that is another object
            roots += [center, type(center)(*center._values(center))]
        if rng.random() < 0.15:
            s = INFINITY
        else:
            # radii at the roots' distances, so that ties are common
            dists = [_dist(r, center) for r in roots]
            qs = [d.q for d in dists if not d.is_infinite] or [Fraction(0)]
            q = rng.choice(qs) + rng.choice([0, 0, 0, Fraction(-1, 2), 1])
            s = lv(q, rng.choice([-1, Fraction(-1, 3), 0, 0, Fraction(1, 2), 2]))
        poly = Polynomial.from_roots(fld, roots)
        for closed in (True, False):
            got = _count_in_disc(poly, roots, center, s, closed)
            want = sum(1 for r in roots
                       if (_dist(r, center) >= s if closed
                           else _dist(r, center) > s))
            assert got == want
            ties = sum(1 for r in roots if _dist(r, center).q == s.q)
            seen.add(("closed" if closed else "open",
                      "inf" if s.is_infinite else (s.e > 0) - (s.e < 0),
                      "tie" if ties else "no tie"))
        if any(r.valuation_of_difference(center) == float("inf") for r in roots):
            seen.add("root at the center")
    for kind in ("closed", "open"):
        for e in (-1, 0, 1):
            assert (kind, e, "tie") in seen
        assert (kind, "inf", "tie") in seen and (kind, "inf", "no tie") in seen
    assert "root at the center" in seen
