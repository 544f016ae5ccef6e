"""Y1/Y2 divisor masses and the splitting identity."""

import random
import zlib
from fractions import Fraction

import pytest

from berkline import (AnnulusSpec, LogValue, PadicField, Polynomial,
                      PuiseuxField, RationalFunction, SectionComponent,
                      SectionData, UNIT_ANNULUS, newton_polygon,
                      splitting_delta, y1_divisor, y2_divisor)
from berkline import cancel
from berkline.cancel import Divisor, _solution_polygon
from berkline.errors import (BerkError, BoundarySolution, NotCertified,
                             PrecisionExhausted, ResourceLimit, ZeroPolynomial)
from conftest import rand_padic, rand_puiseux

FIELDS = [PuiseuxField(2), PuiseuxField(3), PuiseuxField(0), PadicField(2),
          PadicField(3)]

lv = lambda q, e=0: LogValue(Fraction(q), Fraction(e))


def coordinate(fld):
    one = Polynomial.from_coeffs(fld, [fld.one()])
    return RationalFunction(Polynomial.variable(fld), one,
                            num_roots=(fld.zero(),))


def constant(fld, c):
    one = Polynomial.from_coeffs(fld, [fld.one()])
    return RationalFunction(Polynomial.from_coeffs(fld, [c]), one)


class TestY1:
    def test_odd_N_char2_separable(self):
        d = y1_divisor(5, PuiseuxField(2))
        assert len(d.entries) == 5
        assert all(m == 1 for _, m in d.entries)

    def test_frobenius_collapse(self):
        # t^4 - 1 = (t-1)^4 in residue characteristic 2
        d = y1_divisor(4, PuiseuxField(2))
        assert d.entries == ((lv(0), 4),)

    def test_unit_section(self):
        d = y1_divisor(1, PuiseuxField(0))
        assert d.entries == ((lv(0), 1),)

    def test_padic_collapse(self):
        d = y1_divisor(12, PadicField(3))
        assert d.total_mass == 12
        assert all(m == 3 for _, m in d.entries)
        assert len(d.entries) == 4


class TestY2:
    def test_identity_section_mass(self):
        fld = PuiseuxField(2)
        d = y2_divisor(coordinate(fld), 5, UNIT_ANNULUS)
        assert d.total_mass == 4
        assert all(s == lv(0) for s, _ in d.entries)

    def test_constant_unit_norm(self):
        fld = PuiseuxField(0)
        d = y2_divisor(constant(fld, 7), 3, UNIT_ANNULUS)
        assert d.total_mass == 3

    def test_solution_polygon_hull_oracle(self):
        # the solution locus of T^6 = T + T^2 comes from the hull of
        # P = T^6 - T - T^2; check it against the brute chord envelope
        from test_gauss import brute_hull_height
        from berkline import newton_polygon

        fld = PuiseuxField(0)
        P = Polynomial.from_coeffs(
            fld, [0, -1, -1, 0, 0, 0, 1])
        np_ = newton_polygon(P)
        pts = [(i, c.valuation()) for i, c in enumerate(P.coeffs)
               if not c.is_zero()]
        for x in range(1, 7):
            h = brute_hull_height(pts, x)
            assert h is not None
        assert np_.mult0 == 1
        assert sum(w for _, w in np_.root_valuations()) == 5
        assert all(s == 0 for s, _ in np_.segments)
        # the vanishing of g = T(1+T) at valuation 0 makes the certification
        # precondition fail on any annulus containing valuation 0
        one = Polynomial.from_coeffs(fld, [fld.one()])
        g = RationalFunction(
            Polynomial.from_coeffs(fld, [fld.zero(), fld.one(), fld.one()]),
            one, num_roots=(fld.zero(), fld.constant(-1)))
        ann = AnnulusSpec(lv(Fraction(1, 4)), lv(Fraction(-1, 4)))
        with pytest.raises(NotCertified):
            y2_divisor(g, 6, ann)

    def test_not_certified(self):
        fld = PuiseuxField(0)
        T = Polynomial.variable(fld)
        one = Polynomial.from_coeffs(fld, [fld.one()])
        g = RationalFunction(Polynomial.from_roots(fld, [fld.one()]), one)
        with pytest.raises(NotCertified):
            y2_divisor(g, 5, UNIT_ANNULUS)

    def test_boundary_solution_detected(self):
        # shrink the annulus until the solution locus sits on its edge
        fld = PuiseuxField(0)
        t = fld.t()
        one = Polynomial.from_coeffs(fld, [fld.one()])
        # g = t * T: solutions of T^N = t T at valuation 1/(N-1)
        g = RationalFunction(
            Polynomial.from_coeffs(fld, [fld.zero(), t]), one,
            num_roots=(fld.zero(),))
        N = 5
        pinch = AnnulusSpec(lv(Fraction(1, N - 1)), lv(Fraction(-1)))
        with pytest.raises(BoundarySolution):
            y2_divisor(g, N, pinch)
        wide = AnnulusSpec(lv(1), lv(-1))
        assert y2_divisor(g, N, wide).total_mass == N - 1

    def test_mass_invariant_under_one_unit_multiplier(self):
        rng = random.Random(13)
        fld = PuiseuxField(3)
        for _ in range(25):
            g = coordinate(fld)
            # u = 1 + c T^d with v(c) > d so |u - 1| < 1 holds on the annulus
            # and the roots of u sit strictly below valuation -1
            d = rng.randint(1, 3)
            c = fld.t(d + rng.randint(1, 3))
            u = Polynomial.from_coeffs(
                fld, [fld.one()] + [fld.zero()] * (d - 1) + [c])
            gu = RationalFunction(g.num * u, g.den, num_roots=g.num_roots)
            N = rng.randint(3, 12)
            base = y2_divisor(g, N, UNIT_ANNULUS).total_mass
            assert y2_divisor(gu, N, UNIT_ANNULUS).total_mass == base


class TestSplitting:
    @pytest.mark.parametrize("fld", [PuiseuxField(2), PuiseuxField(3),
                                     PadicField(2), PadicField(3)])
    def test_identity_section(self, fld):
        g = coordinate(fld)
        section = SectionData(1, (SectionComponent("point", g, 1),))
        for N in (2, 5, 8):
            delta = splitting_delta(section, N, UNIT_ANNULUS)
            assert delta == (("point", 1),)

    def test_trivial_second_component(self):
        fld = PuiseuxField(2)
        section = SectionData(1, (SectionComponent("u", constant(fld, 1), 1),))
        assert splitting_delta(section, 7, UNIT_ANNULUS) == ()

    def test_two_components_additive(self):
        fld = PuiseuxField(3)
        g = coordinate(fld)
        section = SectionData(
            3, (SectionComponent("u1", g, 1), SectionComponent("u2", g, 2)))
        delta = splitting_delta(section, 9, UNIT_ANNULUS)
        assert delta == (("u1", 1), ("u2", 2))

    def test_mass_difference_is_one_for_all_N(self):
        for fld in (PuiseuxField(2), PuiseuxField(3), PadicField(2)):
            g = coordinate(fld)
            for N in range(2, 51):
                m1 = y1_divisor(N, fld).total_mass
                m2 = y2_divisor(g, N, UNIT_ANNULUS).total_mass
                assert m1 - m2 == 1


def dense_polygon(num, den, N):
    """newton_polygon of P = T**N den - num, written out densely."""
    fld = num.field
    shifted = Polynomial.from_coeffs(fld, [fld.zero()] * N + list(den.coeffs))
    return newton_polygon(shifted - num)


def outcome(build):
    try:
        np_ = build()
    except BerkError as exc:
        return type(exc).__name__, str(exc), exc.witness
    return np_.vertices, np_.segments, np_.mult0, np_.degree


def rand_coeff(rng, fld):
    """An exact element, or over Puiseux fields sometimes one known only
    below t^prec (a truncated zero when no term lies below the bound)."""
    if isinstance(fld, PadicField):
        return rand_padic(rng, fld)
    x = rand_puiseux(rng, fld, max_terms=2)
    if rng.random() < 0.3:
        x = x.truncated(Fraction(rng.randint(0, 6), rng.choice((1, 2))))
    return x


def sections(fld):
    """(kind, num, den) for g in {t, 1, t*unit, a rational g with den}."""
    one = Polynomial.from_coeffs(fld, [fld.one()])
    T = Polynomial.variable(fld)
    unit = Polynomial.from_coeffs(fld, [fld.one(), fld.zero(), fld.t(3, 2)])
    den = Polynomial.from_coeffs(fld, [fld.constant(3), fld.t(2), fld.t(1, -1)])
    num = Polynomial.from_coeffs(fld, [fld.t(1), fld.one(), fld.zero(),
                                       fld.t(2, 5)])
    return (("t", T, one), ("1", one, one), ("t*unit", T * unit, one),
            ("rational", num, den))


class TestSolutionPolygon:
    """The sparse polygon of T**N den - num against the dense newton_polygon."""

    @pytest.mark.parametrize("fld", FIELDS, ids=repr)
    def test_sections_match_dense(self, fld):
        # N <= deg num makes the two index ranges overlap
        for kind, num, den in sections(fld):
            for N in range(1, 8):
                want = outcome(lambda: dense_polygon(num, den, N))
                got = outcome(lambda: _solution_polygon(num, den, N))
                assert got == want, (kind, N)

    @pytest.mark.parametrize("fld", FIELDS, ids=repr)
    def test_random_terms_match_dense(self, fld):
        rng = random.Random(zlib.crc32(repr(fld).encode()))
        seen = set()
        for _ in range(300):
            num = Polynomial.from_coeffs(
                fld, [rand_coeff(rng, fld) for _ in range(rng.randint(1, 6))])
            den = Polynomial.from_coeffs(
                fld, [rand_coeff(rng, fld) for _ in range(rng.randint(1, 4))])
            N = rng.randint(1, 7)
            want = outcome(lambda: dense_polygon(num, den, N))
            got = outcome(lambda: _solution_polygon(num, den, N))
            assert got == want, (num, den, N)
            seen.add(want[0] if isinstance(want[0], str) else "polygon")
        assert "polygon" in seen
        if isinstance(fld, PuiseuxField):
            assert "PrecisionExhausted" in seen

    @pytest.mark.parametrize("fld", FIELDS, ids=repr)
    def test_g_equal_to_T_to_the_N_has_no_polygon(self, fld):
        one = Polynomial.from_coeffs(fld, [fld.one()])
        for N in (1, 2, 5):
            num = Polynomial.variable(fld) ** N
            with pytest.raises(ZeroPolynomial):
                dense_polygon(num, one, N)
            with pytest.raises(ZeroPolynomial):
                _solution_polygon(num, one, N)
        with pytest.raises(ZeroPolynomial):
            y2_divisor(RationalFunction(num, one), 5, UNIT_ANNULUS)

    def test_inexact_coefficient_below_the_hull(self):
        # P = T**2 - (O(t^-1) T + 1): the unknown middle coefficient could
        # lie below the flat hull, on both paths
        fld = PuiseuxField(3)
        one = Polynomial.from_coeffs(fld, [fld.one()])
        num = Polynomial.from_coeffs(fld, [fld.one(), fld.elem([], -1)])
        with pytest.raises(PrecisionExhausted):
            dense_polygon(num, one, 2)
        with pytest.raises(PrecisionExhausted):
            _solution_polygon(num, one, 2)

    @pytest.mark.parametrize("fld", [PuiseuxField(3), PuiseuxField(0),
                                     PadicField(2)], ids=repr)
    def test_huge_N_is_cheap(self, fld):
        # a dense T**N - T could never be stored at this size
        N = 10 ** 12
        assert y2_divisor(coordinate(fld), N, UNIT_ANNULUS).total_mass == N - 1
        section = SectionData(1, (SectionComponent("point", coordinate(fld), 1),))
        assert splitting_delta(section, N, UNIT_ANNULUS) == (("point", 1),)


class TestY1Mass:
    @pytest.mark.parametrize("fld", FIELDS, ids=repr)
    def test_total_mass_is_N(self, fld):
        # splitting_delta takes mass(Y1) = N without building Y1
        p = fld.residue_char
        for N in (1, 2, 3, 4, 6, 8, 9, 12, 16, 18, 27, 36, 48, 54, 81, 96,
                  243, 1000):
            d = y1_divisor(N, fld)
            assert d.total_mass == N
            mult = 1
            while p and N % (mult * p) == 0:
                mult *= p
            assert d.entries == ((LogValue(0), mult),) * (N // mult)

    @pytest.mark.parametrize("fld", FIELDS, ids=repr)
    def test_delta_matches_built_y1(self, fld):
        for kind, num, den in sections(fld):
            if kind == "rational":
                continue
            g = RationalFunction(num, den)
            section = SectionData(2, (SectionComponent(kind, g, 2),))
            for N in (2, 3, 4, 9, 12):
                m1 = y1_divisor(N, fld).total_mass
                m2 = y2_divisor(g, N, UNIT_ANNULUS).total_mass
                coef = 2 * (m1 - m2)
                assert splitting_delta(section, N, UNIT_ANNULUS) == \
                    (((kind, coef),) if coef else ())

    @pytest.mark.parametrize("N", [0, -3])
    def test_N_below_one_is_rejected(self, N):
        fld = PuiseuxField(2)
        section = SectionData(1, (SectionComponent("u", coordinate(fld), 1),))
        for call in (lambda: y1_divisor(N, fld),
                     lambda: y2_divisor(coordinate(fld), N, UNIT_ANNULUS),
                     lambda: splitting_delta(section, N, UNIT_ANNULUS)):
            with pytest.raises(ValueError, match=r"^N must be >= 1$"):
                call()


class TestY1EntryCap:
    def test_raises_past_the_cap_before_building(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("Y1 was built")

        monkeypatch.setattr(cancel, "Divisor", refuse)
        cap = cancel.Y1_ENTRY_CAP
        for N in (cap + 1, 10 ** 12):
            with pytest.raises(ResourceLimit) as info:
                y1_divisor(N, PuiseuxField(0))
            assert info.value.code == "resource_limit"
            assert info.value.witness == cap

    def test_cap_counts_entries_not_mass(self, monkeypatch):
        monkeypatch.setattr(cancel, "Y1_ENTRY_CAP", 10)
        assert len(y1_divisor(10, PuiseuxField(0)).entries) == 10
        # 40 = 2**3 * 5: five balls of multiplicity 8
        assert y1_divisor(40, PuiseuxField(2)).entries == ((LogValue(0), 8),) * 5
        for N, fld in ((11, PuiseuxField(0)), (22, PuiseuxField(2)),
                       (11, PadicField(3))):
            with pytest.raises(ResourceLimit):
                y1_divisor(N, fld)


class TestDivisorEntries:
    def test_normal_entries_are_kept(self):
        entries = ((LogValue(0), 2), (lv(1, 1), -1))
        assert Divisor(entries).entries is entries

    def test_other_entries_are_coerced(self):
        d = Divisor([(Fraction(1, 2), 2), (0, 0), (LogValue(1), True)])
        assert d.entries == ((lv(Fraction(1, 2)), 2), (lv(1), 1))
        assert all(type(s) is LogValue and type(m) is int for s, m in d.entries)
