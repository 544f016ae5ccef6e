"""Acceptance suite: one test per criterion, one PASS line each (run -s).

Every check is exact unless the criterion itself states a float tolerance;
runtime limits are asserted where stated.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from berkline import (AnnulusSpec, DiscPoint, Domain, ExcludedDisc, HostTree,
                      INFINITY, LogValue, PadicField, Polynomial, PuiseuxField,
                      RationalFunction, SectionComponent, SectionData,
                      UNIT_ANNULUS, boundary_degrees, build_skeleton, classify,
                      cohomology, constant_sheaf, coords, direction_slopes,
                      exterior_degree, gauss_valuation, homotopy_check,
                      kummer_sheaf, leading_class, newton_polygon,
                      restrict_coords, root_count_annulus, shriek_extend,
                      spectral_profile, splitting_delta, sym_annulus_membership,
                      unit_class, char_poly_point, y1_divisor, y2_divisor)
from conftest import (rand_padic, rand_padic_nonzero, rand_poly, rand_puiseux,
                      rand_puiseux_nonzero)

lv = lambda q, e=0: LogValue(Fraction(q), Fraction(e))


def report(num, name, dt, limit=None):
    extra = f" ({dt:.2f}s" + (f" < {limit}s)" if limit else ")")
    print(f"PASS criterion {num}: {name}{extra}")
    if limit is not None:
        assert dt < limit, f"criterion {num} exceeded its {limit}s budget"


def test_criterion_1_gauss_multiplicativity():
    t0 = time.monotonic()
    rng = random.Random(101)
    backends = [
        (PuiseuxField(2), rand_puiseux),
        (PuiseuxField(0), rand_puiseux),
        (PadicField(3), rand_padic),
    ]
    checked = 0
    for fld, mk in backends:
        zero = fld.zero()
        for _ in range(1000):
            f = rand_poly(rng, fld, max_deg=8)
            g = rand_poly(rng, fld, max_deg=8)
            s = lv(Fraction(rng.randint(-6, 12), rng.choice([1, 2, 3])),
                   Fraction(rng.randint(-2, 2)))
            assert gauss_valuation(f * g, zero, s) == \
                gauss_valuation(f, zero, s) + gauss_valuation(g, zero, s)
            checked += 1
    assert checked == 3000
    report(1, "gauss valuation is additive on 1000 pairs per backend",
           time.monotonic() - t0, limit=5)


def test_criterion_2_spectral_limit():
    t0 = time.monotonic()
    rng = random.Random(202)
    radii = [(Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(1)),
             (Fraction(4), Fraction(-2))]
    for trial in range(20):
        fld = PuiseuxField(2 if trial % 2 else 3)
        deg = rng.randint(1, 3)
        coeffs = [fld.elem([(Fraction(rng.randint(0, 4),
                                      rng.choice([1, 2])),
                             rng.randint(1, fld.char - 1))])
                  for _ in range(deg)]
        lead = fld.elem([(Fraction(rng.randint(0, 2)), 1)])
        f = Polynomial.from_coeffs(fld, coeffs + [lead])
        deg = f.degree
        rows = spectral_profile(f, [r for r, _ in radii], n_max=64)
        for (r, s), row in zip(radii, rows):
            w = float(gauss_valuation(f, fld.zero(), lv(s)).q)
            for n, x in enumerate(row, start=1):
                tol = 2 * math.log2(n * deg + 1) / n
                assert abs(x + w) <= tol + 1e-9
    report(2, "power norms converge to the gauss valuation at stated rate",
           time.monotonic() - t0, limit=30)


def test_criterion_3_polygon_vs_roots():
    t0 = time.monotonic()
    rng = random.Random(303)
    for trial in range(500):
        char = rng.choice([0, 2, 3])
        fld = PuiseuxField(char)
        roots = []
        for _ in range(rng.randint(1, 6)):
            q = Fraction(rng.randint(0, 8), rng.choice([1, 2, 3]))
            c = rng.randint(1, char - 1) if char else \
                Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
            roots.append(fld.t(q, c))
        f = Polynomial.from_roots(fld, roots)
        np_ = newton_polygon(f)
        got = []
        for sigma, w in np_.root_valuations():
            got.extend([sigma] * w)
        assert sorted(got) == sorted(r.valuation() for r in roots)
        assert np_.mult0 == 0
    report(3, "polygon widths per slope equal root-valuation multisets "
              "(500 factored polynomials)", time.monotonic() - t0)


def test_criterion_4_sym_annulus_exhaustive():
    t0 = time.monotonic()
    s1, s2 = lv(Fraction(3, 2)), lv(Fraction(-3, 2))
    grid = [Fraction(-2), Fraction(-3, 2), Fraction(-1), Fraction(0),
            Fraction(1, 2), Fraction(1), Fraction(3, 2)]
    total = 0
    for char in (0, 2):
        fld = PuiseuxField(char)
        for n in range(1, 6):
            for combo in itertools.combinations_with_replacement(grid, n):
                roots = [fld.t(q) for q in combo]
                f = Polynomial.from_roots(fld, roots)
                member = sym_annulus_membership(list(f.coeffs[:-1]), s1, s2)
                inside = all(s2 < lv(q) < s1 for q in combo)
                assert member == inside
                assert member == (
                    root_count_annulus(f, s2, s1, lo_open=True,
                                       hi_open=True) == n)
                total += 1
    assert total == 2 * sum(math.comb(len(grid) + n - 1, n)
                            for n in range(1, 6))
    report(4, f"annulus fibration membership == strict root location "
              f"({total} exhaustive cases)", time.monotonic() - t0)


def test_criterion_5_tree_model():
    t0 = time.monotonic()
    rng = random.Random(505)
    fld = PuiseuxField(0)
    for _ in range(500):
        big = []
        for _ in range(rng.randint(2, 6)):
            a = rand_puiseux(rng, fld)
            if not any((a - b).is_zero() for b in big):
                big.append(a)
        k = rng.randint(1, len(big))
        small = rng.sample(big, k)
        x = DiscPoint(rand_puiseux(rng, fld),
                      lv(Fraction(rng.randint(0, 8), rng.choice([1, 2])),
                         Fraction(rng.randint(-1, 1))))
        via = restrict_coords(coords(x, big), small)
        direct = coords(x, small)
        assert via.values == direct.values
        assert coords(x, big).check_tree_inequalities()
        sk = build_skeleton(big)
        assert sk.is_tree()
        assert len(sk.leaves) == len(big)
    report(5, "retraction compatibility, tree inequalities, and skeletons "
              "on 500 random triples", time.monotonic() - t0)


def test_criterion_6_kummer_vanishing():
    t0 = time.monotonic()
    rng = random.Random(606)
    fld = PuiseuxField(0)
    cases = 0
    for size in range(1, 9):
        for _ in range(3):
            centers = []
            while len(centers) < size:
                a = rand_puiseux(rng, fld, max_terms=2)
                if not any((a - b).is_zero() for b in centers):
                    centers.append(a)
            tree = HostTree.from_skeleton(build_skeleton(centers))
            for n in (2, 3, 4, 6):
                res = cohomology(kummer_sheaf(tree, n))
                assert res.H0 == () and res.H1 == ()
                cases += 1
    # extension by zero of Z/n across the half-open interval
    for n in (2, 3, 4, 6):
        interval = HostTree((0, 1), ((0, 1),), root=1)
        res = cohomology(shriek_extend(constant_sheaf(interval, n), {0}))
        assert res.H0 == () and res.H1 == ()
    report(6, f"branch sheaf and half-open-interval cohomology vanish "
              f"({cases} skeleton cases, n in 2,3,4,6)",
           time.monotonic() - t0, limit=10)


def _random_certified_function(rng, fld, centers, dom):
    roots, poles = [], []
    for c in centers:
        for _ in range(rng.randint(0, 2)):
            roots.append(c + fld.t(rng.randint(1, 3), rng.randint(1, 3)))
        for _ in range(rng.randint(0, 2)):
            poles.append(c + fld.t(rng.randint(1, 3), rng.randint(2, 3)))
    for _ in range(rng.randint(0, 2)):
        roots.append(fld.t(-rng.randint(2, 4)))
    num = Polynomial.from_roots(fld, roots) if roots \
        else Polynomial.from_coeffs(fld, [rng.randint(1, 5)])
    den = Polynomial.from_roots(fld, poles) if poles \
        else Polynomial.from_coeffs(fld, [1])
    return RationalFunction(num, den, num_roots=tuple(roots),
                            den_roots=tuple(poles))


def test_criterion_7_harmonicity():
    t0 = time.monotonic()
    rng = random.Random(707)
    fld = PuiseuxField(0)
    centers = [fld.zero(), fld.one(), fld.constant(2)]
    dom = Domain(fld.zero(), lv(-1), tuple(
        ExcludedDisc(c, lv(1), closed=True) for c in centers))
    for _ in range(200):
        f = _random_certified_function(rng, fld, centers, dom)
        # slopes at every type-2 vertex of the hull of the divisor support
        support = []
        for a in list(f.num_roots) + list(f.den_roots):
            if a.valuation_lower_bound() >= 0 and \
                    not any((a - b).is_zero() for b in support):
                support.append(a)
        sk = build_skeleton(support or [fld.zero()])
        for i, v in enumerate(sk.vertices):
            if classify(v).type != 2:
                continue
            slopes = direction_slopes(f, v)
            assert sum(slopes.values()) == 0
        degs = boundary_degrees(f, dom)
        assert sum(degs) + exterior_degree(f, dom) == 0
    report(7, "direction slopes and boundary degrees balance to zero "
              "(200 random functions)", time.monotonic() - t0, limit=5)


def test_criterion_8_char_poly_compatibility():
    t0 = time.monotonic()
    rng = random.Random(808)
    for trial in range(500):
        kind = trial % 3
        if kind == 0:
            fld, mk = PuiseuxField(3), rand_puiseux_nonzero
        elif kind == 1:
            fld, mk = PuiseuxField(0), rand_puiseux_nonzero
        else:
            fld, mk = PadicField(5), rand_padic_nonzero
        us = [mk(rng, fld) for _ in range(rng.randint(1, 6))]
        _, cls = char_poly_point(us)
        prod = unit_class(us[0])
        for u in us[1:]:
            prod = prod * unit_class(u)
        assert (cls.q, cls.res, cls.modulus) == (prod.q, prod.res, prod.modulus)
    report(8, "characteristic-polynomial class equals the product class "
              "(500 multisets)", time.monotonic() - t0)


def test_criterion_9_cancellation_splitting():
    t0 = time.monotonic()
    for fld in (PuiseuxField(2), PuiseuxField(3), PadicField(2), PadicField(3)):
        one = Polynomial.from_coeffs(fld, [fld.one()])
        g_t = RationalFunction(Polynomial.variable(fld), one,
                               num_roots=(fld.zero(),))
        g_1 = RationalFunction(one, one)
        for N in range(2, 51):
            m1 = y1_divisor(N, fld).total_mass
            assert m1 == N
            m2 = y2_divisor(g_t, N, UNIT_ANNULUS).total_mass
            assert m1 - m2 == 1
            section = SectionData(1, (SectionComponent("*", g_1, 1),))
            assert splitting_delta(section, N, UNIT_ANNULUS) == ()
    report(9, "mass(Y1) - mass(Y2) = 1 for 2 <= N <= 50 over four backends; "
              "trivial sections give zero", time.monotonic() - t0, limit=5)


def test_criterion_10_homotopy_decision():
    t0 = time.monotonic()
    rng = random.Random(1010)
    fld = PuiseuxField(0)
    dom = Domain(fld.zero(), lv(-1),
                 (ExcludedDisc(fld.zero(), lv(1), closed=False),))
    T = Polynomial.variable(fld)
    one = Polynomial.from_coeffs(fld, [fld.one()])
    for _ in range(200):
        k = rng.randint(0, 2)
        base_num = Polynomial.from_roots(fld, [fld.t(rng.randint(2, 4))
                                               for _ in range(k)])
        f0 = RationalFunction(base_num, one)
        def perturb(f):
            # 1 + sum c_i T^i with v(c_i) > i: a 1-unit on the domain whose
            # zeros all sit strictly outside it
            deg = rng.randint(1, 2)
            pert = Polynomial.from_coeffs(
                fld, [fld.one()] +
                [fld.t(i + rng.randint(1, 3), rng.randint(1, 3))
                 for i in range(1, deg + 1)])
            return RationalFunction(f.num * pert, f.den)
        f1 = perturb(f0)
        f2 = perturb(f1)
        assert homotopy_check(f0, f0, dom)
        assert homotopy_check(f0, f1, dom)
        assert homotopy_check(f1, f2, dom)
        assert homotopy_check(f0, f2, dom)
        assert boundary_degrees(f0, dom) == boundary_degrees(f2, dom)
        l0, l2 = leading_class(f0, dom), leading_class(f2, dom)
        assert (l0.w, l0.res_q, l0.res) == (l2.w, l2.res_q, l2.res)
        # and the decision is not constant: a class change must fail
        shifted = RationalFunction(f0.num * T, f0.den,
                                   num_roots=(fld.zero(),))
        assert not homotopy_check(f0, shifted, dom)
    report(10, "homotopy decision reflexive, transitive, class-preserving "
               "(200 trials)", time.monotonic() - t0)
