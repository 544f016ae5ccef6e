"""Exact F_p products through the integer-lattice kernel route."""

import random
from fractions import Fraction

from berkline import Polynomial, PuiseuxField
from berkline import poly as poly_mod


def reference_poly_mul(f, g):
    """Independent convolution via plain field arithmetic."""
    fld = f.field
    out = [fld.zero()] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, ci in enumerate(f.coeffs):
        for j, cj in enumerate(g.coeffs):
            out[i + j] = out[i + j] + ci * cj
    return Polynomial.from_coeffs(fld, out, f.center)


def test_fast_path_matches_reference():
    rng = random.Random(78)
    for char in (2, 3, 5):
        fld = PuiseuxField(char)
        for _ in range(40):
            def mk():
                deg = rng.randint(0, 6)
                return Polynomial.from_coeffs(fld, [
                    fld.elem([(Fraction(rng.randint(0, 8), rng.choice([1, 2, 3])),
                               rng.randint(1, char - 1))
                              for _ in range(rng.randint(0, 3))])
                    for _ in range(deg + 1)])

            f, g = mk(), mk()
            if f.is_zero() or g.is_zero():
                continue
            assert (f * g).coeffs == reference_poly_mul(f, g).coeffs
    # lattices far above 512 (lcm(1024, 3) here) and exponents far above
    # 2**40 / lattice, which once sent products to the generic route
    wide = [Fraction(1, 1024), Fraction(2, 3), Fraction(-5, 3), Fraction(0),
            Fraction(2**40), Fraction(2**41 + 1, 1024), Fraction(3**30, 7)]
    for char in (2, 3, 5):
        fld = PuiseuxField(char)
        for _ in range(20):
            def mk():
                return Polynomial.from_coeffs(fld, [
                    fld.elem([(rng.choice(wide), rng.randint(1, char - 1))
                              for _ in range(rng.randint(1, 3))])
                    for _ in range(rng.randint(1, 4))])

            f, g = mk(), mk()
            if f.is_zero() or g.is_zero():
                continue
            fast = poly_mod._try_kernel_mul(f, g)
            assert fast is not None
            assert fast.coeffs == reference_poly_mul(f, g).coeffs


def test_power_tower_consistency():
    fld = PuiseuxField(3)
    f = Polynomial.from_coeffs(fld, [fld.one(), fld.t(Fraction(1, 2)), fld.t(1, 2)])
    g = f * f * f * f
    assert g.coeffs == (f ** 4).coeffs


def test_parallel_use_is_safe():
    # all values are immutable and operations pure; hammer the hot path from
    # several threads and compare against the sequential result
    import concurrent.futures as cf
    from fractions import Fraction as Fr

    from berkline import PuiseuxField, Polynomial, gauss_valuation, LogValue

    fld = PuiseuxField(3)
    rng = random.Random(31337)
    polys = []
    for _ in range(40):
        coeffs = [fld.elem([(Fr(rng.randint(0, 6), rng.choice([1, 2])),
                             rng.randint(1, 2))
                            for _ in range(rng.randint(1, 3))])
                  for _ in range(rng.randint(1, 7))]
        polys.append(Polynomial.from_coeffs(fld, coeffs))
    polys = [f for f in polys if not f.is_zero()]

    def work(i):
        f = polys[i % len(polys)]
        g = polys[(i * 7 + 3) % len(polys)]
        return gauss_valuation(f * g, fld.zero(), LogValue(Fr(1, 2)))

    sequential = [work(i) for i in range(200)]
    with cf.ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(work, range(200)))
    assert parallel == sequential
