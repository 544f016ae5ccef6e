"""Exact products through the integer-lattice kernel route."""

import random
from fractions import Fraction

from berkline import PadicField, Polynomial, PuiseuxField
from berkline import poly as poly_mod
from reference_padic import RefPadicField
from reference_puiseux import RefPuiseuxField


def reference_poly_mul(f, g):
    """Independent convolution with the Fraction-based reference elements.

    ``RefPuiseuxField`` and ``RefPadicField`` share no code with the integer
    exponent lattice and int numerators that both the elements and the
    kernel route use.  Returns the product's coefficients as ``view``s,
    trailing zeros removed.
    """
    if isinstance(f.field, PadicField):
        ref = RefPadicField(f.field.p)
        lift = lambda c: ref.elem(c.value)
    else:
        ref = RefPuiseuxField(f.field.char)
        lift = lambda c: ref.elem(c.terms, c.prec)
    out = [ref.constant(0)] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, ci in enumerate(f.coeffs):
        for j, cj in enumerate(g.coeffs):
            out[i + j] = out[i + j] + lift(ci) * lift(cj)
    while out and out[-1].is_zero():
        out.pop()
    return [view(c) for c in out]


def view(c):
    """A Puiseux coefficient as (terms, prec), a p-adic one as its value."""
    return (c.terms, c.prec) if hasattr(c, "terms") else c.value


def coeff_view(f):
    return [view(c) for c in f.coeffs]


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
            assert coeff_view(f * g) == reference_poly_mul(f, g)
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
            assert coeff_view(fast) == reference_poly_mul(f, g)
    # over Z (the kernel's p = 0): Q((t)) against RefPuiseuxField(0), on the
    # same exponents with signed coefficients whose sums can cancel, and Q_3
    # against RefPadicField(3), with zeros and 3-adic units and non-units
    q, q3 = PuiseuxField(0), PadicField(3)
    exps = wide + [Fraction(n, d) for n in range(-3, 9) for d in (1, 2, 3)]
    cofs = [1, -1, 2, -3, Fraction(1, 2), Fraction(-7, 3), Fraction(5, 3**20),
            Fraction(10**20 + 7, 11)]
    nums = [0, 1, -1, 2, -3, 9, 10**20 + 3, -(3**25)]
    dens = [1, 2, 3, 27, 10**12 + 39]

    def mk_q():
        return Polynomial.from_coeffs(q, [
            q.elem([(rng.choice(exps), rng.choice(cofs))
                    for _ in range(rng.randint(0, 3))])
            for _ in range(rng.randint(1, 7))])

    def mk_q3():
        return Polynomial.from_coeffs(q3, [
            q3.elem(Fraction(rng.choice(nums), rng.choice(dens)))
            for _ in range(rng.randint(1, 7))])

    for mk in (mk_q, mk_q3):
        for _ in range(60):
            f, g = mk(), mk()
            if f.is_zero() or g.is_zero():
                continue
            assert coeff_view(f * g) == reference_poly_mul(f, g)


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
