"""The keyed convolution kernel against the kernel it replaced.

``reference_kernel.poly_mul_modp`` is the former kernel, kept verbatim: one
dict and one sort per output coefficient, reduced mod p after every partial
product.  ``kernel.poly_mul_modp`` packs each term into one int key and
makes one pass.  The two must return the same three flat lists, exactly,
mod 2, 3 and 5 and over Z (p = 0), on seeded operands with empty
coefficient slots, operands without terms or without coefficients,
negative exponents, exponents near 2**41 on the lattice lcm(1024, 3), sums
that cancel, and the shapes of the benchmark's kernel layer.
"""

import random
from fractions import Fraction

import pytest

from berkline import kernel
from reference_kernel import poly_mul_modp as reference_mul

PRIMES = (0, 2, 3, 5)
LATTICE = 3072  # lcm(1024, 3)
SMALL = list(range(-7, 12))
# exponents near +-2**41 with denominators 1, 2, 3 and 1024, on LATTICE
WIDE = [int(s * Fraction(2**41 + k, d) * LATTICE)
        for s in (1, -1) for k in (-2, 0, 1, 5) for d in (1, 2, 3, 1024)]


def encode(coeffs):
    """The flat encoding of a list of {exponent: coefficient} maps."""
    counts, exps, cofs = [], [], []
    for c in coeffs:
        counts.append(len(c))
        for e in sorted(c):
            exps.append(e)
            cofs.append(c[e])
    return counts, exps, cofs


def coefficient(rng, p):
    if p:
        return rng.randint(1, p - 1)
    return rng.choice([-3, -1, 1, 2, 5, -(10**20 + 7), 3**40])


def operand(rng, p, exps, max_coeffs=6, max_terms=4):
    """Up to max_coeffs coefficients, each with 0 to max_terms terms."""
    return encode([
        {e: coefficient(rng, p)
         for e in rng.sample(exps, rng.randint(0, max_terms))}
        for _ in range(rng.randint(0, max_coeffs))])


def assert_same(f, g, p):
    got = kernel.poly_mul_modp(*f, *g, p)
    want = reference_mul(*f, *g, p)
    assert tuple(got) == tuple(want), (f, g, p)
    return got


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("pool", ["small", "wide", "mixed"])
def test_seeded_operands(p, pool):
    exps = {"small": SMALL, "wide": WIDE, "mixed": SMALL + WIDE}[pool]
    rng = random.Random(f"{pool}-{p}")
    empty_slots = 0
    for _ in range(300):
        f, g = operand(rng, p, exps), operand(rng, p, exps)
        empty_slots += f[0].count(0) + g[0].count(0)
        assert_same(f, g, p)
    assert empty_slots


@pytest.mark.parametrize("p", PRIMES)
def test_operands_without_terms(p):
    rng = random.Random(p)
    no_coefficients = ([], [], [])
    all_zero = ([0, 0, 0], [], [])
    for _ in range(30):
        f = operand(rng, p, SMALL + WIDE)
        for z in (no_coefficients, all_zero):
            assert_same(f, z, p)
            assert_same(z, f, p)
    for a in (no_coefficients, all_zero, ([0], [], [])):
        for b in (no_coefficients, all_zero, ([0], [], [])):
            assert_same(a, b, p)
    assert kernel.poly_mul_modp(*all_zero, *no_coefficients, p) == ([0, 0], [], [])


# (f, g, p, product): every product has a sum that cancels to 0, in one
# coefficient's terms or in a whole coefficient
CANCELLING = [
    # (1 + t)(1 - t) = 1 - t**2 over Z
    (encode([{0: 1, 1: 1}]), encode([{0: 1, 1: -1}]), 0,
     ([2], [0, 2], [1, -1])),
    # (1 + T)(1 - T) = 1 - T**2 over Z: coefficient 1 is empty
    (encode([{0: 1}, {0: 1}]), encode([{0: 1}, {0: -1}]), 0,
     ([1, 0, 1], [0, 0], [1, -1])),
    # (t**-3 + t**-2 T)(t**3 - t**4 T) = 1 - t**2 T**2 over Z
    (encode([{-3: 1}, {-2: 1}]), encode([{3: 1}, {4: -1}]), 0,
     ([1, 0, 1], [0, 2], [1, -1])),
    # (1 + T)**2 = 1 + T**2 mod 2
    (encode([{0: 1}, {0: 1}]), encode([{0: 1}, {0: 1}]), 2,
     ([1, 0, 1], [0, 0], [1, 1])),
    # (1 + 2t)(1 + t) = 1 + 2 t**2 mod 3
    (encode([{0: 1, 1: 2}]), encode([{0: 1, 1: 1}]), 3,
     ([2], [0, 2], [1, 2])),
    # (t + T)(4t + T) = 4t**2 + T**2 mod 5, at exponents near 2**41
    (encode([{WIDE[0]: 1}, {0: 1}]), encode([{WIDE[0]: 4}, {0: 1}]), 5,
     ([1, 0, 1], [2 * WIDE[0], 0], [4, 1])),
]


@pytest.mark.parametrize("f, g, p, product", CANCELLING)
def test_cancelling_sums(f, g, p, product):
    assert assert_same(f, g, p) == product


def benchmark_poly(rng, deg):
    """An F_3 polynomial shaped like the benchmark's kernel inputs: 1 to 3
    terms per coefficient, exponents in [0, 8] on the lattice (1/2)Z."""
    return encode([
        {int(Fraction(rng.randint(0, 8), rng.choice([1, 2])) * 2):
         rng.randint(1, 2) for _ in range(rng.randint(1, 3))}
        for _ in range(deg + 1)])


def test_benchmark_shapes():
    rng = random.Random(0)
    for _ in range(200):
        assert_same(benchmark_poly(rng, 8), benchmark_poly(rng, 8), 3)
    # a tower, each output fed back as the left operand; the height is cut
    # from the benchmark's 96 to keep the test short
    tower = benchmark_poly(rng, 6)
    g = tower
    for _ in range(12):
        g = assert_same(g, tower, 3)
    assert len(g[0]) == 6 * 13 + 1
