"""Seeded exact completions of truncated Puiseux data.

A truncated coefficient a + O(t^p) stands for every exact element a + c with
v(c) >= p.  ``complete_elem`` draws one: it keeps the known terms of a and
adds 0-3 terms at or above p, on lattices that need not be a's.  Drawing no
term gives the exact zero tail, so a truncated zero may complete to an exact
zero, a truncated leading coefficient included.  An exact element is its own
completion.  An answer on truncated data must equal the answer on every
completion, or the call must raise PrecisionExhausted.
"""

from __future__ import annotations

from fractions import Fraction

from berkline import Polynomial, RationalFunction

# offsets above the precision bound; 0 puts a term on the bound itself
OFFSETS = (Fraction(0), Fraction(0), Fraction(0), Fraction(1, 3),
           Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))


def _coefficient(rng, fld):
    if fld.char:
        return rng.randrange(1, fld.char)
    return rng.choice([1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)])


def complete_elem(rng, c):
    """An exact element that agrees with c below its precision."""
    if c.is_exact:
        return c
    fld = c.field
    extra = [(c.prec + rng.choice(OFFSETS), _coefficient(rng, fld))
             for _ in range(rng.randint(0, 3))]
    return fld.elem(list(c.terms) + extra)


def complete_poly(rng, g: Polynomial) -> Polynomial:
    """g with every coefficient completed; trailing zeros are dropped."""
    return Polynomial.from_coeffs(
        g.field, [complete_elem(rng, c) for c in g.coeffs], g.center)


def complete_function(rng, f: RationalFunction) -> RationalFunction:
    """num/den with both completed, without root lists: the lists of a
    truncated function name the roots of one completion at most.  A
    denominator that completes to zero is drawn again."""
    num = complete_poly(rng, f.num)
    while True:
        den = complete_poly(rng, f.den)
        if not den.is_zero():
            return RationalFunction(num, den)
