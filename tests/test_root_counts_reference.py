"""Root counts from the supporting line against the Newton-hull counts.

``reference_gauss`` keeps ``root_count_annulus`` and ``roots_in_disc`` as
they were while they summed the widths of a whole Newton hull.  Seeded
polynomials over Q((t)), F_2((t)), F_3((t)) and Q_3, exact and truncated
(truncated zeros O(t^p) included), are counted in 12,480 queries: closed and
open discs at the polynomial's center and at other centers, annuli with
``s_lo = None``, with lo == hi and one or both ends open, and with lo > hi.
Radii are finite with eps parts of both signs and zero, often on a slope of
the polynomial, or +infinity.

- Where the reference answers, the library gives the same count.
- Where the reference raises PrecisionExhausted (an unknown coefficient
  could cut the hull, however far from the radius), the library raises it
  too, or answers; each such answer equals the reference's count on 8 exact
  completions of the polynomial (``completion.py``).
- Where the reference raises anything else, the library raises the same
  type.  A lo > hi interval raises ValueError, before any hull or line.
"""

import math
import random
from fractions import Fraction

import pytest

import reference_gauss as ref
from completion import complete_poly
from berkline import PadicField, Polynomial, PuiseuxField
from berkline.errors import BerkError, PrecisionExhausted
from berkline.gauss import root_count_annulus, roots_in_disc
from berkline.logvalue import LogValue
from reference_logvalue import RefLogValue
from test_lattice_routes import EXPONENTS, rand_elem, rand_poly, rand_trunc

FIELDS = {
    "Q((t))": PuiseuxField(0),
    "F_2((t))": PuiseuxField(2),
    "F_3((t))": PuiseuxField(3),
    "Q_3": PadicField(3),
}
POLYS_PER_FIELD = 1560  # two queries each: 12,480 cases over the four fields
EPS = [Fraction(0), Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)]
CUTS = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2)]


def _poly(rng, fld):
    """Dense of degree <= 7, or a product of linear factors (its hull has
    several slopes and a root at the center), truncated at random."""
    if rng.random() < 0.5:
        return rand_poly(rng, fld, rng.randint(0, 7), make=rand_trunc)
    exps = range(-2, 4) if isinstance(fld, PadicField) else EXPONENTS
    roots = [fld.zero() if rng.random() < 0.2 else
             fld.t(rng.choice(exps), 1 + rng.randrange(2))
             for _ in range(rng.randint(1, 5))]
    f = Polynomial.from_roots(fld, roots)
    return Polynomial(f.center, tuple(_blur(rng, c) for c in f.coeffs))


def _blur(rng, c):
    """c, or c known to a few terms past its valuation, or a random and
    often truncated element; p-adic elements stay exact."""
    r = rng.random()
    if r < 0.15:
        return rand_trunc(rng, c.field, True)
    if r < 0.4 and c and isinstance(c.field, PuiseuxField):
        return c.truncated(c.valuation() + rng.choice(CUTS))
    return c


def _radius(rng, g):
    """(q, e): q on a slope between two points of g, or at random; often
    +infinity."""
    if rng.random() < 0.12:
        return math.inf, 0
    known, unknown = ref.coeff_values(g)
    pts = known + unknown
    if len(pts) >= 2 and rng.random() < 0.7:
        (i, v), (j, w) = rng.sample(pts, 2)
        q = Fraction(v - w, j - i)
    else:
        q = rng.choice(EXPONENTS)
    return q, rng.choice(EPS)


def _pair(q, e):
    return LogValue(q, e), RefLogValue(q, e)


def _outcome(fn, *args, **kw):
    try:
        return fn(*args, **kw)
    except (BerkError, ValueError) as exc:
        return type(exc)


def _disc_query(rng, fld, f):
    center = f.center if rng.random() < 0.5 else rand_elem(rng, fld)
    closed = rng.random() < 0.5
    s, rs = _pair(*_radius(rng, f.recenter(center)))
    kind = ("closed" if closed else "open") + (" +inf" if s.is_infinite else
                                              " eps" if s.e else "")
    return (kind,
            lambda: roots_in_disc(f, center, s, closed),
            lambda h: ref.roots_in_disc(h, center, rs, closed))


def _annulus_query(rng, fld, f):
    (lo, rlo), (hi, rhi) = sorted(_pair(*_radius(rng, f)) for _ in range(2))
    r = rng.random()
    if r < 0.2:
        lo = rlo = None
    elif r < 0.4:
        hi, rhi = lo, rlo
    elif r < 0.43:
        lo, rlo, hi, rhi = hi, rhi, lo, rlo
    lo_open, hi_open = rng.random() < 0.5, rng.random() < 0.5
    kind = ("s_lo=None" if lo is None else "lo > hi" if lo > hi else
            "lo == hi" if lo == hi else "annulus")
    if lo is not None and lo == hi and (lo_open or hi_open):
        kind += ", an end open"
    return (kind,
            lambda: root_count_annulus(f, lo, hi, lo_open, hi_open),
            lambda h: ref.root_count_annulus(h, rlo, rhi, lo_open, hi_open))


@pytest.mark.parametrize("name", FIELDS)
def test_counts_match_the_hull(name):
    fld = FIELDS[name]
    rng = random.Random(f"root-counts/{name}")
    seen = {}
    new_answers = 0
    for _ in range(POLYS_PER_FIELD):
        f = _poly(rng, fld)
        for query in (_disc_query, _annulus_query):
            kind, new, old = query(rng, fld, f)
            got, want = _outcome(new), _outcome(old, f)
            seen[kind] = seen.get(kind, 0) + 1
            if isinstance(want, int):
                assert got == want, (kind, f)
            elif kind == "lo > hi":
                assert got is ValueError and want in (ValueError,
                                                      PrecisionExhausted), f
            elif want is PrecisionExhausted and isinstance(got, int):
                new_answers += 1
                for _ in range(8):
                    assert old(complete_poly(rng, f)) == got, (kind, f)
            else:
                assert got is want, (kind, f)
    print(f"{name}: {sum(seen.values())} cases, {new_answers} answered where "
          f"the hull raised PrecisionExhausted; {seen}")
    for kind in ("closed", "open", "closed eps", "open eps", "closed +inf",
                 "open +inf", "s_lo=None", "lo == hi", "lo == hi, an end open",
                 "lo > hi", "annulus"):
        assert seen.get(kind), (kind, seen)
    if isinstance(fld, PuiseuxField):
        assert new_answers > 0
