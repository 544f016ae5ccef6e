"""Gauss valuations and Newton polygons against the loops that compared one
log-value per term.

10,400 seeded polynomials over F_2, F_3, Q((t)) and Q_3, dense of degree
<= 8 or sparse of degree <= 40, with truncated coefficients (truncated zeros
O(t^p) included) on mixed exponent lattices.  Each is evaluated at finite
radii with eps parts of both signs and zero, and at +infinity.  Values, the
vertices, segments, ``mult0`` and ``degree`` must be equal to the
reference's, types included, and so must every error: its type, message and
witness index.  ``tests/test_witness_reference.py`` checks
``units.leading_class`` against a search over ``reference_gauss._unique_argmin``.
"""

import math
import random
from fractions import Fraction

import pytest

import reference_gauss as ref
from berkline import PadicField, Polynomial, PuiseuxField
from berkline.errors import BerkError
from berkline.gauss import gauss_valuation, newton_polygon
from berkline.logvalue import LogValue
from reference_logvalue import RefLogValue
from test_lattice_routes import rand_poly, rand_trunc

FIELDS = [PuiseuxField(2), PuiseuxField(3), PuiseuxField(0), PadicField(3)]
IDS = ["F2", "F3", "Q", "Q3"]
POLYS_PER_FIELD = 2600
S_Q = [Fraction(n, d) for n in range(-6, 9) for d in (1, 2, 3, 7)] + [
    Fraction(1, 1024), Fraction(-5, 1024), Fraction(3**20, 7)]
S_E = [Fraction(1), Fraction(1, 2), Fraction(3), Fraction(7, 1024)]


def _sparse(rng, fld):
    """Degree <= 40 with a handful of nonzero, possibly truncated, terms."""
    deg = rng.randint(1, 40)
    coeffs = [fld.zero()] * (deg + 1)
    for i in rng.sample(range(deg), min(deg, rng.randint(0, 3))) + [deg]:
        coeffs[i] = rand_trunc(rng, fld, nonzero=True)
    return Polynomial.from_coeffs(fld, coeffs)


def _poly(rng, fld):
    r = rng.random()
    if r < 0.02:
        return Polynomial.from_coeffs(fld, [fld.zero()])
    if r < 0.2:
        return _sparse(rng, fld)
    return rand_poly(rng, fld, rng.randint(0, 8), make=rand_trunc)


def _radii(rng):
    """(q, e) for one radius of each eps sign, and +infinity."""
    q = [rng.choice(S_Q) for _ in range(3)]
    e = rng.choice(S_E)
    return [(q[0], 0), (q[1], e), (q[2], -e), (math.inf, 0)]


def _value(x):
    if isinstance(x, (LogValue, RefLogValue)):
        return ("logvalue", type(x.q), x.q, type(x.e), x.e, str(x))
    return ("value", x)


def _polygon(np_):
    return ("polygon",
            tuple((type(i), i, type(v), v) for i, v in np_.vertices),
            tuple((type(s), s, type(w), w) for s, w in np_.segments),
            np_.mult0, np_.degree)


def _outcome(fn, shape, *args):
    try:
        return shape(fn(*args))
    except BerkError as exc:
        return ("raises", type(exc), str(exc), exc.witness)


@pytest.mark.parametrize("k", range(len(FIELDS)), ids=IDS)
def test_valuation_loops_match_the_reference(k):
    fld = FIELDS[k]
    rng = random.Random(16160 + k)
    seen = {"gauss raises": 0, "gauss value": 0, "eps value": 0,
            "polygon": 0, "polygon raises": 0, "witness > 0": 0}
    for _ in range(POLYS_PER_FIELD):
        f = _poly(rng, fld)
        for q, e in _radii(rng):
            s, rs = LogValue(q, e), RefLogValue(q, e)
            got = _outcome(gauss_valuation, _value, f, None, s)
            assert got == _outcome(ref.gauss_valuation, _value, f, None, rs), \
                (f, s)
            if got[0] == "raises":
                seen["gauss raises"] += 1
                seen["witness > 0"] += bool(got[3])
            else:
                seen["gauss value"] += 1
                seen["eps value"] += got[4] != 0
        got = _outcome(newton_polygon, _polygon, f)
        assert got == _outcome(ref.newton_polygon, _polygon, f), f
        seen["polygon raises" if got[0] == "raises" else "polygon"] += 1
    for key, n in seen.items():
        if key in ("witness > 0", "polygon raises",
                   "gauss raises") and isinstance(fld, PadicField):
            continue    # p-adic elements are never truncated
        assert n > 0, (key, seen)
