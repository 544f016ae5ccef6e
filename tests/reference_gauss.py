"""The valuation loops of ``berkline.gauss`` and ``berkline.units`` as they
were while they compared one log-value per term, and the root counts as they
were while they read a whole Newton hull: the test oracle.

They read the points (i, v(c_i)) off the elements with their own
``coeff_values``, which ``tests/test_root_counts_reference.py`` and
``tests/test_witness_reference.py`` also call.
``gauss_valuation``, ``newton_polygon`` with ``_polygon``, ``_lower_hull``
and ``_hull_height``, and ``_unique_argmin`` are kept verbatim apart from
their log-value class, the dataclass ``RefLogValue``.  They build a
log-value or a ``Fraction`` for every term and share no arithmetic with the
library's int-lattice loops; ``tests/test_gauss_reference.py`` checks the
library against them, and ``reference_units.leading_class`` searches with
``_unique_argmin``.  ``root_count_annulus`` with ``_in_interval``, and
``roots_in_disc``, are kept verbatim from before counts were read off the
supporting line: they sum the widths of the hull's segments in the interval.
``tests/test_root_counts_reference.py`` checks the library against them.

``element_coeff_values`` with ``classify`` is the point reader the library
kept for polynomials built from elements before every polynomial was read
through its flat form: the points of ``gauss._coeff_values``, each read off
its element, on that element's own lattice and denominator.
``tests/test_lattice_routes.py`` checks the flat readers against it, and
``reference_cancel`` builds the sparse polygon of ``cancel.y2_divisor``
with ``classify``.
"""

from __future__ import annotations

from fractions import Fraction

from berkline.errors import PrecisionExhausted, ZeroPolynomial
from berkline.field import PadicElem, _vp
from berkline.gauss import NewtonPolygon
from berkline.poly import Polynomial
from reference_logvalue import (REF_INFINITY as INFINITY, REF_ZERO as ZERO,
                                RefLogValue as LogValue,
                                ref_as_logvalue as as_logvalue)


def coeff_values(f: Polynomial, a=None):
    """(index, valuation) for the provably nonzero coefficients of f,
    recentered at a if given, and (index, prec) for its truncated zeros;
    exact zeros are skipped.  Read off the elements, not the library's
    point lists."""
    known, unknown = [], []
    for i, c in enumerate((f if a is None else f.recenter(a)).coeffs):
        if not c.is_exact and not c:
            unknown.append((i, c.prec))
        elif not c.is_zero():
            known.append((i, c.valuation()))
    return known, unknown


def element_coeff_values(f: Polynomial, a=None):
    """``gauss._coeff_values`` of f, recentered at a if given, read off the
    elements: ``classify`` of its coefficients."""
    return classify(enumerate((f if a is None else f.recenter(a)).coeffs))


def classify(terms):
    """``_coeff_values``' two lists from the elements ``terms`` yields as
    (index, coefficient) in increasing index; exact zeros are skipped."""
    known, unknown = [], []
    for i, c in terms:
        if c.is_zero():
            continue
        if type(c) is PadicElem:
            p = c.field.p
            known.append((i, _vp(c.num, p) - _vp(c.den, p), 1, c.num, c.den))
        elif c.exps:
            known.append((i, c.exps[0], c.den, c.nums[0], c.cden))
        else:
            unknown.append((i, c.prec.numerator, c.prec.denominator))
    return known, unknown


def gauss_valuation(f: Polynomial, a=None, s=ZERO) -> LogValue:
    """Valuation of f at the disc point D(a, 2**(-s)); +infinity for f = 0."""
    s = as_logvalue(s)
    known, unknown = coeff_values(f, a)
    if not known and not unknown:
        return INFINITY
    best = None
    for i, v in known:
        w = LogValue(v) + s.scale(i)
        if best is None or w < best:
            best = w
    for i, p in unknown:
        lb = LogValue(p) + s.scale(i)
        if best is None or lb < best:
            raise PrecisionExhausted(
                f"coefficient {i} is only known below t^{p}", witness=i
            )
    return best


def newton_polygon(f: Polynomial) -> NewtonPolygon:
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial has no Newton polygon")
    known, unknown = coeff_values(f)
    return _polygon(known, unknown, f.degree)


def _polygon(known, unknown, degree) -> NewtonPolygon:
    """The Newton polygon of the classified points of a nonzero polynomial."""
    if not known:
        raise PrecisionExhausted("all coefficients below their precision bounds")
    pts = sorted(known)
    hull = _lower_hull(pts)
    # a truncated-zero coefficient is tolerable only strictly inside the known
    # index range and with its bound at or above the hull there; anywhere else
    # it could change mult0, the degree, or cut the hull
    for i, p in unknown:
        if i < hull[0][0] or i > hull[-1][0] or Fraction(p) < _hull_height(hull, i):
            raise PrecisionExhausted(
                f"coefficient {i} known only below t^{p} could cut the hull",
                witness=i,
            )
    mult0 = pts[0][0]
    segments = []
    for (i1, v1), (i2, v2) in zip(hull, hull[1:]):
        segments.append((Fraction(v2 - v1, i2 - i1), i2 - i1))
    return NewtonPolygon(tuple(hull), tuple(segments), mult0, degree)


def _lower_hull(pts):
    """Monotone chain; collinear interior points are dropped."""
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _hull_height(hull, x):
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x1 <= x <= x2:
            return Fraction(y1) + Fraction(y2 - y1, x2 - x1) * (x - x1)
    return Fraction(hull[0][1])


def _unique_argmin(g: Polynomial, s: LogValue):
    best = None
    best_i = None
    tie = False
    for i, c in enumerate(g.coeffs):
        if c.is_zero():
            continue
        w = LogValue(c.valuation()) + s.scale(i)
        if best is None or w < best:
            best, best_i, tie = w, i, False
        elif w == best:
            tie = True
    return None if tie else best_i


def root_count_annulus(f: Polynomial, s_lo=None, s_hi=INFINITY,
                       lo_open: bool = False, hi_open: bool = False) -> int:
    """Number of roots, with multiplicity, whose valuation lies in the interval.

    ``s_lo = None`` means unbounded below.  The root at the center itself has
    valuation +infinity and is counted exactly when the interval reaches a
    closed +infinity end.
    """
    if f.is_zero():
        raise ZeroPolynomial("root counting on the zero polynomial")
    np_ = newton_polygon(f)
    lo = None if s_lo is None else as_logvalue(s_lo)
    hi = as_logvalue(s_hi)
    if lo is not None and lo > hi:
        raise ValueError("empty interval: s_lo > s_hi")
    count = 0
    for sigma, width in np_.root_valuations():
        if _in_interval(LogValue(sigma), lo, hi, lo_open, hi_open):
            count += width
    if np_.mult0 and _in_interval(INFINITY, lo, hi, lo_open, hi_open):
        count += np_.mult0
    return count


def _in_interval(x: LogValue, lo, hi, lo_open, hi_open) -> bool:
    if lo is not None:
        if x < lo or (lo_open and x == lo):
            return False
    if x > hi or (hi_open and x == hi):
        return False
    return True


def roots_in_disc(f: Polynomial, center, s, closed: bool = True) -> int:
    """Roots z with v(z - center) >= s (closed) or > s (open), incl. z = center."""
    if f.is_zero():
        raise ZeroPolynomial("root counting on the zero polynomial")
    g = f.recenter(center)
    return root_count_annulus(g, s_lo=s, s_hi=INFINITY, lo_open=not closed)
