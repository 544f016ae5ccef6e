"""Earlier decision and counting code of ``berkline.units``: the test oracle.

``homotopy_check`` here walks every Newton-polygon breakpoint of v(h) on the
path to each hole, and ``exterior_degree`` counts roots beyond the bounding
disc.  Both are kept verbatim, with ``direction_slopes``, from before
homotopy was decided on the Shilov boundary.  Their disc counts without a
root list read a whole Newton hull, as they did then
(``reference_gauss.roots_in_disc``), not the supporting line.
``shilov_homotopy_check`` is the Shilov-boundary decision as it was before it
compared leading forms: it certifies f0 and f1 in full, forms h = f1/f0 - 1
by polynomial products and reads v(h) at each Shilov point with
``h_positive``, the point-level predicate.  ``tests/test_units_reference.py`` and ``tests/test_leading_forms.py``
check the library against them.

``leading_class`` is kept verbatim from while it searched for a radius
s + h*eps at which both sides have a unique argmin, apart from its
log-value class: it reads ``reference_gauss._unique_argmin`` and
``gauss_valuation`` with ``RefLogValue``, so it shares no supporting-line
code with the library.  ``_witness_disc`` is kept verbatim from while it
read the witness of a failed certification off a whole Newton hull.
``tests/test_witness_reference.py`` checks the library against both.

``_sides`` is the oracle's own copy of a helper that the library no longer
has, since its certification became one routine.

``certify_by_counts`` and ``slopes_by_counts`` are ``units._certify`` and
``units.direction_slopes`` kept verbatim from while they counted every
certified root once per disc they asked about (``units._count_in_disc``):
the bounding disc, then each hole; each direction's open disc, then the
closed disc.  ``tests/test_units_reference.py`` checks the one-pass
placement of the library against them.
"""

from __future__ import annotations

from fractions import Fraction

import reference_gauss
from berkline import units
from berkline.errors import NotCertified, VanishesOnDomain, ZeroElement
from berkline.gauss import gauss_valuation, newton_polygon
from berkline.logvalue import ZERO, LogValue
from berkline.points import DiscPoint, _dist, _within, classify
from berkline.poly import Polynomial, RationalFunction
from berkline.units import (Domain, LeadingClass, reduced_unit,
                            require_unit, unit_class)
from reference_logvalue import RefLogValue


def _sides(f: RationalFunction):
    """((num, its roots), (den, its roots)), each root list None unless f
    carries certified complete lists."""
    zeros, poles = f.certified_roots or (None, None)
    return (f.num, zeros), (f.den, poles)


def _count_in_disc(g: Polynomial, roots, center, s, closed=True) -> int:
    """``units._count_in_disc``, with a polynomial that has no root list
    counted by its Newton hull."""
    if roots is None:
        return reference_gauss.roots_in_disc(g, center, RefLogValue(s.q, s.e),
                                             closed)
    return units._count_in_disc(g, roots, center, s, closed)


def exterior_degree(f: RationalFunction, dom: Domain) -> int:
    """(zeros - poles) beyond the bounding disc, with the point at infinity
    contributing deg(den) - deg(num)."""
    def beyond(poly, roots):
        if roots is not None:
            return sum(1 for r in roots if _dist(r, dom.center) < dom.s)
        g = poly.recenter(dom.center)
        np_ = newton_polygon(g)
        return sum(w for sigma, w in np_.root_valuations()
                   if LogValue(sigma) < dom.s)

    (num, zeros), (den, poles) = _sides(f)
    return (beyond(num, zeros) - beyond(den, poles)) + (den.degree - num.degree)


def direction_slopes(f: RationalFunction, x: DiscPoint, directions=None):
    """Outgoing slopes of log|f| at a type-2 point, as zeros minus poles.

    Keys are "up" (the complement of the closed disc, infinity included),
    "dir:<center>" per direction center, and "other" for divisor mass at
    distance exactly s from the center that the given directions do not
    resolve.  Values always sum to zero.
    """
    if classify(x).type != 2:
        raise ValueError("direction slopes are defined at type-2 points")
    (num, zeros), (den, poles) = _sides(f)
    if directions is None:
        directions = list(f.num_roots) + list(f.den_roots)
        if f.num.degree > len(f.num_roots) or f.den.degree > len(f.den_roots):
            if f.num.degree > 0 or f.den.degree > 0:
                raise ValueError(
                    "directions must be supplied when root lists are partial"
                )
    # deduplicate direction centers: same direction iff within the open disc
    reps = []
    for b in directions:
        if _dist(b, x.center) < x.s:
            continue  # that direction is "up"
        if not any(_dist(b, r) > x.s for r in reps):
            reps.append(b)
    reps.sort(key=lambda b: b.canonical_str())

    def count(poly, roots, center, strict_inside):
        return _count_in_disc(poly, roots, center, x.s, not strict_inside)

    slopes = {}
    assigned_z = assigned_p = 0
    for b in reps:
        z = count(num, zeros, b, True)
        p = count(den, poles, b, True)
        assigned_z += z
        assigned_p += p
        slopes[f"dir:{b.canonical_str()}"] = z - p
    # "up" holds everything at distance < s from the center, plus infinity
    in_closed_z = count(num, zeros, x.center, False)
    in_closed_p = count(den, poles, x.center, False)
    up = ((f.num.degree - in_closed_z) - (f.den.degree - in_closed_p)
          + (f.den.degree - f.num.degree))
    slopes["up"] = up
    other = (in_closed_z - assigned_z) - (in_closed_p - assigned_p)
    if other:
        slopes["other"] = other
    return slopes


def homotopy_check(f0: RationalFunction, f1: RationalFunction,
                   dom: Domain) -> bool:
    """Exact decision of |f1/f0 - 1| < 1 everywhere on the domain.

    The difference h = f1/f0 - 1 has its minimum of v(h) over the domain on
    the convex hull of the boundary points; along each hull path v(h) is
    piecewise linear with breakpoints at Newton-polygon root valuations, so
    checking the finitely many breakpoints, endpoints, and eps-perturbed
    proxies of open endpoints decides the strict inequality exactly.
    """
    for f in (f0, f1):
        try:
            reduced_unit(f, dom)
        except VanishesOnDomain as exc:
            raise NotCertified(str(exc), witness=exc.witness) from exc
    c0 = dom.center
    n0, d0 = f0.num.recenter(c0), f0.den.recenter(c0)
    n1, d1 = f1.num.recenter(c0), f1.den.recenter(c0)
    h_num = n1 * d0 - n0 * d1
    h_den = n0 * d1
    if h_num.is_zero():
        return True
    zero = LogValue(Fraction(0))

    def positive(gn: Polynomial, gd: Polynomial, s: LogValue) -> bool:
        """v(h) > 0 at D(center, s), for gn/gd = h written at that center."""
        return gauss_valuation(gn, None, s) - gauss_valuation(gd, None, s) > zero

    # bounding point is part of the (closed) domain; h is written at c0
    if not positive(h_num, h_den, dom.s):
        return False

    for d in dom.excluded:
        gn, gd = h_num.recenter(d.center), h_den.recenter(d.center)
        np_n, np_d = newton_polygon(gn), newton_polygon(gd)
        sigmas = [LogValue(sigma) for np_ in (np_n, np_d)
                  for sigma, _ in np_.root_valuations()]
        breaks = {lv for lv in sigmas if dom.s < lv < d.s}
        for lv in breaks:
            if not positive(gn, gd, lv):
                return False
        if d.s.is_infinite:
            # half-open ray toward a removed classical point: positivity at a
            # witness depth plus a nonnegative terminal slope
            finite = [lv for lv in sigmas if lv > dom.s] or [dom.s]
            smax = max(finite)
            probe = LogValue(smax.q + 1, smax.e)
            if not positive(gn, gd, probe):
                return False
            if np_n.mult0 - np_d.mult0 < 0:
                return False
        elif d.closed:
            proxy = LogValue(d.s.q, d.s.e - 1)
            if not positive(gn, gd, proxy):
                return False
        else:
            if not positive(gn, gd, d.s):
                return False
    return True


def h_positive(n0: Polynomial, d0: Polynomial, n1: Polynomial,
               d1: Polynomial, s: LogValue) -> bool:
    """v(h) > 0 at radius s around the center the four polynomials are
    written at, for h = n1 d0 / (n0 d1) - 1, read from h by products.

    At s = +infinity this is the puncture rule: v(h)(zeta(a, S)) > 0 for all
    large S, read from the first Newton-polygon vertices of h's numerator
    and denominator.
    """
    h_num = n1 * d0 - n0 * d1
    h_den = n0 * d1
    if h_num.is_zero():
        return True
    if s.is_infinite:
        (i_n, v_n), (i_d, v_d) = (newton_polygon(g).vertices[0]
                                  for g in (h_num, h_den))
        return (i_n - i_d, v_n - v_d) > (0, 0)
    return gauss_valuation(h_num, None, s) - gauss_valuation(h_den, None, s) > ZERO


def shilov_homotopy_check(f0: RationalFunction, f1: RationalFunction,
                          dom: Domain) -> bool:
    """``units.homotopy_check`` as it was before it compared leading forms:
    f0 and f1 certified in full, then v(h) > 0 at the bounding point and at
    one point per hole, with h formed once at the bounding center."""
    for f in (f0, f1):
        require_unit(f, dom)
    c0 = dom.center
    n0, d0 = f0.num.recenter(c0), f0.den.recenter(c0)
    n1, d1 = f1.num.recenter(c0), f1.den.recenter(c0)
    h_num = n1 * d0 - n0 * d1
    h_den = n0 * d1
    if h_num.is_zero():
        return True

    def positive(center, s: LogValue) -> bool:
        """v(h) > 0 at the disc point D(center, s)."""
        return (gauss_valuation(h_num, center, s)
                - gauss_valuation(h_den, center, s)) > ZERO

    if not positive(None, dom.s):  # h is already written at c0
        return False
    for d in dom.excluded:
        if d.s.is_infinite:
            (i_n, v_n), (i_d, v_d) = (
                newton_polygon(g.recenter(d.center)).vertices[0]
                for g in (h_num, h_den))
            if not (i_n - i_d, v_n - v_d) > (0, 0):
                return False
        elif not positive(d.center, LogValue(d.s.q, d.s.e - 1)
                          if d.closed else d.s):
            return False
    return True


def leading_class(f: RationalFunction, dom: Domain) -> LeadingClass:
    """Class of f at an eps-perturbed bounding point; ties broken exactly."""
    c0 = dom.center
    num = f.num.recenter(c0)
    den = f.den.recenter(c0)
    h = Fraction(1)
    while True:
        proxy = RefLogValue(dom.s.q if not dom.s.is_infinite else Fraction(0),
                            dom.s.e + h if not dom.s.is_infinite else Fraction(1))
        iN = reference_gauss._unique_argmin(num, proxy)
        iD = reference_gauss._unique_argmin(den, proxy)
        if iN is not None and iD is not None:
            break
        h /= 2
    w = (reference_gauss.gauss_valuation(num, None, RefLogValue(dom.s.q, dom.s.e))
         - reference_gauss.gauss_valuation(den, None, RefLogValue(dom.s.q, dom.s.e))) \
        if not dom.s.is_infinite else None
    cn = unit_class(num.coeffs[iN])
    cd = unit_class(den.coeffs[iD])
    ratio = cn * cd.inverse()
    return LeadingClass(w, ratio.q, ratio.res, ratio.modulus)


def _witness_disc(poly: Polynomial, dom: Domain, which: str):
    g = poly.recenter(dom.center)
    np_ = newton_polygon(g)
    for sigma, _ in np_.root_valuations():
        if LogValue(sigma) >= dom.s:
            return {
                "which": which,
                "center": dom.center.canonical_str(),
                "s": str(sigma),
            }
    return {"which": which, "center": dom.center.canonical_str(), "s": "inf"}


def certify_by_counts(f: RationalFunction, dom: Domain, error, at=None,
                      sides=("num", "den")):
    """``units._certify`` counting each side in the bounding disc, then in
    every hole, one pass over its roots per disc."""
    if f.is_zero():
        raise ZeroElement("the zero function is not a unit anywhere")
    lists = f.certified_roots or (None, None)
    out = []
    for which, poly, roots in zip(("num", "den"), (f.num, f.den), lists):
        if which not in sides:
            continue
        total = units._count_in_disc(poly, roots, dom.center, dom.s, at=at)
        holes = tuple(units._count_in_disc(poly, roots, d.center, d.s,
                                           d.closed, at)
                      for d in dom.excluded)
        n = total - sum(holes)
        if n > 0:
            g = poly if at is None else at(poly, dom.center)
            raise error(f"{which} has {n} root(s) on the domain",
                        witness=units._witness_disc(g, dom, which))
        out.append(holes)
    return out


def slopes_by_counts(f: RationalFunction, x: DiscPoint, directions=None):
    """``units.direction_slopes`` counting the roots once per direction and
    once more for the closed disc."""
    if classify(x).type != 2:
        raise ValueError("direction slopes are defined at type-2 points")
    f.certified_roots  # a wrong root list raises before directions are read
    if directions is None:
        directions = list(f.num_roots) + list(f.den_roots)
        if f.num.degree > len(f.num_roots) or f.den.degree > len(f.den_roots):
            raise ValueError(
                "directions must be supplied when root lists are partial")
    # deduplicate direction centers: same direction iff within the open disc
    reps = []
    for b in directions:
        if not _within(b, x.center, x.s):
            continue  # that direction is "up"
        if not any(_within(b, r, x.s, False) for r in reps):
            reps.append(b)
    named = sorted([(b.canonical_str(), b) for b in reps], key=lambda nb: nb[0])

    slopes = {f"dir:{name}": units._degree_in(f, b, x.s, False)
              for name, b in named}
    inside = units._degree_in(f, x.center, x.s)
    other = inside - sum(slopes.values())
    slopes["up"] = -inside
    if other:
        slopes["other"] = other
    return slopes
