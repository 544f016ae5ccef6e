"""The decision and counting code of ``berkline.units`` as it was before
homotopy was decided on the Shilov boundary: the test oracle.

``homotopy_check`` here walks every Newton-polygon breakpoint of v(h) on the
path to each hole, and ``exterior_degree`` counts roots beyond the bounding
disc.  Both are kept verbatim, with ``direction_slopes``;
``tests/test_units_reference.py`` checks the library against them.
"""

from __future__ import annotations

from fractions import Fraction

from berkline.errors import NotCertified, VanishesOnDomain
from berkline.gauss import gauss_valuation, newton_polygon
from berkline.logvalue import LogValue
from berkline.points import DiscPoint, _dist, classify
from berkline.poly import Polynomial, RationalFunction
from berkline.units import Domain, _count_in_disc, _sides, reduced_unit


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
