"""Reduced units C^x/(1 + C_{<1}) and divisor-level calculus on domains.

A domain here is a closed bounding disc minus finitely many pairwise disjoint
excluded discs (each open or closed).  Certification that a rational function
is a unit on a domain, boundary degrees, direction slopes at type-2 points and
the 1-unit homotopy decision all reduce to counting roots in discs and to
Gauss valuations: counted from certified complete root lists when present,
else by Newton polygons after recentering, so every answer is exact; no roots
are ever computed.

Two facts keep this finite.  The divisor of a rational function on P^1 has
degree 0, so what lies beyond a closed disc (infinity included) is minus what
lies inside it: ``exterior_degree`` and the "up" slope count only inside.  And
a function without poles on a Berkovich affinoid takes its maximum modulus on
the Shilov boundary (Berkovich 1990), here the bounding Gauss point and one
boundary point per hole: ``homotopy_check`` evaluates v(h) there and nowhere
inside the domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (BadDomain, NotCertified, PrecisionExhausted,
                     VanishesOnDomain, ZeroElement)
from .field import PadicElem, PuiseuxElem
from .gauss import (_classify, _supporting_line, gauss_valuation, newton_polygon,
                    roots_in_disc)
from .logvalue import ZERO, LogValue, as_logvalue
from .points import DiscPoint, _dist, classify
from .poly import Polynomial, RationalFunction


@dataclass(frozen=True)
class UnitClass:
    """Image of a nonzero element in (value group) x (residue units).

    ``modulus`` is the residue characteristic; 0 means the residue units are
    Q^x (rational-coefficient puiseux backend), else integers mod p.
    """

    q: Fraction
    res: object
    modulus: int

    def __mul__(self, other):
        if self.modulus != other.modulus:
            raise ValueError("unit classes over different residue fields")
        if self.modulus:
            res = (self.res * other.res) % self.modulus
        else:
            res = self.res * other.res
        return UnitClass(self.q + other.q, res, self.modulus)

    def inverse(self):
        res = pow(self.res, -1, self.modulus) if self.modulus else 1 / self.res
        return UnitClass(-self.q, res, self.modulus)

    @property
    def is_identity(self) -> bool:
        return self.q == 0 and self.res == 1


def unit_class(c) -> UnitClass:
    """The class of a nonzero field element; 1-units map to the identity."""
    if c.is_zero():
        raise ZeroElement("the zero element has no unit class")
    if isinstance(c, PuiseuxElem):
        if not c.exps:
            raise PrecisionExhausted("element known only below its precision")
        return UnitClass(c.valuation(), c.coefs[0], c.field.char)
    if isinstance(c, PadicElem):
        p = c.field.p
        v = int(c.valuation())
        num, den = c.num, c.den
        if v > 0:
            num //= p ** v
        elif v < 0:
            den //= p ** -v
        res = (num % p) * pow(den % p, -1, p) % p
        return UnitClass(Fraction(v), res, p)
    raise TypeError(f"not a field element: {c!r}")


def char_poly_point(units) -> tuple:
    """Characteristic polynomial of a multiset of units and the product class.

    Returns (monic Polynomial with the units as roots, UnitClass of the
    product); the class of (-1)^n a_0 equals the product of the unit classes.
    """
    units = list(units)
    if not units:
        raise ZeroElement("need at least one unit")
    for u in units:
        if u.is_zero():
            raise ZeroElement("0 is not a unit")
    fld = units[0].field
    poly = Polynomial.from_roots(fld, units)
    a0 = poly.coeffs[0]
    signed = a0 if len(units) % 2 == 0 else -a0
    return poly, unit_class(signed)


@dataclass(frozen=True)
class ExcludedDisc:
    center: object
    s: LogValue
    closed: bool = True

    def __post_init__(self):
        object.__setattr__(self, "s", as_logvalue(self.s))
        if self.s.is_infinite and not self.closed:
            raise BadDomain("an open disc of radius zero excludes nothing")


def _meet(di: ExcludedDisc, dj: ExcludedDisc) -> bool:
    """Whether two excluded discs share a point.

    With d = v(ci - cj) and m = min(si, sj), the smaller disc's center lies
    in the larger disc's interior when d > m, so they meet; when d = m they
    meet exactly when a disc of radius m is closed (its boundary circle holds
    the other center, or the other disc's boundary points); when d < m they
    are apart.
    """
    d, m = _dist(di.center, dj.center), min(di.s, dj.s)
    return d > m or (d == m and any(x.closed for x in (di, dj) if x.s == m))


@dataclass(frozen=True)
class Domain:
    """Closed disc v(z - center) >= s minus pairwise disjoint excluded discs."""

    center: object
    s: LogValue
    excluded: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "s", as_logvalue(self.s))
        object.__setattr__(self, "excluded", tuple(self.excluded))
        for d in self.excluded:
            if not d.s > self.s:
                raise BadDomain("excluded disc must be strictly smaller")
            if not _dist(d.center, self.center) >= self.s:
                raise BadDomain("excluded disc center outside the bounding disc")
        for i in range(len(self.excluded)):
            for j in range(i + 1, len(self.excluded)):
                di, dj = self.excluded[i], self.excluded[j]
                if _meet(di, dj):
                    raise BadDomain(f"excluded discs {i} and {j} are not disjoint")

    @property
    def field(self):
        return self.center.field


def _sides(f: RationalFunction):
    """((num, its roots), (den, its roots)), each root list None unless f
    carries certified complete lists; raises NotCertified on a wrong list."""
    lists = f.certified_roots
    if lists is None:
        return (f.num, None), (f.den, None)
    return (f.num, lists[0]), (f.den, lists[1])


def _count_in_disc(g: Polynomial, roots, center, s, closed=True) -> int:
    """Roots of g with v(z - center) >= s (closed) or > s (open): counted from
    its certified root list when given, else from a Newton polygon.

    A root list is compared on plain values: v = v(r - center) is a Fraction,
    or the float INF for r == center, which lies in every disc of finite
    radius and in the closed disc of infinite radius only.  A finite v lies
    in the disc when v > s.q, or when v == s.q and the eps part e of s
    allows it: (v, 0) >= (s.q, e) when e <= 0, and (v, 0) > (s.q, e) when
    e < 0.
    """
    if roots is None:
        return roots_in_disc(g, center, s, closed=closed)
    if s.is_infinite:
        vals = [r.valuation_of_difference(center) for r in roots]
        return sum(isinstance(v, float) for v in vals) if closed else 0
    q = s.q
    tie = s.e <= 0 if closed else s.e < 0
    n = 0
    for r in roots:
        v = r.valuation_of_difference(center)
        if isinstance(v, float) or v > q or (tie and v == q):
            n += 1
    return n


@dataclass(frozen=True)
class ReducedUnit:
    f: RationalFunction
    domain: Domain
    certified: bool


def _certified_hole_counts(f: RationalFunction, dom: Domain):
    """Certify that f has neither zeros nor poles on the domain; return the
    roots of num, then of den, in each excluded disc, in order.

    Each side is counted in the bounding disc first, then in the holes, and
    num before den, so the first failure is always the same one."""
    if f.is_zero():
        raise ZeroElement("the zero function is not a unit anywhere")
    counts = []
    for which, (poly, roots) in zip(("num", "den"), _sides(f)):
        total = _count_in_disc(poly, roots, dom.center, dom.s)
        holes = tuple(_count_in_disc(poly, roots, d.center, d.s, d.closed)
                      for d in dom.excluded)
        count = total - sum(holes)
        if count > 0:
            raise VanishesOnDomain(
                f"{which} has {count} root(s) on the domain",
                witness=_witness_disc(poly, dom, which),
            )
        counts.append(holes)
    return counts


def reduced_unit(f: RationalFunction, dom: Domain) -> ReducedUnit:
    """Certify that f has neither zeros nor poles on the domain."""
    _certified_hole_counts(f, dom)
    return ReducedUnit(f, dom, True)


def require_unit(f: RationalFunction, dom: Domain):
    """The hole counts of a certified unit, for queries that need f to be
    one: a zero or pole on the domain raises NotCertified, with the message
    and witness of its VanishesOnDomain."""
    try:
        return _certified_hole_counts(f, dom)
    except VanishesOnDomain as exc:
        raise NotCertified(str(exc), witness=exc.witness) from exc


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


def boundary_degrees(f: RationalFunction, dom: Domain):
    """(zeros - poles) of f inside each excluded disc, in order.

    Together with the exterior component (everything beyond the bounding
    disc, infinity included) the entries sum to zero.
    """
    zeros, poles = require_unit(f, dom)
    return tuple(z - p for z, p in zip(zeros, poles))


def exterior_degree(f: RationalFunction, dom: Domain) -> int:
    """(zeros - poles) beyond the bounding disc, with the point at infinity
    contributing deg(den) - deg(num).

    The divisor of f on P^1 has degree 0: zeros minus poles over the closed
    bounding disc, beyond it and at infinity sum to zero.  So the part beyond
    is poles minus zeros in the closed bounding disc, and only that disc is
    counted.
    """
    (num, zeros), (den, poles) = _sides(f)
    inside_z = _count_in_disc(num, zeros, dom.center, dom.s)
    return _count_in_disc(den, poles, dom.center, dom.s) - inside_z


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
    # "up" holds everything at distance < s from the center, plus infinity;
    # deg(div f) = 0 makes that poles minus zeros in the closed disc
    in_closed_z = count(num, zeros, x.center, False)
    in_closed_p = count(den, poles, x.center, False)
    slopes["up"] = in_closed_p - in_closed_z
    other = (in_closed_z - assigned_z) - (in_closed_p - assigned_p)
    if other:
        slopes["other"] = other
    return slopes


@dataclass(frozen=True)
class LeadingClass:
    """Valuation-and-residue data of a certified unit at the domain boundary."""

    w: LogValue
    res_q: Fraction
    res: object
    modulus: int


def leading_class(f: RationalFunction, dom: Domain) -> LeadingClass:
    """Class of f at an eps-perturbed bounding point; ties broken exactly."""
    c0 = dom.center
    num = f.num.recenter(c0)
    den = f.den.recenter(c0)
    h = Fraction(1)
    while True:
        proxy = LogValue(dom.s.q if not dom.s.is_infinite else Fraction(0),
                         dom.s.e + h if not dom.s.is_infinite else Fraction(1))
        iN = _unique_argmin(num, proxy)
        iD = _unique_argmin(den, proxy)
        if iN is not None and iD is not None:
            break
        h /= 2
    w = (gauss_valuation(num, None, LogValue(dom.s.q, dom.s.e))
         - gauss_valuation(den, None, LogValue(dom.s.q, dom.s.e))) \
        if not dom.s.is_infinite else None
    cn = unit_class(num.coeffs[iN])
    cd = unit_class(den.coeffs[iD])
    ratio = cn * cd.inverse()
    return LeadingClass(w, ratio.q, ratio.res, ratio.modulus)


def _unique_argmin(g: Polynomial, s: LogValue):
    known, unknown = _classify(enumerate(g.coeffs))
    if unknown:
        # a truncated zero has no valuation: this raises PrecisionExhausted
        g.coeffs[unknown[0][0]].valuation()
    _, i, tie = _supporting_line(known, [], s)
    return None if tie else i


def homotopy_check(f0: RationalFunction, f1: RationalFunction,
                   dom: Domain) -> bool:
    """Exact decision of |f1/f0 - 1| < 1 everywhere on the domain.

    Once f0 and f1 are certified units, h = f1/f0 - 1 has no poles on the
    domain: they are zeros of f0 and poles of f1.  The domain is the
    increasing union of the affinoids X_r, the bounding disc minus the open
    disc v(z - a) > r_a around each hole's center a, where r_a = s_a for an
    open hole, r_a < s_a for a closed one, and r_a is any finite value for a
    punctured one (s_a = inf).  By the maximum modulus principle |h| attains
    its maximum over X_r on its Shilov boundary, the bounding point
    zeta(c, s) and the points zeta(a, r_a).  Every point of the domain lies
    in some X_r with each r_a as close to the end of its range as wished, so
    v(h) > 0 on the domain if and only if it holds at the bounding point and,
    for each hole, at zeta(a, r) for all r near that end; no interior point
    needs a check.  Along r, v(h)(zeta(a, r)) is piecewise linear with
    finitely many breakpoints, which gives one check per hole:

    - open hole: r = s_a;
    - closed hole of finite radius: the proxy s_a - eps, whose sign is that
      of v(h) just below s_a;
    - punctured hole: beyond every breakpoint, v(h)(zeta(a, S)) =
      (i_n - i_d) S + (v_n - v_d), where (i, v) is the first Newton-polygon
      vertex of h's numerator and denominator written at a.  That is
      positive for all large S if and only if (i_n - i_d, v_n - v_d) >
      (0, 0), compared lexicographically.  When i_n = i_d, h extends over
      the puncture and the same principle bounds v_n - v_d below by the
      other checks, so the constant only decides which check answers first.
    """
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
