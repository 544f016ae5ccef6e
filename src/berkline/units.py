"""Reduced units C^x/(1 + C_{<1}) and divisor-level calculus on domains.

A domain here is a closed bounding disc minus finitely many pairwise disjoint
excluded discs (each open or closed).  Certification that a rational function
is a unit on a domain, boundary degrees and direction slopes at type-2 points
reduce to counting roots in discs: from certified complete root lists when
present, else off each polynomial's supporting line at the disc's center, so
every answer is exact; no roots are ever computed and no Newton hull is
built, not even for the witness of a failed certification.  The 1-unit
homotopy decision adds leading forms at finitely many points.

Three facts keep this finite.  The divisor of a rational function on P^1 has
degree 0, so what lies beyond a closed disc (infinity included) is minus what
lies inside it: ``exterior_degree`` and the "up" slope count only inside.  A
function without poles on a Berkovich affinoid takes its maximum modulus on
the Shilov boundary (Berkovich 1990), here the bounding Gauss point and one
boundary point per hole: ``homotopy_check`` decides v(h) > 0 for h = f1/f0 - 1
there and nowhere inside the domain.  And the graded reduction at a point is
multiplicative, so v(h) > 0 there exactly when the leading forms (the terms
on each polynomial's supporting line, with their residues) satisfy
LT(n1) LT(d0) = LT(n0) LT(d1): h is never formed.  When every check passes,
|f1| = |f0| on the domain, so f1 has no zeros, and its numerator is
certified only when a check fails.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record, setfield
from .errors import (BadDomain, NotCertified, PrecisionExhausted,
                     VanishesOnDomain, ZeroElement)
from .field import PadicElem, PuiseuxElem
from .gauss import (_classify, _coeff_values, _exhausted, _lowest_term,
                    _supporting_line, roots_in_disc)
from .logvalue import LogValue, as_logvalue, trusted
from .points import DiscPoint, _within, classify
from .poly import Polynomial, RationalFunction


class UnitClass(Record):
    """Image of a nonzero element in (value group) x (residue units).

    ``modulus`` is the residue characteristic; 0 means the residue units are
    Q^x (rational-coefficient puiseux backend), else integers mod p.
    """

    _fields = ("q", "res", "modulus")

    def __init__(self, q: Fraction, res, modulus: int):
        setfield(self, "q", q)
        setfield(self, "res", res)
        setfield(self, "modulus", modulus)

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
    res = _residue(c)
    return UnitClass(c.valuation(), res, c.field.residue_char)


def _residue(c):
    """The leading coefficient of a nonzero element as a residue: a Fraction
    over Q((t)), an int mod p over F_p((t)) and Q_p."""
    if isinstance(c, PuiseuxElem):
        if not c.exps:
            raise PrecisionExhausted("element known only below its precision")
        return c.nums[0] if c.field.char else Fraction(c.nums[0], c.cden)
    if isinstance(c, PadicElem):
        p = c.field.p
        v = int(c.valuation())
        num, den = c.num, c.den
        if v > 0:
            num //= p ** v
        elif v < 0:
            den //= p ** -v
        return (num % p) * pow(den % p, -1, p) % p
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


class ExcludedDisc(Record):
    _fields = ("center", "s", "closed")

    def __init__(self, center, s: LogValue, closed: bool = True):
        setfield(self, "center", center)
        setfield(self, "s", as_logvalue(s))
        setfield(self, "closed", closed)
        if self.s.is_infinite and not self.closed:
            raise BadDomain("an open disc of radius zero excludes nothing")


class Domain(Record):
    """Closed disc v(z - center) >= s minus pairwise disjoint excluded discs."""

    _fields = ("center", "s", "excluded")

    def __init__(self, center, s: LogValue, excluded: tuple = ()):
        setfield(self, "center", center)
        setfield(self, "s", as_logvalue(s))
        setfield(self, "excluded", tuple(excluded))
        for d in self.excluded:
            if not d.s > self.s:
                raise BadDomain("excluded disc must be strictly smaller")
            if not _within(d.center, self.center, self.s):
                raise BadDomain("excluded disc center outside the bounding disc")
        for i in range(len(self.excluded)):
            for j in range(i + 1, len(self.excluded)):
                di, dj = self.excluded[i], self.excluded[j]
                # they meet when v(ci - cj) > m = min(si, sj), or when it
                # is m and a disc of radius m is closed
                m = min(di.s, dj.s)
                closed = any(x.closed for x in (di, dj) if x.s == m)
                if _within(di.center, dj.center, m, closed):
                    raise BadDomain(f"excluded discs {i} and {j} are not disjoint")

    @property
    def field(self):
        return self.center.field


def _count_in_disc(g: Polynomial, roots, center, s, closed=True,
                   at=None) -> int:
    """Roots of g with v(z - center) >= s (closed) or > s (open): counted from
    its certified root list when given, else from its supporting line at the
    center, written there by ``at(g, center)`` when given (the memo of
    ``homotopy_check``) and by ``roots_in_disc`` otherwise."""
    if roots is None:
        return roots_in_disc(g if at is None else at(g, center), center, s,
                             closed=closed)
    return sum(_within(r, center, s, closed) for r in roots)


def _degree_in(f: RationalFunction, center, s, closed=True) -> int:
    """Zeros minus poles of f with v(z - center) >= s (closed) or > s (open),
    the zeros counted first."""
    zeros, poles = f.certified_roots or (None, None)
    return (_count_in_disc(f.num, zeros, center, s, closed)
            - _count_in_disc(f.den, poles, center, s, closed))


class ReducedUnit(Record):
    _fields = ("f", "domain", "certified")

    def __init__(self, f: RationalFunction, domain: Domain, certified: bool):
        setfield(self, "f", f)
        setfield(self, "domain", domain)
        setfield(self, "certified", certified)


def _certify(f: RationalFunction, dom: Domain, error, at=None,
             sides=("num", "den")):
    """Certify that the named sides of f, num before den, have no roots on
    the domain; return the roots of each in each excluded disc, in order.

    A side is counted in the bounding disc first, then in the holes, and a
    root on the domain raises ``error`` with its witness disc.  The zero
    function raises ZeroElement and a wrong certified root list NotCertified,
    before anything is counted.  ``at`` writes each polynomial at a center,
    for the counts (see ``_count_in_disc``) and the witness.
    """
    if f.is_zero():
        raise ZeroElement("the zero function is not a unit anywhere")
    lists = f.certified_roots or (None, None)
    out = []
    for which, poly, roots in zip(("num", "den"), (f.num, f.den), lists):
        if which not in sides:
            continue
        total = _count_in_disc(poly, roots, dom.center, dom.s, at=at)
        holes = tuple(_count_in_disc(poly, roots, d.center, d.s, d.closed, at)
                      for d in dom.excluded)
        n = total - sum(holes)
        if n > 0:
            g = poly if at is None else at(poly, dom.center)
            raise error(f"{which} has {n} root(s) on the domain",
                        witness=_witness_disc(g, dom, which))
        out.append(holes)
    return out


def reduced_unit(f: RationalFunction, dom: Domain) -> ReducedUnit:
    """Certify that f has neither zeros nor poles on the domain."""
    _certify(f, dom, VanishesOnDomain)
    return ReducedUnit(f, dom, True)


def require_unit(f: RationalFunction, dom: Domain):
    """The hole counts of a certified unit, for queries that need f to be
    one: the roots of num, then of den, in each excluded disc; a zero or pole
    on the domain raises NotCertified."""
    return _certify(f, dom, NotCertified)


def _witness_disc(poly: Polynomial, dom: Domain, which: str):
    """Where poly has a root on the domain: "s" is sigma, its largest finite
    root valuation at the center, max_{j > i0} (v0 - v_j)/(j - i0), if
    sigma >= s, else "inf"; the bounding radius if a truncated zero may move
    it.  A truncated zero at j > i0 bounds v_j below by its precision p, so
    sigma is at most the largest of the known ratios and the bound ratios
    (v0 - p)/(j - i0): below s, that is "inf" on every completion."""
    known, unknown = _coeff_values(poly, dom.center)
    i0, v0 = known[0]  # the lowest term
    ratios = [(v0 - v) / (j - i0) for j, v in known[1:]]
    sigma = max(ratios, default=None)
    bound = max(ratios + [(v0 - p) / (j - i0) for j, p in unknown if j > i0],
                default=None)
    if any(j < i0 for j, _ in unknown):
        sigma = dom.s  # the lowest term may be unknown
    elif bound is None or trusted(bound) < dom.s:
        sigma = "inf"
    elif bound != sigma:
        sigma = dom.s  # an unknown coefficient may give a larger ratio
    return {"which": which, "center": dom.center.canonical_str(),
            "s": str(sigma)}


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
    return -_degree_in(f, dom.center, dom.s)


def direction_slopes(f: RationalFunction, x: DiscPoint, directions=None):
    """Outgoing slopes of log|f| at a type-2 point, as zeros minus poles.

    Keys are "up" (the complement of the closed disc, infinity included),
    "dir:<center>" per direction center, and "other" for divisor mass at
    distance exactly s from the center that the given directions do not
    resolve.  Values always sum to zero.
    """
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

    slopes = {f"dir:{name}": _degree_in(f, b, x.s, False) for name, b in named}
    # "up" holds everything at distance < s from the center, plus infinity;
    # deg(div f) = 0 makes that poles minus zeros in the closed disc, and
    # "other" is what the directions leave of the zeros minus poles in it
    inside = _degree_in(f, x.center, x.s)
    other = inside - sum(slopes.values())
    slopes["up"] = -inside
    if other:
        slopes["other"] = other
    return slopes


class LeadingClass(Record):
    """Valuation-and-residue data of a certified unit at the domain boundary."""

    _fields = ("w", "res_q", "res", "modulus")

    def __init__(self, w: LogValue, res_q: Fraction, res, modulus: int):
        setfield(self, "w", w)
        setfield(self, "res_q", res_q)
        setfield(self, "res", res)
        setfield(self, "modulus", modulus)


def leading_class(f: RationalFunction, dom: Domain) -> LeadingClass:
    """Class of f at the bounding point: w = v(f) at radius s (None at
    s = +infinity) and the unit class of the ratio of the sides' leading terms.
    Each side's term is read off its supporting line at s.q (at 0 when
    s = +infinity): the lowest index on it when s.e > -1 or s = +infinity,
    else the highest, the term alone at the minimum at radius (s.q, s.e + h)
    for the first h in 1, 1/2, ... at which both sides have one.  A
    truncated zero coefficient raises PrecisionExhausted.
    """
    if f.is_zero():
        raise ZeroElement("the zero function is not a unit anywhere")
    s = dom.s
    q, e = (Fraction(0), Fraction(1)) if s.is_infinite else (s.q, s.e)
    sides = []
    for g in (f.num.recenter(dom.center), f.den.recenter(dom.center)):
        known, unknown = _classify(enumerate(g.coeffs))
        if unknown:
            # a truncated zero has no valuation: this raises PrecisionExhausted
            g.coeffs[unknown[0][0]].valuation()
        m, line, _ = _supporting_line(known, [], trusted(q))
        lo, hi = line[0], line[-1]
        sides.append((trusted(m.q, min(lo * e, hi * e)),
                      g.coeffs[lo if e > -1 else hi]))
    (vn, cn), (vd, cd) = sides
    ratio = unit_class(cn) * unit_class(cd).inverse()
    return LeadingClass(None if s.is_infinite else vn - vd, ratio.q,
                        ratio.res, ratio.modulus)


def homotopy_check(f0: RationalFunction, f1: RationalFunction,
                   dom: Domain) -> bool:
    """Exact decision of |f1/f0 - 1| < 1 everywhere on the domain.

    Where f0 has no zeros and f1 no poles, h = f1/f0 - 1 has no poles.  The
    domain is the increasing union of the affinoids X_r, the bounding disc
    minus the open disc v(z - a) > r_a around each hole's center a, where
    r_a = s_a for an open hole, r_a < s_a for a closed one, and r_a is any
    finite value for a punctured one (s_a = inf).  By the maximum modulus
    principle |h| attains its maximum over X_r on its Shilov boundary, the
    bounding point zeta(c, s) and the points zeta(a, r_a) (Baker and Rumely,
    2010).  Every point of the domain lies in some X_r with each r_a as
    close to the end of its range as wished, and v(h)(zeta(a, r)) is
    piecewise linear in r, so v(h) > 0 on the domain if and only if it
    holds at the bounding point and at one point per hole:

    - open hole: r = s_a;
    - closed hole of finite radius: the proxy s_a - eps, whose sign is that
      of v(h) just below s_a;
    - punctured hole: r = S for every S beyond the last breakpoint.

    Each check compares leading forms; h is never formed.  For g = sum c_i
    (T - a)^i written at the point's center, LT(g) at radius s is g's
    supporting line: the minimum m = min v(c_i) + i*s and, for each i that
    attains it, the residue of c_i.  It is g's image in the graded reduction
    at the point (Temkin, 2004), which is multiplicative, so with h =
    (n1 d0 - n0 d1) / (n0 d1)

        v(h) > 0  <=>  v(n1 d0 - n0 d1) > v(n0 d1)
                  <=>  LT(n1) LT(d0) = LT(n0) LT(d1),

    a product of forms adding the minima and convolving the residues by
    index, mod p when the residue field is F_p.  At an eps radius each form
    is one monomial, since different i give different eps parts.  At a
    puncture the form for all large S is the lowest-index nonzero
    coefficient, and the forms agree exactly when the first Newton vertices
    (i, v) of h's numerator and denominator at a have (i_n - i_d, v_n - v_d)
    > (0, 0); when i_n = i_d, h extends over the puncture and the maximum
    modulus principle bounds v_n - v_d by the other checks.  A truncated
    zero coefficient whose bound lies on or below the supporting line could
    add a term to the form, so it raises PrecisionExhausted.

    f0 is certified first, then f1's denominator: h then has no poles and
    the checks are valid.  If they all pass, |f1/f0 - 1| < 1 on the domain,
    so |f1| = |f0| at every point, type-1 points included, and f1 has no
    zeros: its numerator needs no count.  When a check fails or runs out of
    precision, the numerator is certified before the answer is given, so a
    non-unit f1 raises NotCertified and never reads as False.  When the
    denominator fails, the numerator is certified before that error is
    raised.  So the errors are those of certifying f0, then f1, numerator
    first.  A denominator that f1 shares with f0 is certified with f0, and
    its leading form, a nonzero factor of both products, cancels.  Each
    polynomial is written at each center once per call, and f1's root
    counts and every witness read those same polynomials.
    """
    shifted = {}

    def at(g, center):
        key = id(g), id(center)
        out = shifted.get(key)
        if out is None:
            out = shifted[key] = g.recenter(center)
        return out

    _certify(f0, dom, NotCertified, at)
    num1, den1 = f1.num, f1.den
    p = dom.field.residue_char

    def small_at(a, s):
        # a shared denominator cancels, so it is never written at a
        d0, d1 = (den1, den1) if den1 is f0.den else \
            (at(f0.den, a), at(den1, a))
        return _forms_agree(at(num1, a), d0, at(f0.num, a), d1, s, p)

    _certify(f1, dom, NotCertified, at, ())  # f1 = 0, or a wrong root list
    try:
        if den1 is not f0.den:  # else it was certified with f0
            _certify(f1, dom, NotCertified, at, ("den",))
        if all(small_at(a, s) for a, s in _shilov_points(dom)):
            return True
    except (NotCertified, PrecisionExhausted):
        _certify(f1, dom, NotCertified, at, ("num",))  # raises if it fails
        raise
    _certify(f1, dom, NotCertified, at, ("num",))
    return False


def _shilov_points(dom: Domain):
    """(center, radius) of each check: the bounding point, then per hole
    s - eps when closed, s when open, +infinity for a puncture."""
    yield dom.center, dom.s
    for d in dom.excluded:
        if d.closed and not d.s.is_infinite:
            yield d.center, trusted(d.s.q, d.s.e - 1)
        else:
            yield d.center, d.s


def _forms_agree(n1, d0, n0, d1, s: LogValue, p: int) -> bool:
    """v(n1 d0 / (n0 d1) - 1) > 0 at radius s around the center that all
    four are written at: LT(n1) LT(d0) = LT(n0) LT(d1)."""
    if d1 is d0:  # the graded reduction is a domain: LT(d0) cancels
        return _leading_form(n1, s) == _leading_form(n0, s)
    return (_times(_leading_form(n1, s), _leading_form(d0, s), p)
            == _times(_leading_form(n0, s), _leading_form(d1, s), p))


def _leading_form(g: Polynomial, s: LogValue):
    """(m, {i: residue of c_i}) for the indices i on g's supporting line at
    radius s, m its minimum; at s = +infinity, the lowest-index nonzero
    coefficient and its valuation.

    A truncated zero coefficient whose bound lies on or below the line
    raises PrecisionExhausted: it could hold a term of the form.
    """
    known, unknown = _classify(enumerate(g.coeffs))
    if s.is_infinite:
        i, m = _lowest_term(known, unknown)
        line = (i,)
    else:
        m, line, on_line = _supporting_line(known, unknown, s)
        if on_line:
            raise _exhausted(*on_line[0])
        m = m.q
    return m, {i: _residue(g.coeffs[i]) for i in line}


def _times(a, b, p: int):
    """The product of two leading forms; residues mod p when p > 0."""
    (qa, ra), (qb, rb) = a, b
    out = {}
    for i, x in ra.items():
        for j, y in rb.items():
            out[i + j] = out.get(i + j, 0) + x * y
    if p:
        out = {k: x % p for k, x in out.items()}
    return qa + qb, {k: x for k, x in out.items() if x}
