"""Gauss valuations, sum norms, Newton polygons and annulus root counting.

Conventions.  All radii are additive log-values (|x| = 2**(-s)); the Gauss
valuation of f at the disc D(a, 2**(-s)) is min_i(v(c_i) + i*s) over the
coefficients of f recentered at a.  Root counts are read off that minimum's
supporting line: its last index is #(v(z - a) >= s), its first #(v(z - a) > s).
A Newton-polygon segment of slope l and width m certifies exactly m roots of
valuation -l; hulls serve only ``np`` and ``cancel.y2_divisor``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record, setfield
from .errors import (CoefficientOverflow, PrecisionExhausted, ZeroConstantTerm,
                     ZeroPolynomial)
from .field import PadicElem, PadicField, _vp
from .logvalue import INFINITY, ZERO, LogValue, as_logvalue, trusted
from .poly import Polynomial


def _coeff_values(f: Polynomial, a=None):
    """The points of the coefficients of f, recentered at a if given, as two
    lists in increasing index: (i, y, den, num, cden) for each provably
    nonzero c_i, valuation y/den and leading coefficient num/cden, and
    (i, y, den) for each truncated zero, known only below t^(y/den).

    A polynomial that holds a flat form (``poly._flat_poly``) is read from
    it, its elements decoded or not; any other from its elements
    (``_classify``)."""
    g = f if a is None else f.recenter(a)
    if g._flat is None:
        return _classify(enumerate(g.coeffs))
    return _flat_points(g.field, *g._flat), []


def _flat_points(fld, counts, exps, cofs, lat, cden):
    """The known points of an exact flat form, one per nonzero coefficient,
    off its first term: over Puiseux series y is its exponent over lat;
    over Q_p y is v_p(numerator) - v_p(cden) over 1."""
    points = []
    pos = 0
    if type(fld) is PadicField:
        p = fld.p
        vden = _vp(cden, p)
        for i, c in enumerate(counts):
            if c:
                num = cofs[pos]
                points.append((i, _vp(num, p) - vden, 1, num, cden))
                pos += c
        return points
    for i, c in enumerate(counts):
        if c:
            points.append((i, exps[pos], lat, cofs[pos], cden))
            pos += c
    return points


def _classify(terms):
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
    known, unknown = _coeff_values(f, a)
    return _supporting_line(known, unknown, s)[0]


def _exhausted(i, y, den):
    return PrecisionExhausted(
        f"coefficient {i} is only known below t^{Fraction(y, den)}", witness=i)


def _supporting_line(known, unknown, s: LogValue):
    """(min_i(v_i + i*s), the known points attaining it, the unknown points
    on the line).

    ``known`` and ``unknown`` are the two lists of ``_coeff_values``.  An
    unknown point (i, y, den) bounds v_i from below only, so the first one
    whose bound y/den + i*s lies below the minimum, or the first one at all
    when nothing is known, raises PrecisionExhausted with witness i.  One
    whose bound lies on the line leaves the minimum as it is, but not the
    terms on the line.  With nothing at all the minimum is +infinity,
    attained nowhere.

    At a finite s the heights go on the lattice (1/L)Z, L the lcm of s.q's
    denominator and every den.  All terms share the eps part of s, so
    v + i*s is ordered by the int pair (L*v + i*L*s.q, i*sign(s.e)); the
    eps part of the minimum is that of its first index.
    """
    if not known:
        if unknown:
            raise _exhausted(*unknown[0])
        return INFINITY, [], []
    if s.is_infinite:
        # i*s is +infinity for every i > 0: only index 0 counts
        if unknown and unknown[0][0] == 0:
            raise _exhausted(*unknown[0])
        i, y, den, _, _ = known[0]
        if i == 0:
            return as_logvalue(Fraction(y, den)), known[:1], []
        return INFINITY, known, []
    sq, e = s.q, s.e.numerator
    L = math.lcm(sq.denominator, *[pt[2] for pt in known],
                 *[pt[2] for pt in unknown])
    sign = (e > 0) - (e < 0)
    step = sq.numerator * (L // sq.denominator)
    best = None
    for pt in known:
        i, y, den, _, _ = pt
        key = (y * (L // den) + i * step, i * sign)
        if best is None or key < best:
            best, line = key, [pt]
        elif key == best:
            line.append(pt)
    on_line = []
    for pt in unknown:
        i, y, den = pt
        key = (y * (L // den) + i * step, i * sign)
        if key < best:
            raise _exhausted(*pt)
        if key == best:
            on_line.append(pt)
    return trusted(Fraction(best[0], L), line[0][0] * s.e), line, on_line


def naive_norm(f: Polynomial, r, a=None) -> float:
    """The weighted coefficient sum norm sum_i |c_i| r**i.

    Returned as a float with relative accuracy about 1e-12; it is an upper
    bound for the Gauss (spectral) norm 2**(-gauss_valuation) at log2(r) = -s.
    """
    return 2.0 ** log2_naive_norm(f, _log2(r), a)  # 0.0 at -inf, for f = 0


def log2_naive_norm(f: Polynomial, log2_r, a=None) -> float:
    """log2 of naive_norm, computed stably in the log domain."""
    known, unknown = _coeff_values(f, a)
    if unknown:
        raise _exhausted(*unknown[0])
    if not known:
        return -math.inf
    logs = [-y / den + i * float(log2_r) for i, y, den, _, _ in known]
    top = max(logs)
    return top + math.log2(sum(2.0 ** (x - top) for x in logs))


def _log2(r):
    """Exact log2 for powers of two, float log otherwise."""
    if isinstance(r, float):
        if r <= 0:
            raise ValueError("radius must be positive")
        return math.log2(r)
    r = Fraction(r)
    if r <= 0:
        raise ValueError("radius must be positive")
    num, den = r.numerator, r.denominator
    if num & (num - 1) == 0 and den & (den - 1) == 0:
        return Fraction(num.bit_length() - 1 - (den.bit_length() - 1))
    return math.log2(float(r))


def spectral_profile(f: Polynomial, radii, a=None, n_max: int = 64,
                     max_coeffs: int = 200_000):
    """[(1/n) log2 naive_norm(f**n, r)] for n = 1..n_max, one list per radius.

    Powers are computed once and shared across the radii.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    log2_rs = [_log2(r) for r in radii]
    out = [[] for _ in radii]
    g = f
    for n in range(1, n_max + 1):
        if n > 1:
            g = g * f
        if g.degree + 1 > max_coeffs:
            raise CoefficientOverflow(
                f"power f^{n} has more than {max_coeffs} coefficients"
            )
        for row, lr in zip(out, log2_rs):
            row.append(log2_naive_norm(g, lr, a) / n)
    return out


def spectral_limit(f: Polynomial, r, a=None, n_max: int = 64,
                   max_coeffs: int = 200_000):
    """The power-norm sequence (1/n) log2 naive_norm(f**n, r) for n <= n_max.

    Converges to -gauss_valuation(f, a, -log2(r)) from above, at rate
    log2(n deg + 1)/n.
    """
    return spectral_profile(f, [r], a, n_max, max_coeffs)[0]


class NewtonPolygon(Record):
    """Lower convex hull of (i, v(c_i)); slopes strictly increase."""

    _fields = ("vertices", "segments", "mult0", "degree")

    def __init__(self, vertices: tuple, segments: tuple, mult0: int, degree: int):
        setfield(self, "vertices", vertices)  # ((index, Fraction valuation), ...)
        setfield(self, "segments", segments)  # ((Fraction slope, int width), ...)
        setfield(self, "mult0", mult0)        # multiplicity of the root at the center
        setfield(self, "degree", degree)

    def root_valuations(self):
        """(valuation, multiplicity) per finite root class, valuation = -slope."""
        return tuple((-s, w) for s, w in self.segments)


def newton_polygon(f: Polynomial) -> NewtonPolygon:
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial has no Newton polygon")
    known, unknown = _coeff_values(f)
    return _polygon(known, unknown, f.degree)


def _polygon(known, unknown, degree) -> NewtonPolygon:
    """The Newton polygon of the points ``_coeff_values`` gives of a
    nonzero polynomial.

    Heights are compared as ints on the lattice (1/L)Z, L the lcm of every
    den; each vertex and each slope is one Fraction, built at the end.
    """
    if not known:
        raise PrecisionExhausted("all coefficients below their precision bounds")
    L = math.lcm(*[pt[2] for pt in known], *[pt[2] for pt in unknown])
    hull = _lower_hull([(i, y * (L // den)) for i, y, den, _, _ in known])
    # a truncated-zero coefficient is tolerable only strictly inside the known
    # index range and with its bound at or above the hull there; anywhere else
    # it could change mult0, the degree, or cut the hull
    for i, y, den in unknown:
        if (i < hull[0][0] or i > hull[-1][0]
                or _below_hull(hull, i, y * (L // den))):
            raise PrecisionExhausted(
                f"coefficient {i} known only below t^{Fraction(y, den)} "
                f"could cut the hull", witness=i)
    segments = tuple((Fraction(y2 - y1, L * (x2 - x1)), x2 - x1)
                     for (x1, y1), (x2, y2) in zip(hull, hull[1:]))
    return NewtonPolygon(tuple((x, Fraction(y, L)) for x, y in hull),
                         segments, known[0][0], degree)


def _lower_hull(pts):
    """Monotone chain over int points (x, y), x increasing; collinear
    interior points are dropped."""
    hull = []
    for x, y in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (x - x1) >= (y - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x, y))
    return hull


def _below_hull(hull, x, y) -> bool:
    """Whether the int point (x, y) lies strictly below the hull, for x
    between its first and last vertex."""
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x1 <= x <= x2:
            return (y - y1) * (x2 - x1) < (y2 - y1) * (x - x1)


def _lowest_term(known, unknown):
    """The known point of the lowest nonzero term: its index i is the
    number of roots at the center."""
    if not known or unknown and unknown[0][0] < known[0][0]:
        raise _exhausted(*unknown[0])  # it may be lower, or f may be 0
    return known[0]


def _count(known, unknown, s: LogValue, closed: bool) -> int:
    """#(v >= s) when closed, #(v > s) when open, from ``_coeff_values``'
    lists: the last or first index on the supporting line of slope -s.  An
    unknown point on it raises only beyond that index; with none known, f
    may be 0."""
    if not known:
        raise _exhausted(*unknown[0])
    if s.is_infinite:
        return _lowest_term(known, unknown)[0] if closed else 0
    _, line, on_line = _supporting_line(known, unknown, s)
    n = line[-1][0] if closed else line[0][0]
    for pt in on_line:
        if (pt[0] > n) if closed else (pt[0] < n):
            raise _exhausted(*pt)
    return n


def root_count_annulus(f: Polynomial, s_lo=None, s_hi=INFINITY,
                       lo_open: bool = False, hi_open: bool = False) -> int:
    """Number of roots, with multiplicity, whose valuation lies in the interval.

    ``s_lo = None`` means unbounded below.  The root at the center itself has
    valuation +infinity and is counted exactly when the interval reaches a
    closed +infinity end.  The count is #(v >= s_lo) - #(v > s_hi), with >
    and >= swapped at an open end, and #(v >= None) is the degree.
    """
    if f.is_zero():
        raise ZeroPolynomial("root counting on the zero polynomial")
    lo = None if s_lo is None else as_logvalue(s_lo)
    hi = as_logvalue(s_hi)
    if lo is not None and lo > hi:
        raise ValueError("empty interval: s_lo > s_hi")
    known, unknown = _coeff_values(f)
    above = _count(known, unknown, hi, hi_open)
    if lo is None:
        below = known[-1][0]
        if unknown and unknown[-1][0] > below:
            raise _exhausted(*unknown[-1])  # it could raise the degree
    else:
        below = _count(known, unknown, lo, not lo_open)
    # lo == hi with both ends open gives -#(v = lo): the interval is empty
    return max(0, below - above)


def roots_in_disc(f: Polynomial, center, s, closed: bool = True) -> int:
    """Roots z with v(z - center) >= s (closed) or > s (open), incl. z = center."""
    return root_count_annulus(f.recenter(center), s, lo_open=not closed)


def sym_annulus_membership(coeffs, s1, s2) -> bool:
    """Whether the monic polynomial T^n + a_{n-1}T^{n-1} + ... + a_0 with the
    given lower coefficients has all its roots strictly inside the annulus
    2**(-s1) < |z| < 2**(-s2).

    Equivalent to every coefficient point (i, v(a_i)) lying strictly above
    both Newton lines through (n, 0) (slopes -s1 and -s2), together with the
    constant-term window n*s2 < v(a_0) < n*s1; the fibre over a_0 is an open
    polydisc in the remaining coefficients.
    """
    s1 = as_logvalue(s1)
    s2 = as_logvalue(s2)
    if not s2 < s1:
        raise ValueError("annulus requires s2 < s1 (outer radius larger)")
    n = len(coeffs)
    if n == 0:
        raise ValueError("need at least the constant coefficient")
    a0 = coeffs[0]
    if a0.is_zero():
        raise ZeroConstantTerm("constant term must be nonzero")
    v0 = LogValue(a0.valuation())
    if not (s2.scale(n) < v0 and v0 < s1.scale(n)):
        return False
    for i in range(1, n):
        ai = coeffs[i]
        if ai.is_zero():
            continue
        vi = LogValue(ai.valuation())
        # at s1 = +infinity the inner line is vacuous: a0 != 0 keeps 0 out
        if not (vi > s2.scale(n - i)
                and (s1.is_infinite or vi > v0 - s1.scale(i))):
            return False
    return True
