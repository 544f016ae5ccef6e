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
from .field import PadicField, _vp
from .logvalue import INFINITY, ZERO, LogValue, as_logvalue, trusted
from .poly import Polynomial


def _coeff_values(f: Polynomial, a=None):
    """_classify of the coefficients of f, recentered at a if given; read
    off the flat form of a polynomial still flat (``poly._flat_poly``), so
    its elements are not decoded.  Decoded elements keep their valuations,
    which read faster than the flat form's."""
    g = f if a is None else f.recenter(a)
    if g._flat is None or "coeffs" in vars(g):
        return _classify(enumerate(g.coeffs))
    return _flat_values(g.field, *g._flat), []


def _flat_values(fld, counts, exps, cofs, lat, cden):
    """(index, valuation) for the nonzero coefficients of an exact flat
    form, as ``_classify`` gives them: over Puiseux series the first
    exponent of each, over lat; over Q_p, v_p(numerator) - v_p(cden)."""
    known = []
    pos = 0
    if type(fld) is PadicField:
        p = fld.p
        vden = _vp(cden, p)
        for i, c in enumerate(counts):
            if c:
                known.append((i, Fraction(_vp(cofs[pos], p) - vden)))
                pos += c
    else:
        for i, c in enumerate(counts):
            if c:
                known.append((i, Fraction(exps[pos], lat)))
                pos += c
    return known


def _classify(terms):
    """(index, valuation) for provably nonzero coefficients, plus lower bounds
    (index, prec) for truncated zeros whose value is unknown; exact zeros are
    skipped.  ``terms`` yields (index, coefficient) in increasing index."""
    known, unknown = [], []
    for i, c in terms:
        if c.is_zero():
            continue
        if not c and not c.is_exact:
            unknown.append((i, c.prec))
        else:
            known.append((i, c.valuation()))
    return known, unknown


def gauss_valuation(f: Polynomial, a=None, s=ZERO) -> LogValue:
    """Valuation of f at the disc point D(a, 2**(-s)); +infinity for f = 0."""
    s = as_logvalue(s)
    known, unknown = _coeff_values(f, a)
    return _supporting_line(known, unknown, s)[0]


def _exhausted(i, p):
    return PrecisionExhausted(f"coefficient {i} is only known below t^{p}",
                              witness=i)


def _supporting_line(known, unknown, s: LogValue):
    """(min_i(v_i + i*s), the indices i attaining it, the unknown points on
    the line).

    ``known`` and ``unknown`` are the two lists of ``_classify``.  An unknown
    point (i, p) bounds v_i from below only, so the first one whose bound
    p + i*s lies below the minimum, or the first one at all when nothing is
    known, raises PrecisionExhausted with witness i.  One whose bound lies
    on the line leaves the minimum as it is, but not the terms on the line.
    With nothing at all the minimum is +infinity, attained nowhere.

    All terms share the eps part of s, so v + i*s is ordered by the int pair
    (L*v + i*L*s.q, i*sign(s.e)), where L is the lcm of every denominator;
    one LogValue is built, for the minimum.
    """
    if not known:
        if unknown:
            raise _exhausted(*unknown[0])
        return INFINITY, [], []
    if s.is_infinite:
        # i*s is +infinity for every i > 0: only index 0 counts
        if unknown and unknown[0][0] == 0:
            raise _exhausted(*unknown[0])
        i, v = known[0]
        if i == 0:
            return as_logvalue(v), [0], []
        return INFINITY, [i for i, _ in known], []
    sq, se = s.q, s.e
    sign = (se.numerator > 0) - (se.numerator < 0)
    L = math.lcm(sq.denominator, *[v.denominator for _, v in known],
                 *[p.denominator for _, p in unknown])
    step = sq.numerator * (L // sq.denominator)
    best = None
    for i, v in known:
        key = (v.numerator * (L // v.denominator) + i * step, i * sign)
        if best is None or key < best:
            best, line = key, [i]
        elif key == best:
            line.append(i)
    on_line = []
    for i, p in unknown:
        key = (p.numerator * (L // p.denominator) + i * step, i * sign)
        if key < best:
            raise _exhausted(i, p)
        if key == best:
            on_line.append((i, p))
    return trusted(Fraction(best[0], L), line[0] * se), line, on_line


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
    logs = [float(-v) + i * float(log2_r) for i, v in known]
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
    """The Newton polygon of the classified points of a nonzero polynomial.

    Heights are compared as ints on the lattice (1/L)Z, L the lcm of every
    denominator; the vertices keep their Fractions and each slope is one
    Fraction, built at the end.
    """
    if not known:
        raise PrecisionExhausted("all coefficients below their precision bounds")
    pts = sorted(known)
    L = math.lcm(*[v.denominator for _, v in pts],
                 *[p.denominator for _, p in unknown])
    hull = _lower_hull([(i, v.numerator * (L // v.denominator), v)
                        for i, v in pts])
    # a truncated-zero coefficient is tolerable only strictly inside the known
    # index range and with its bound at or above the hull there; anywhere else
    # it could change mult0, the degree, or cut the hull
    for i, p in unknown:
        if (i < hull[0][0] or i > hull[-1][0]
                or _below_hull(hull, i, p.numerator * (L // p.denominator))):
            raise PrecisionExhausted(
                f"coefficient {i} known only below t^{p} could cut the hull",
                witness=i,
            )
    mult0 = pts[0][0]
    segments = tuple((Fraction(y2 - y1, L * (x2 - x1)), x2 - x1)
                     for (x1, y1, _), (x2, y2, _) in zip(hull, hull[1:]))
    return NewtonPolygon(tuple((x, v) for x, _, v in hull), segments, mult0,
                         degree)


def _lower_hull(pts):
    """Monotone chain over (x, y, payload) with ints x, increasing, and y;
    collinear interior points are dropped."""
    hull = []
    for p in pts:
        x, y, _ = p
        while len(hull) >= 2:
            (x1, y1, _), (x2, y2, _) = hull[-2], hull[-1]
            if (y2 - y1) * (x - x1) >= (y - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _below_hull(hull, x, y) -> bool:
    """Whether the int point (x, y) lies strictly below the hull, for x
    between its first and last vertex."""
    for (x1, y1, _), (x2, y2, _) in zip(hull, hull[1:]):
        if x1 <= x <= x2:
            return (y - y1) * (x2 - x1) < (y2 - y1) * (x - x1)


def _lowest_term(known, unknown):
    """(i, v_i) of the lowest nonzero term: i roots sit at the center."""
    if not known or unknown and unknown[0][0] < known[0][0]:
        raise _exhausted(*unknown[0])  # it may be lower, or f may be 0
    return known[0]


def _count(known, unknown, s: LogValue, closed: bool) -> int:
    """#(v >= s) when closed, #(v > s) when open, from ``_classify``'s lists:
    the last or first index on the supporting line of slope -s.  An unknown
    point on it raises only beyond that index; with none known, f may be 0."""
    if not known:
        raise _exhausted(*unknown[0])
    if s.is_infinite:
        return _lowest_term(known, unknown)[0] if closed else 0
    _, line, on_line = _supporting_line(known, unknown, s)
    n = line[-1] if closed else line[0]
    for i, p in on_line:
        if (i > n) if closed else (i < n):
            raise _exhausted(i, p)
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
