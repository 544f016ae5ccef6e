"""Points of the Berkovich unit disc and the coordinate retraction.

A disc point D(a, s) is the multiplicative seminorm sending f to its Gauss
valuation at the disc of log-radius s around a; s = +infinity recovers the
classical point a (type 1).  Rational s (eps part zero) gives type 2, a
nonzero eps part gives type 3, and a strictly nested chain of discs with no
smallest member truncates a type-4 point.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record, setfield
from .errors import (ChainNotStabilized, IndexNotSubset, MalformedChain,
                     PointOutsideDisc)
from .gauss import gauss_valuation, root_count_annulus
from .logvalue import INFINITY, LogValue, as_logvalue, trusted


class DiscPoint(Record):
    _fields = ("center", "s")

    def __init__(self, center, s: LogValue):
        setfield(self, "center", center)
        setfield(self, "s", as_logvalue(s))

    def contains(self, other: "DiscPoint") -> bool:
        """Disc containment: other's disc lies inside this one."""
        if self.s > other.s:
            return False
        return _within(self.center, other.center, self.s)

    def same_point(self, other) -> bool:
        if not isinstance(other, DiscPoint):
            return False
        if self.s != other.s:
            return False
        return _within(self.center, other.center, self.s)

    # value-based equality: two discs are the same point iff the radii agree
    # and the centers are within the radius of one another
    __eq__ = same_point

    def __hash__(self):
        return hash(self.s)

    def __repr__(self):
        return f"D({self.center.canonical_str()}, s={self.s})"


class ChainPoint(Record):
    """Finite truncation of a nested chain of discs (type-4 data)."""

    _fields = ("discs",)

    def __init__(self, discs: tuple):
        discs = tuple(discs)
        if len(discs) < 2:
            raise MalformedChain("a chain needs at least two discs")
        for d1, d2 in zip(discs, discs[1:]):
            if not d1.s < d2.s:
                raise MalformedChain("chain radii must strictly shrink")
            if not d1.contains(d2):
                raise MalformedChain("chain discs must be strictly nested")
        setfield(self, "discs", discs)

    @property
    def last(self) -> DiscPoint:
        return self.discs[-1]

    def __repr__(self):
        inner = " > ".join(repr(d) for d in self.discs)
        return f"Chain({inner})"


def _dist(a, b) -> LogValue:
    """Ultrametric log-distance v(a - b), +infinity when equal.

    An element is at distance +infinity from itself, truncated or not: as in
    ``Polynomial.recenter``, the same object is the same point, though the
    difference of a truncated element with itself is a truncated zero.
    """
    v = None if a is b else a._vdiff(b)
    return INFINITY if v is None else trusted(Fraction(*v))


def _within(a, b, s: LogValue, closed=True) -> bool:
    """Whether v(a - b) >= s (closed) or > s (open), on ints.

    +infinity (a is b, as in ``_dist``, or a == b) reaches every radius when
    closed and every finite one when open.  A rational v = e/den reaches a
    finite s = (q, eps) when v > q, or when v == q and the eps part allows
    it: (v, 0) >= (q, eps) when eps <= 0, (v, 0) > (q, eps) when eps < 0.
    Both tests compare ints: the sign of e*q.denominator - q.numerator*den,
    and the sign of eps.numerator.  s is read once, from its stored order
    key (inf, q, eps).
    """
    v = None if a is b else a._vdiff(b)
    inf, q, eps = s._k
    if v is None:
        return closed or not inf
    if inf:
        return False
    e, den = v
    c = e * q.denominator - q.numerator * den
    return c > 0 or (c == 0 and (eps.numerator <= 0 if closed
                                 else eps.numerator < 0))


class PointClassification(Record):
    _fields = ("type", "residue_transcendental", "value_group_extended")

    def __init__(self, type: int, residue_transcendental: bool = False,
                 value_group_extended: bool = False):
        setfield(self, "type", type)
        setfield(self, "residue_transcendental", residue_transcendental)
        setfield(self, "value_group_extended", value_group_extended)


def classify(x) -> PointClassification:
    """The 4-type classification of a point of the disc."""
    if isinstance(x, ChainPoint):
        return PointClassification(4)
    if not isinstance(x, DiscPoint):
        raise MalformedChain(f"not a point: {x!r}")
    if x.s.is_infinite:
        return PointClassification(1)
    if x.s.e == 0:
        return PointClassification(2, residue_transcendental=True)
    return PointClassification(3, value_group_extended=True)


def meet(x: DiscPoint, y: DiscPoint) -> DiscPoint:
    """Smallest disc containing both; the ultrametric join in the tree."""
    if not isinstance(x, DiscPoint) or not isinstance(y, DiscPoint):
        raise MalformedChain("meet is defined on disc points")
    s = min(x.s, y.s, _dist(x.center, y.center))
    return DiscPoint(x.center, s)


class CoordVector(Record):
    """Retraction coordinates (s_a)_{a in A} of a point, in log scale."""

    _fields = ("index", "values")

    def __init__(self, index: tuple, values: tuple):
        setfield(self, "index", index)    # centers a in A
        setfield(self, "values", values)  # LogValue per a

    def check_tree_inequalities(self) -> bool:
        """Both retraction constraints, transcribed to log scale:
        s_a >= min(s_b, v(a-b)) and v(a-b) >= min(s_a, s_b)."""
        n = len(self.index)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                d = _dist(self.index[i], self.index[j])
                si, sj = self.values[i], self.values[j]
                if si < min(sj, d):
                    return False
                if d < min(si, sj):
                    return False
        return True


def coords(x, A) -> CoordVector:
    """Retract a point onto the finite tree indexed by the centers A.

    Chain points are read off at their last disc; entries for centers still
    inside that disc reflect the truncation depth, everything else is settled.
    """
    A = tuple(A)
    for a in A:
        if a.valuation_lower_bound() < 0:
            raise PointOutsideDisc(f"index center {a!r} outside the unit ball")
    if isinstance(x, ChainPoint):
        x = x.last
    if not isinstance(x, DiscPoint):
        raise MalformedChain(f"not a point: {x!r}")
    if x.center.valuation_lower_bound() < 0:
        raise PointOutsideDisc("point center outside the unit disc")
    return CoordVector(A, tuple(min(x.s, _dist(x.center, a)) for a in A))


def restrict_coords(cv: CoordVector, A) -> CoordVector:
    """Componentwise restriction to a sub-index; inverse-limit transition map."""
    A = tuple(A)
    pos = []
    for a in A:
        hit = next((i for i, b in enumerate(cv.index)
                    if _within(a, b, INFINITY)), None)
        if hit is None:
            raise IndexNotSubset(f"{a!r} is not in the larger index set")
        pos.append(hit)
    return CoordVector(A, tuple(cv.values[i] for i in pos))


def eval_point(f, x) -> LogValue:
    """Valuation of the polynomial f at the point x.

    For chain points f is written once at the last disc's center, where a
    root count certifies that no refinement inside it can move the value.
    """
    if isinstance(x, DiscPoint):
        return gauss_valuation(f, x.center, x.s)
    if isinstance(x, ChainPoint):
        last = x.last
        g = f.recenter(last.center)
        if not g.is_zero() and root_count_annulus(g, last.s):
            raise ChainNotStabilized(
                "f has roots inside the last chain disc; value still moving",
                witness={"s": str(last.s)})
        return gauss_valuation(g, None, last.s)
    raise MalformedChain(f"not a point: {x!r}")
