"""Points of the Berkovich unit disc and the coordinate retraction.

A disc point D(a, s) is the multiplicative seminorm sending f to its Gauss
valuation at the disc of log-radius s around a; s = +infinity recovers the
classical point a (type 1).  Rational s (eps part zero) gives type 2, a
nonzero eps part gives type 3, and a strictly nested chain of discs with no
smallest member truncates a type-4 point.
"""

from __future__ import annotations

from ._record import Record, setfield
from .errors import ChainNotStabilized, MalformedChain, PointOutsideDisc
from .gauss import gauss_valuation, roots_in_disc
from .logvalue import INFINITY, LogValue, as_logvalue, trusted


class DiscPoint(Record):
    _fields = ("center", "s")

    def __init__(self, center, s: LogValue):
        setfield(self, "center", center)
        setfield(self, "s", as_logvalue(s))

    @property
    def is_classical(self) -> bool:
        return self.s.is_infinite

    def contains(self, other: "DiscPoint") -> bool:
        """Disc containment: other's disc lies inside this one."""
        if self.s > other.s:
            return False
        d = _dist(self.center, other.center)
        return d >= self.s

    def same_point(self, other) -> bool:
        if not isinstance(other, DiscPoint):
            return False
        if self.s != other.s:
            return False
        if self.s.is_infinite:
            return (self.center - other.center).is_zero()
        return _dist(self.center, other.center) >= self.s

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
    """Ultrametric log-distance v(a - b), +infinity when equal."""
    v = a.valuation_of_difference(b)
    # a Fraction, or the float INF for equal operands; a type test is far
    # cheaper than comparing a Fraction with a float
    return INFINITY if isinstance(v, float) else trusted(v)


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
        last = x.last
        vals = tuple(min(last.s, _dist(last.center, a)) for a in A)
        return CoordVector(A, vals)
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
        hit = next((i for i, b in enumerate(cv.index) if (a - b).is_zero()), None)
        if hit is None:
            from .errors import IndexNotSubset

            raise IndexNotSubset(f"{a!r} is not in the larger index set")
        pos.append(hit)
    return CoordVector(A, tuple(cv.values[i] for i in pos))


def eval_point(f, x) -> LogValue:
    """Valuation of the polynomial f at the point x.

    For chain points the value is taken at the last disc, after certifying
    via root counting that no further refinement inside that disc can move it.
    """
    if isinstance(x, DiscPoint):
        return gauss_valuation(f, x.center, x.s)
    if isinstance(x, ChainPoint):
        last = x.last
        if not f.is_zero() and roots_in_disc(f, last.center, last.s, closed=True):
            raise ChainNotStabilized(
                "f has roots inside the last chain disc; value still moving",
                witness={"s": str(last.s)},
            )
        return gauss_valuation(f, last.center, last.s)
    raise MalformedChain(f"not a point: {x!r}")
