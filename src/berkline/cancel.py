"""Divisor-level splitting data for the annulus construction.

Two zero-cycles on the closed annulus: the root-of-unity locus of total mass
N, and the solution locus of t**N = g(t), located by the Newton polygon of
t**N den(g) - num(g).  That polygon is built from the nonzero terms only, so
its cost does not grow with N.  The mass difference of the two loci,
component by component of a section, is the splitting delta; for g = t it
returns the original section once, and for g = 1 it vanishes.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record, setfield
from .errors import BoundarySolution, ResourceLimit, ZeroPolynomial
from .field import _vp
from .gauss import NewtonPolygon, _classify, _polygon
from .logvalue import LogValue, ZERO, as_logvalue
from .poly import Polynomial, RationalFunction
from .units import Domain, ExcludedDisc, require_unit


class Divisor(Record):
    """Formal sum of valuation classes with nonzero multiplicities."""

    _fields = ("entries",)

    def __init__(self, entries: tuple):  # ((LogValue, int), ...)
        if not (type(entries) is tuple and all(
                isinstance(s, LogValue) and type(m) is int and m
                for s, m in entries)):
            entries = tuple((as_logvalue(s), int(m)) for s, m in entries if m)
        setfield(self, "entries", entries)

    @property
    def total_mass(self) -> int:
        return sum(m for _, m in self.entries)


def trusted_divisor(entries: tuple) -> Divisor:
    """The Divisor of a tuple of (LogValue, nonzero int) pairs, built
    without the scan that ``Divisor(entries)`` makes."""
    d = object.__new__(Divisor)
    setfield(d, "entries", entries)
    return d


class AnnulusSpec(Record):
    """Closed annulus s_hi <= v <= s_lo (radii 2**-s_lo <= |t| <= 2**-s_hi)."""

    _fields = ("s_lo", "s_hi")

    def __init__(self, s_lo: LogValue, s_hi: LogValue):
        setfield(self, "s_lo", as_logvalue(s_lo))
        setfield(self, "s_hi", as_logvalue(s_hi))
        if not self.s_hi < self.s_lo:
            raise ValueError("annulus needs s_hi < s_lo")

    def domain(self, fld) -> Domain:
        center = fld.zero()
        return Domain(center, self.s_hi,
                      (ExcludedDisc(center, self.s_lo, closed=False),))


UNIT_ANNULUS = AnnulusSpec(s_lo=LogValue(Fraction(1)), s_hi=LogValue(Fraction(-1)))

# The most entries y1_divisor builds, one per residue ball, before it raises
# ResourceLimit.  At the cap the CLI prints some 33 MB of JSON.
Y1_ENTRY_CAP = 10**6


def y1_divisor(N: int, fld) -> Divisor:
    """The root-of-unity locus t**N = 1 at the residue level.

    In residue characteristic p with p**a || N the N-th roots of unity
    collapse into N / p**a residue balls of multiplicity p**a each; total
    mass is always N.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    p = fld.residue_char
    mult = p ** _vp(N, p) if p else 1
    if N // mult > Y1_ENTRY_CAP:
        raise ResourceLimit(f"Y1 needs more than {Y1_ENTRY_CAP} entries",
                            witness=Y1_ENTRY_CAP)
    return trusted_divisor(((ZERO, mult),) * (N // mult))


def _solution_polygon(num: Polynomial, den: Polynomial, N: int) -> NewtonPolygon:
    """Newton polygon of P = T**N den - num, built from its nonzero terms.

    Adding an exact zero changes no coefficient, precision included, so this
    is the polygon of the dense P, at a cost independent of N.
    """
    terms = {i: -c for i, c in enumerate(num.coeffs)}
    for j, c in enumerate(den.coeffs):
        terms[N + j] = c + terms[N + j] if N + j in terms else c
    known, unknown = _classify(sorted(terms.items()))
    if not known and not unknown:
        raise ZeroPolynomial("the zero polynomial has no Newton polygon")
    return _polygon(known, unknown, max(pt[0] for pt in known + unknown))


def y2_divisor(g: RationalFunction, N: int, ann: AnnulusSpec) -> Divisor:
    """Valuation-level divisor of the solutions of t**N = g(t) in the annulus.

    g must be certified invertible on the closed annulus; a solution class
    landing exactly on an annulus edge raises BoundarySolution, meaning N is
    not yet large enough for the locus to clear the boundary.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    fld = g.field
    center = fld.zero()
    g = g.recenter(center)
    require_unit(g, ann.domain(fld))
    np_ = _solution_polygon(g.num, g.den, N)
    entries = []
    for sigma, width in np_.root_valuations():
        lv = LogValue(sigma)
        if lv == ann.s_lo or lv == ann.s_hi:
            raise BoundarySolution(
                f"solution class at valuation {sigma} sits on the annulus "
                f"boundary; increase N",
                witness={"s": str(sigma), "width": width},
            )
        if ann.s_hi < lv < ann.s_lo:
            entries.append((lv, width))
    return Divisor(tuple(entries))


class SectionComponent(Record):
    _fields = ("u", "g", "mult")

    def __init__(self, u: str, g: RationalFunction, mult: int):
        setfield(self, "u", u)  # constant marker into U
        setfield(self, "g", g)  # the reduced-unit component over the annulus
        setfield(self, "mult", mult)


class SectionData(Record):
    """A constant-u section of Sym^k(U x units) over the annulus."""

    _fields = ("k", "components")

    def __init__(self, k: int, components: tuple):
        setfield(self, "k", k)
        setfield(self, "components", components)
        if sum(c.mult for c in self.components) != self.k:
            raise ValueError("component multiplicities must sum to k")
        if any(c.mult <= 0 for c in self.components):
            raise ValueError("multiplicities must be positive")


def splitting_delta(section: SectionData, N: int, ann: AnnulusSpec):
    """mass(Y1) - mass(Y2) per component, as a formal sum over the u markers.

    For g = t each component contributes its own multiplicity (the splitting
    returns the original section); for g = 1 the contribution is zero.
    """
    out = []
    for comp in section.components:
        # y1_divisor(N, fld).total_mass is always N
        m2 = y2_divisor(comp.g, N, ann).total_mass
        coef = comp.mult * (N - m2)
        if coef:
            out.append((comp.u, coef))
    return tuple(out)
