"""Leading classes and certification witnesses against the argmin search
and the Newton hull they replace.

``reference_units`` keeps ``leading_class`` as it was while it searched for
a radius s + h*eps at which each side has a unique argmin (per-term
``RefLogValue`` comparisons), and ``_witness_disc`` as it was while it read
a whole Newton hull.  Seeded cases over Q((t)), F_2((t)), F_3((t)) and Q_3,
10,000 for each query; domain radii have eps parts -2, -1, -1/2, 0, 1/2 and
1, or are +infinity, and q often lies on a slope of one side, so that its
supporting line holds several terms.

- ``leading_class``, on nonzero numerators with 30% truncated
  coefficients: the same class, or an error of the same type, message and
  witness.  The reference never returns on a zero numerator.
- ``reduced_unit``, with 50% truncated coefficients: the outcome with the
  reference witness patched in is the parent's.  It is the same, except
  where the hull raised PrecisionExhausted after a count had proved a root
  on the domain.  Each such case raises VanishesOnDomain, and so does every
  one of 8 exact completions (``completion.py``), with the same message;
  its witness equals theirs unless it is the bounding radius, the form
  taken when a truncated coefficient leaves the largest root valuation
  undecided.
"""

import random
from fractions import Fraction

import pytest

import reference_gauss
import reference_units as ref
from completion import complete_function
from berkline import (INFINITY, Domain, ExcludedDisc, LogValue, PadicField,
                      Polynomial, PuiseuxField, RationalFunction, units)
from berkline.errors import (BadDomain, BerkError, PrecisionExhausted,
                             VanishesOnDomain)
from reference_logvalue import RefLogValue
from test_lattice_routes import EXPONENTS, rand_elem

FIELDS = {
    "Q((t))": PuiseuxField(0),
    "F_2((t))": PuiseuxField(2),
    "F_3((t))": PuiseuxField(3),
    "Q_3": PadicField(3),
}
CASES_PER_FIELD = 2500  # per query: 10,000 over the four fields
EPS = [Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0),
       Fraction(1, 2), Fraction(1)]
CUTS = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2)]


def _padic(fld):
    return isinstance(fld, PadicField)


def _coeff(rng, fld, share, nonzero=False):
    return _blur(rng, rand_elem(rng, fld, nonzero), share)


def _poly(rng, fld, share, lo, hi, center):
    """Dense of degree lo..hi, or a product of linear factors around the
    center (several slopes, sometimes a root at the center itself)."""
    if rng.random() < 0.3:
        exps = range(-2, 3) if _padic(fld) else EXPONENTS
        c = center if center is not None else fld.zero()
        roots = [c if rng.random() < 0.2 else
                 c + fld.t(rng.choice(exps), 1 + rng.randrange(2))
                 for _ in range(rng.randint(max(lo, 1), hi))]
        f = Polynomial.from_roots(fld, roots)
        coeffs = [_blur(rng, x, share) for x in f.coeffs]
    else:
        deg = rng.randint(lo, hi)
        coeffs = [_coeff(rng, fld, share) for _ in range(deg)]
        coeffs.append(_coeff(rng, fld, share, nonzero=True))
    return Polynomial.from_coeffs(fld, coeffs, center)


def _blur(rng, c, share):
    """c, truncated with probability ``share`` (never over Q_3): cut a little
    past its valuation, or a truncated zero O(t^p)."""
    if _padic(c.field) or rng.random() >= share:
        return c
    if c and rng.random() < 0.8:
        return c.truncated(c.valuation() + rng.choice(CUTS))
    return c.field.elem([], prec=rng.choice(EXPONENTS))


def _radius(rng, fld, polys, center):
    """+infinity, or (q, e) with q on a slope between two coefficient points
    of one side written at the center, or at random."""
    if rng.random() < 0.1:
        return INFINITY
    known, unknown = reference_gauss.coeff_values(rng.choice(polys), center)
    pts = known + unknown
    if len(pts) >= 2 and rng.random() < 0.6:
        (i, v), (j, w) = rng.sample(pts, 2)
        q = Fraction(v - w, j - i)
    else:
        q = rng.choice(EXPONENTS)
    if _padic(fld):
        q = Fraction(round(q))
    return LogValue(q, rng.choice(EPS))


def _class_outcome(fn, *args):
    try:
        lc = fn(*args)
    except BerkError as exc:
        return ("raises", type(exc), str(exc), exc.witness)
    w = None if lc.w is None else (type(lc.w.q), lc.w.q, type(lc.w.e), lc.w.e)
    return ("class", w, type(lc.res_q), lc.res_q, type(lc.res), lc.res,
            lc.modulus)


def _ties(f, dom):
    """Whether a side's supporting line at s.q holds several terms."""
    q = Fraction(0) if dom.s.is_infinite else dom.s.q
    return any(reference_gauss._unique_argmin(g.recenter(dom.center),
                                              RefLogValue(q)) is None
               for g in (f.num, f.den))


@pytest.mark.parametrize("name", FIELDS)
def test_leading_class_matches_the_argmin_search(name):
    fld = FIELDS[name]
    rng = random.Random(f"leading-class/{name}")
    seen = {}
    for _ in range(CASES_PER_FIELD):
        center = rng.choice([None, rand_elem(rng, fld)])
        f = RationalFunction(_poly(rng, fld, 0.3, 0, 4, center),
                             _poly(rng, fld, 0.3, 0, 3, center))
        if f.num.is_zero():
            continue
        c = center if center is not None and rng.random() < 0.5 else \
            rand_elem(rng, fld)
        dom = Domain(c, _radius(rng, fld, (f.num, f.den), c))
        got = _class_outcome(units.leading_class, f, dom)
        assert got == _class_outcome(ref.leading_class, f, dom), (f, dom)
        kind = "+inf" if dom.s.is_infinite else f"eps {dom.s.e}"
        if got[0] == "raises":
            kind = "raises"
        elif _ties(f, dom):
            kind += ", tie"
        seen[kind] = seen.get(kind, 0) + 1
    print(f"{name}: {seen}")
    for e in EPS:
        assert seen.get(f"eps {e}") and seen.get(f"eps {e}, tie"), (e, seen)
    assert seen.get("+inf"), seen
    assert seen.get("raises") or _padic(fld), seen


def _domain(rng, fld):
    """A bounding disc, +infinity or of a radius with an eps part, with 0-2
    holes."""
    c = rng.choice([fld.zero(), fld.one(), rand_elem(rng, fld)])
    if rng.random() < 0.1:
        return Domain(c, INFINITY)
    q = Fraction(rng.choice([-1, 0, 1] if _padic(fld) else
                            [-1, 0, Fraction(1, 2), 1]))
    s = LogValue(q, rng.choice(EPS))
    holes = []
    for _ in range(rng.randint(0, 2)):
        k = q + rng.choice([0, 1, 2])
        a = c if rng.random() < 0.2 else c + fld.t(k, 1 + rng.randrange(2))
        hole = ExcludedDisc(a, LogValue(k + rng.choice([1, 2]),
                                        rng.choice([0, 0, 1, -1])),
                            closed=rng.random() < 0.5)
        try:
            Domain(c, s, tuple(holes + [hole]))
        except BadDomain:
            continue
        holes.append(hole)
    return Domain(c, s, tuple(holes))


def _unit_outcome(f, dom):
    try:
        return units.reduced_unit(f, dom).certified
    except BerkError as exc:
        return ("raises", type(exc), str(exc), exc.witness)


@pytest.mark.parametrize("name", FIELDS)
def test_reduced_unit_matches_the_hull_witness(name, monkeypatch):
    fld = FIELDS[name]
    rng = random.Random(f"witness/{name}")
    completion_rng = random.Random(f"witness-completions/{name}")
    seen = {}
    for _ in range(CASES_PER_FIELD):
        dom = _domain(rng, fld)
        center = rng.choice([None, dom.center])
        f = RationalFunction(_poly(rng, fld, 0.5, 1, 4, center),
                             _poly(rng, fld, 0.5, 0, 2, center))
        got = _unit_outcome(f, dom)
        with monkeypatch.context() as m:
            m.setattr(units, "_witness_disc", ref._witness_disc)
            want = _unit_outcome(f, dom)
        if got == want:
            kind = want[1].__name__ if isinstance(want, tuple) else "certified"
        else:
            assert want[1] is PrecisionExhausted, (f, dom, got, want)
            assert want[2].endswith("could cut the hull"), (f, dom, want)
            assert got[1] is VanishesOnDomain, (f, dom, got)
            bounding = got[3]["s"] == str(dom.s)
            kind = "new, bounding radius" if bounding else "new, sigma"
            for _ in range(8):
                g = complete_function(completion_rng, f)
                exact = _unit_outcome(g, dom)
                assert exact[:3] == got[:3], (f, g, dom, got, exact)
                assert bounding or exact[3] == got[3], (f, g, dom, got, exact)
        seen[kind] = seen.get(kind, 0) + 1
    print(f"{name}: {seen}")
    assert seen.get("certified") and seen.get("VanishesOnDomain"), seen
    if not _padic(fld):
        assert seen.get("new, bounding radius") or seen.get("new, sigma"), seen
