"""Homotopy, exterior degree and direction slopes against the reference.

``reference_units`` keeps the previous decision and counting code: a
homotopy check that walks every Newton-polygon breakpoint on the path to each
hole, and an exterior degree that counts roots beyond the bounding disc.  The
library decides homotopy on the Shilov boundary alone and reads the exterior
and "up" degrees from deg(div f) = 0.  Seeded random domains over Q((t)),
F_2((t)), F_3((t)) and Q_3 with 0-3 holes (closed, open and punctured),
functions with complete, partial or no root lists, exact and truncated
coefficients:

- on exact inputs every result, and the type of every error, is the same;
- on truncated inputs exterior degrees and slopes are the same, a homotopy
  verdict never flips where both answer, and where only the library answers
  True (the reference ran out of precision at a point it no longer visits),
  v(h) > 0 at every sampled domain point where the data decides it.
"""

import random
from fractions import Fraction

import pytest

import reference_units as ref
from berkline import (INFINITY, Domain, ExcludedDisc, LogValue, PadicField,
                      Polynomial, PuiseuxField, RationalFunction,
                      gauss_valuation, units)
from berkline.errors import (BadDomain, BerkError, NotCertified,
                             PrecisionExhausted)
from berkline.logvalue import ZERO
from berkline.points import DiscPoint, _dist
from berkline.units import homotopy_check

FIELDS = {
    "Q((t))": PuiseuxField(0),
    "F_2((t))": PuiseuxField(2),
    "F_3((t))": PuiseuxField(3),
    "Q_3": PadicField(3),
}
CASES_PER_FIELD = 400


def _outcome(fn):
    """The result of fn(), or the type of the error it raised."""
    try:
        return fn()
    except (BerkError, ValueError) as exc:
        return type(exc)


def _padic(fld):
    return isinstance(fld, PadicField)


def _unit(rng, fld):
    if _padic(fld):
        return rng.choice([1, -1, 2, 4, -5, Fraction(1, 2), Fraction(7, 5)])
    if fld.char:
        return rng.randrange(1, fld.char)
    return rng.choice([1, -1, 2, -3, Fraction(1, 2)])


def _exp(rng, fld, lo):
    """An exponent at or a little above lo, in the field's value group."""
    step = 1 if _padic(fld) else rng.choice([1, 1, 2, 3])
    return lo + Fraction(rng.randint(0, 2 * step), step)


def _mono(rng, fld, q):
    return fld.t(q, _unit(rng, fld))


def _domain(rng, fld):
    """A bounding disc with 0-3 pairwise disjoint holes."""
    c = rng.choice([fld.zero(), fld.one(), fld.t(1),
                    fld.constant(_unit(rng, fld)) + fld.t(2)])
    s0 = Fraction(rng.choice([-1, 0, 1] if _padic(fld) else
                             [-1, 0, Fraction(1, 2), 1]))
    holes = []
    for _ in range(rng.randint(0, 3)):
        k = _exp(rng, fld, s0)
        a = c if rng.random() < 0.2 else c + _mono(rng, fld, k)
        kind = rng.choice(["closed", "open", "punctured"])
        if kind == "punctured":
            hole = ExcludedDisc(a, INFINITY, closed=True)
        else:
            width = Fraction(rng.choice([1, 2]) if _padic(fld) else
                             rng.choice([Fraction(1, 2), 1, 2]))
            e = rng.choice([0, 0, 0, 1, -1])
            hole = ExcludedDisc(a, LogValue(k + width, e),
                                closed=kind == "closed")
        try:
            Domain(c, LogValue(s0), tuple(holes + [hole]))
        except BadDomain:
            continue
        holes.append(hole)
    return Domain(c, LogValue(s0), tuple(holes))


def _on_domain(dom, a, s=INFINITY):
    """Whether the disc point D(a, s) lies on the domain; s = inf for the
    classical point a."""
    def v(center):
        return min(s, _dist(a, center))
    return v(dom.center) >= dom.s and not any(
        v(d.center) >= d.s if d.closed else v(d.center) > d.s
        for d in dom.excluded)


def _root(rng, fld, dom, allow_domain):
    """A root in a hole or beyond the bounding disc; anywhere in the disc
    when allow_domain (the function then fails certification)."""
    while True:
        pick = rng.random()
        if pick < 0.3 or not dom.excluded:
            z = dom.center + _mono(rng, fld, dom.s.q - rng.choice([1, 2]))
        else:
            d = rng.choice(dom.excluded)
            if d.s.is_infinite or rng.random() < 0.2:
                z = d.center
            else:
                z = d.center + _mono(rng, fld, _exp(rng, fld, d.s.q - 1))
        if allow_domain or not _on_domain(dom, z):
            return z


def _lead(rng, fld):
    q = rng.choice([0, 0, 1, -1])
    return fld.t(q, _unit(rng, fld))


def _function(rng, fld, num_roots, den_roots, lead, lists, center):
    num = Polynomial.from_roots(fld, num_roots, center, lead)
    den = Polynomial.from_roots(fld, den_roots, center)
    if lists == "none":
        return RationalFunction(num, den)
    if lists == "partial" and (num_roots or den_roots):
        if num_roots:
            num_roots = num_roots[1:]
        else:
            den_roots = den_roots[1:]
    return RationalFunction(num, den, num_roots=tuple(num_roots),
                            den_roots=tuple(den_roots))


def _truncate(rng, fld, g: Polynomial) -> Polynomial:
    """g with some coefficients known only to a few terms past their
    valuation, and sometimes an exact zero replaced by a truncated one."""
    coeffs = []
    for c in g.coeffs:
        if c.is_zero():
            if rng.random() < 0.1:
                c = fld.elem([], rng.choice([2, 3, 4, 6]))
        elif rng.random() < 0.4:
            c = c.truncated(c.valuation() + rng.choice([Fraction(1, 2), 1, 2, 3, 5]))
        coeffs.append(c)
    return Polynomial(g.center, tuple(coeffs))


def _case(rng, fld):
    dom = _domain(rng, fld)
    bad = rng.random() < 0.1
    center = rng.choice([None, dom.center])
    lists = rng.choice(["full", "full", "none", "partial"])
    zs = [_root(rng, fld, dom, bad) for _ in range(rng.randint(0, 3))]
    ps = [_root(rng, fld, dom, False) for _ in range(rng.randint(0, 2))]
    lead = _lead(rng, fld)
    f0 = _function(rng, fld, zs, ps, lead, lists, center)
    mode = rng.random()
    if mode < 0.55:
        # move each root a little, staying off the domain, and perturb the
        # leading constant
        def move(z):
            for _ in range(5):
                w = z + _mono(rng, fld, _exp(rng, fld, dom.s.q + rng.randint(0, 3)))
                if bad or not _on_domain(dom, w):
                    return w
            return z
        lead1 = lead * rng.choice([fld.one() + _mono(rng, fld, rng.choice([1, 2])),
                                   fld.constant(_unit(rng, fld))])
        f1 = _function(rng, fld, [move(z) for z in zs], [move(p) for p in ps],
                       lead1, lists, center)
    elif mode < 0.8:
        f1 = _function(rng, fld,
                       [_root(rng, fld, dom, bad) for _ in range(rng.randint(0, 3))],
                       [_root(rng, fld, dom, False) for _ in range(rng.randint(0, 2))],
                       _lead(rng, fld), lists, center)
    else:
        # times 1 + a t^k T^j: a one-unit on the disc exactly when k > 0
        j = rng.randint(1, 2)
        pert = Polynomial.from_coeffs(
            fld, [fld.one()] + [fld.zero()] * (j - 1)
            + [_mono(rng, fld, rng.choice([0, 1, 2]) - j * dom.s.q)],
            dom.center)
        f1 = RationalFunction(f0.num * pert.recenter(f0.num.center), f0.den)
    truncated = not _padic(fld) and rng.random() < 0.4
    if truncated:
        f0, f1 = (RationalFunction(_truncate(rng, fld, f.num),
                                   _truncate(rng, fld, f.den),
                                   num_roots=f.num_roots, den_roots=f.den_roots)
                  for f in (f0, f1))
    centers = [dom.center] + [d.center for d in dom.excluded] + list(zs)
    x = DiscPoint(rng.choice(centers),
                  LogValue(_exp(rng, fld, dom.s.q), rng.choice([0, 0, 0, 0, 1])))
    directions = None if rng.random() < 0.5 else \
        rng.sample(centers, rng.randint(0, len(centers)))
    return dict(f0=f0, f1=f1, dom=dom, x=x, directions=directions,
                truncated=truncated)


def _cases(name):
    rng = random.Random(f"units-reference/{name}")
    fld = FIELDS[name]
    return [_case(rng, fld) for _ in range(CASES_PER_FIELD)]


def _queries(case, mod):
    f0, f1, dom, x = case["f0"], case["f1"], case["dom"], case["x"]
    return {
        "homotopy": lambda: mod.homotopy_check(f0, f1, dom),
        "exterior f0": lambda: mod.exterior_degree(f0, dom),
        "exterior f1": lambda: mod.exterior_degree(f1, dom),
        "slopes f0": lambda: mod.direction_slopes(f0, x, case["directions"]),
        "slopes f1": lambda: mod.direction_slopes(f1, x, case["directions"]),
    }


def _v_h(f0, f1, a, s):
    """v(f1/f0 - 1) at the disc point D(a, s)."""
    n0, d0, n1, d1 = (g.recenter(a) for g in (f0.num, f0.den, f1.num, f1.den))
    return (gauss_valuation(n1 * d0 - n0 * d1, None, s)
            - gauss_valuation(n0 * d1, None, s))


def _sampled_points(rng, case, count=40):
    """Domain points near the bounding point and the holes' boundaries."""
    dom = case["dom"]
    fld = dom.center.field
    out = []
    for _ in range(count * 5):
        d = rng.choice((None,) + dom.excluded)
        a = dom.center if d is None else d.center
        a = a + _mono(rng, fld, _exp(rng, fld, dom.s.q)) if rng.random() < 0.3 else a
        hi = dom.s.q + 3 if d is None or d.s.is_infinite else d.s.q
        s = LogValue(rng.choice([dom.s.q, hi, (dom.s.q + hi) / 2]),
                     rng.choice([0, -1, 1]))
        if _on_domain(dom, a, s):
            out.append((a, s))
        if len(out) == count:
            break
    return out


@pytest.mark.parametrize("name", FIELDS)
def test_exact_inputs_match_reference(name):
    verdicts = set()
    for case in _cases(name):
        if case["truncated"]:
            continue
        new, old = _queries(case, units), _queries(case, ref)
        for key in new:
            got, want = _outcome(new[key]), _outcome(old[key])
            assert got == want, (key, case)
            if key == "homotopy":
                verdicts.add(want)
    # the battery reaches both verdicts and the uncertified error path
    assert {True, False, NotCertified} <= verdicts


@pytest.mark.parametrize("name", [n for n in FIELDS if n != "Q_3"])
def test_truncated_inputs_never_flip(name):
    rng = random.Random(f"samples/{name}")
    answered = 0
    for case in _cases(name):
        if not case["truncated"]:
            continue
        new, old = _queries(case, units), _queries(case, ref)
        for key in ("exterior f0", "exterior f1", "slopes f0", "slopes f1"):
            assert _outcome(new[key]) == _outcome(old[key]), (key, case)
        got, want = _outcome(new["homotopy"]), _outcome(old["homotopy"])
        if isinstance(got, bool) and isinstance(want, bool):
            assert got == want, case
        elif want is PrecisionExhausted and isinstance(got, bool):
            answered += 1
            if got:
                _check_by_sampling(rng, case)
    print(f"{name}: {answered} truncated cases answered where the reference "
          "raised PrecisionExhausted")


def _check_by_sampling(rng, case):
    """v(h) > 0 wherever the truncated data decides it at a sampled point."""
    values = []
    for a, s in _sampled_points(rng, case):
        try:
            values.append(_v_h(case["f0"], case["f1"], a, s))
        except PrecisionExhausted:
            pass
    assert values, case
    assert all(v > ZERO for v in values), case


def test_answers_where_reference_ran_out_of_precision():
    # h = O(t^3) T + t T^2 on v(z) >= 0 minus the closed disc D(0, 2): the
    # reference builds h's Newton polygon at the hole's center, where the
    # unknown linear coefficient could cut the hull.  v(h) is 1 at the
    # bounding point and 5 - 2 eps at the hole's Shilov point, and both are
    # decided whatever that coefficient is
    fld = FIELDS["Q((t))"]
    one = Polynomial.from_coeffs(fld, [1])
    dom = Domain(fld.zero(), LogValue(0),
                 (ExcludedDisc(fld.zero(), LogValue(2), closed=True),))
    f0 = RationalFunction(one, one)
    f1 = RationalFunction(Polynomial.from_coeffs(
        fld, [fld.one(), fld.elem([], 3), fld.t(1)]), one)
    case = dict(f0=f0, f1=f1, dom=dom)
    with pytest.raises(PrecisionExhausted):
        ref.homotopy_check(f0, f1, dom)
    assert homotopy_check(f0, f1, dom) is True
    _check_by_sampling(random.Random(3), case)
    assert _v_h(f0, f1, fld.zero(), LogValue(0)) == LogValue(1)
    assert _v_h(f0, f1, fld.zero(), LogValue(2, -1)) == LogValue(5, -2)
