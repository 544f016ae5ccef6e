"""Homotopy, exterior degree and direction slopes against the reference.

``reference_units`` keeps the previous decision and counting code: a
homotopy check that walks every Newton-polygon breakpoint on the path to each
hole, an exterior degree that counts roots beyond the bounding disc, and disc
counts that read a whole Newton hull.  The library decides homotopy on the
Shilov boundary alone, reads the exterior and "up" degrees from
deg(div f) = 0, and counts the roots in a disc off the supporting line at its
center; it builds no hull for any of them.  Seeded random domains over
Q((t)), F_2((t)), F_3((t)) and Q_3 with 0-3 holes (closed, open and
punctured), functions with complete, partial or no root lists, exact and
truncated coefficients:

- on exact inputs every result, and the type of every error, is the same;
- on truncated inputs exterior degrees and slopes are the same where the
  reference answers; where its hull ran out of precision and the library
  answers, the reference gives the same degrees on 8 sampled exact
  completions of the function (``completion.py``).  An answer never becomes
  an error, and a homotopy verdict never flips where both answer.  Against
  ``ref.shilov_homotopy_check``, the Shilov-boundary decision by products
  that leading forms replaced, an answer never becomes an error, both raise
  the same error where both raise, and where only the library answers (the
  products ran out of precision) the reference gives the same verdict on 8
  sampled exact completions of f0 and f1 (``completion.py``).

``_certify`` and ``direction_slopes`` place a certified root list in one
pass; ``ref.certify_by_counts`` and ``ref.slopes_by_counts`` count it once
per disc, as they did before.  On seeded cases built around the edges of
that placement (ties at a radius, repeated roots, repeated and outside
directions, wrong, partial and truncated lists) both give the same results,
slope key order, error types, messages and witnesses.
"""

import random
from fractions import Fraction

import pytest

import reference_units as ref
from completion import complete_function
from berkline import (INFINITY, Domain, ExcludedDisc, LogValue, PadicField,
                      Polynomial, PuiseuxField, RationalFunction,
                      gauss_valuation, units)
from berkline.errors import (BadDomain, BerkError, NotCertified,
                             PrecisionExhausted, VanishesOnDomain)
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
    rng = random.Random(f"completions/{name}")
    count_rng = random.Random(f"count-completions/{name}")
    answered = counted = 0
    for case in _cases(name):
        if not case["truncated"]:
            continue
        new, old = _queries(case, units), _queries(case, ref)
        for key in ("exterior f0", "exterior f1", "slopes f0", "slopes f1"):
            got, want = _outcome(new[key]), _outcome(old[key])
            if want is PrecisionExhausted and not isinstance(got, type):
                # the hull ran out of precision, the supporting line did not
                counted += 1
                _check_degrees_by_completion(count_rng, case, key, got)
            else:
                assert got == want, (key, case)
        got, want = _outcome(new["homotopy"]), _outcome(old["homotopy"])
        if isinstance(got, bool) and isinstance(want, bool):
            assert got == want, case
        by_products = _outcome(lambda: ref.shilov_homotopy_check(
            case["f0"], case["f1"], case["dom"]))
        if isinstance(by_products, bool) or not isinstance(got, bool):
            # no verdict flips, no answered case becomes an error, and
            # where both raise, they raise the same error
            assert got == by_products, case
        else:
            assert by_products is PrecisionExhausted, case
            answered += 1
            _check_by_completion(rng, case, got)
    print(f"{name}: {answered} truncated cases answered where the "
          "Shilov-boundary check by products raised PrecisionExhausted, "
          f"{counted} exterior degrees and slopes where the hull counts did")


def _check_degrees_by_completion(rng, case, key, answer, count=8):
    """The reference gives the same exterior degree or slopes on every
    sampled exact completion; the directions a root list gave are kept."""
    query, which = key.split()
    f = case[which]
    directions = case["directions"]
    if directions is None:
        directions = list(f.num_roots) + list(f.den_roots)
    for _ in range(count):
        g = complete_function(rng, f)
        if query == "exterior":
            assert ref.exterior_degree(g, case["dom"]) == answer, (key, case, g)
        else:
            assert ref.direction_slopes(g, case["x"], directions) == answer, \
                (key, case, g)


def _check_by_completion(rng, case, verdict, count=8):
    """The reference decides every sampled exact completion the same way."""
    for _ in range(count):
        f0, f1 = (complete_function(rng, case[k]) for k in ("f0", "f1"))
        assert ref.homotopy_check(f0, f1, case["dom"]) is verdict, (case, f0, f1)


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


def test_not_certified_before_precision():
    # f1 = 1 + O(t^0) T + T^2 has two roots of valuation 0, on v(z) >= 0,
    # which its Newton polygon certifies whatever the linear coefficient
    # is.  At the bounding point that coefficient lies on the supporting
    # line, so the leading-form check runs out of precision; the numerator
    # is then certified, and its NotCertified comes first, as before
    fld = FIELDS["Q((t))"]
    one = Polynomial.from_coeffs(fld, [1])
    num = Polynomial(fld.zero(), (fld.one(), fld.elem([], 0), fld.one()))
    dom = Domain(fld.zero(), LogValue(0))
    f0, f1 = RationalFunction(one, one), RationalFunction(num, one)
    with pytest.raises(PrecisionExhausted):
        units._forms_agree(num, one, one, one, LogValue(0), 0)
    for check in (homotopy_check, ref.shilov_homotopy_check):
        with pytest.raises(NotCertified):
            check(f0, f1, dom)


# -- one-pass placement against the per-disc counts it replaced ------------

PLACEMENT_CASES = 300


def _full(exc):
    """(type, message, witness) of an error."""
    return type(exc), str(exc), getattr(exc, "witness", None)


def _answer(fn):
    """fn()'s value, a dict as its item list (key order counts), or the
    type, message and witness of its error."""
    try:
        out = fn()
    except (BerkError, ValueError) as exc:
        return _full(exc)
    return list(out.items()) if isinstance(out, dict) else out


def _copy(z):
    """An element equal to z that is another object."""
    return type(z)(*z._values(z))


def _at_radius(rng, fld, center, s):
    """A point at distance exactly s.q from center."""
    return center + fld.t(s.q, _unit(rng, fld))


def _placement_roots(rng, fld, dom, tags):
    """Roots around the domain: beyond it, in its holes, on the boundary of
    a hole or of the bounding disc, and repeated, as one object or as equal
    ones; off the domain unless the case lets certification fail."""
    on_domain_ok = rng.random() < 0.3
    out = []
    for _ in range(rng.randint(0, 5)):
        pick = rng.random()
        finite = [d for d in dom.excluded if not d.s.is_infinite]
        if pick < 0.15 and out:
            z = rng.choice(out)
            tags.add("repeated object")
        elif pick < 0.3 and out:
            z = _copy(rng.choice(out))
            tags.add("repeated equal")
        elif pick < 0.45 and finite:
            d = rng.choice(finite)
            z = _at_radius(rng, fld, d.center, d.s)
        elif pick < 0.55:
            z = _at_radius(rng, fld, dom.center, dom.s)
        else:
            z = _root(rng, fld, dom, on_domain_ok)
        if on_domain_ok or not _on_domain(dom, z):
            out.append(z)
    return out


def _placement_function(rng, fld, dom, tags):
    zs = _placement_roots(rng, fld, dom, tags)
    ps = _placement_roots(rng, fld, dom, tags)
    kind = rng.choice(["full"] * 5 + ["partial", "none", "wrong", "zero"]
                      + ([] if _padic(fld) else ["truncated"]))
    center = rng.choice([None, dom.center])
    one = Polynomial.from_coeffs(fld, [1], center)
    if kind == "zero":
        tags.add("zero")
        return RationalFunction(Polynomial(one.center, ()), one)
    f = _function(rng, fld, zs, ps, _lead(rng, fld),
                  "full" if kind in ("wrong", "truncated") else kind, center)
    if kind == "wrong" and not (zs or ps):
        kind = "full"
    if kind == "wrong":
        # one listed root replaced by a point that is not a root
        lists = {"num_roots": list(f.num_roots), "den_roots": list(f.den_roots)}
        listed = lists["num_roots" if zs else "den_roots"]
        i = rng.randrange(len(listed))
        listed[i] = listed[i] + fld.t(dom.s.q + 7, 1)
        f = RationalFunction(f.num, f.den, **{k: tuple(v)
                                              for k, v in lists.items()})
    elif kind == "truncated":
        f = RationalFunction(_truncate(rng, fld, f.num),
                             _truncate(rng, fld, f.den),
                             num_roots=f.num_roots, den_roots=f.den_roots)
    tags.add(kind)
    return f


def _placement_point(rng, fld, dom, f):
    """A disc point centred at a hole, the bounding center or a root, its
    radius often the distance to a listed root."""
    roots = list(f.num_roots) + list(f.den_roots)
    c = rng.choice([dom.center] + [d.center for d in dom.excluded] + roots)
    dists = [_dist(r, c) for r in roots]
    finite = [d.q for d in dists if not d.is_infinite]
    if finite and rng.random() < 0.6:
        q = rng.choice(finite)
    else:
        q = _exp(rng, fld, dom.s.q)
    return DiscPoint(c, LogValue(q, rng.choice([0] * 8 + [1])))


def _placement_directions(rng, fld, dom, f, x, tags):
    """None, or directions drawn from the roots and centers, with some
    outside the closed disc at x and some repeated."""
    if rng.random() < 0.4:
        return None
    pool = list(f.num_roots) + list(f.den_roots) + [x.center] + \
        [d.center for d in dom.excluded]
    out = rng.sample(pool, rng.randint(0, len(pool)))
    if not x.s.is_infinite and rng.random() < 0.4:
        out.append(x.center + fld.t(x.s.q - 1, _unit(rng, fld)))
        tags.add("direction outside")
    if out and rng.random() < 0.4:
        b = rng.choice(out)
        out.insert(rng.randint(0, len(out)),
                   rng.choice([b, _copy(b), b + fld.t(x.s.q + 1, 1)]))
        tags.add("direction repeated")
    return out


def _ties(f, centers_radii):
    """Whether a listed root lies at distance exactly s from a center."""
    return any(not s.is_infinite and _dist(r, c) == LogValue(s.q)
               for r in list(f.num_roots) + list(f.den_roots)
               for c, s in centers_radii)


@pytest.mark.parametrize("name", FIELDS)
def test_one_pass_placement_matches_per_disc_counts(name):
    """``_certify`` and ``direction_slopes`` place each certified root in
    one pass; the per-disc counts they replaced give the same results, the
    same slope key order, and the same error types, messages and
    witnesses, whatever sides are asked for and whether an ``at`` memo
    writes the polynomials."""
    rng = random.Random(f"placement/{name}")
    fld = FIELDS[name]
    seen = set()
    for _ in range(PLACEMENT_CASES):
        tags = set()
        dom = _domain(rng, fld)
        f = _placement_function(rng, fld, dom, tags)
        sides = rng.choice([("num", "den")] * 3 + [("num",), ("den",), ()])
        at = rng.choice([None, lambda g, c: g.recenter(c)])
        error = rng.choice([NotCertified, VanishesOnDomain])
        got = _answer(lambda: units._certify(f, dom, error, at, sides))
        want = _answer(lambda: ref.certify_by_counts(f, dom, error, at, sides))
        assert got == want, (f, dom, sides)
        certified = "full" in tags
        if certified and isinstance(got, list):
            for d, *counts in zip(dom.excluded, *got):
                if any(counts):
                    seen.add(("placed", "punctured" if d.s.is_infinite
                              else "closed" if d.closed else "open"))
            if _ties(f, [(d.center, d.s) for d in dom.excluded]
                     + [(dom.center, dom.s)]):
                seen.add("tie, certified")
        elif certified:
            seen.add(("raised", got[0].__name__))

        x = _placement_point(rng, fld, dom, f)
        directions = _placement_directions(rng, fld, dom, f, x, tags)
        got = _answer(lambda: units.direction_slopes(f, x, directions))
        want = _answer(lambda: ref.slopes_by_counts(f, x, directions))
        assert got == want, (f, x, directions)
        if isinstance(got, list):
            if certified and _ties(f, [(x.center, x.s)]):
                seen.add("tie, slopes")
            if dict(got).get("other"):
                seen.add("other")
            seen |= {(t, "slopes") for t in tags}
        else:
            seen.add(("slopes raised", got[0].__name__))
        seen |= tags
    kinds = {"repeated object", "repeated equal", "direction outside",
             "direction repeated", "partial", "none", "wrong", "zero",
             "tie, certified", "tie, slopes", "other",
             ("placed", "closed"), ("placed", "open"),
             ("placed", "punctured"), ("raised", "NotCertified"),
             ("raised", "VanishesOnDomain"), ("full", "slopes"),
             ("slopes raised", "ValueError"),
             ("slopes raised", "NotCertified")}
    if not _padic(fld):
        kinds |= {"truncated", ("truncated", "slopes")}
    assert kinds <= seen, kinds - seen
