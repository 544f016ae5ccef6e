"""Metamorphic relations: answers that must agree because of what they mean.

A differential test compares a query with the code it replaced, so a
mistake both copies share cannot show.  The relations here hold by
mathematics instead:

* representation: f and ``f.recenter(b)`` are one function, so they have
  the same root counts in every disc and the same Gauss valuations;
* multiplicativity: v_s(fg) = v_s(f) + v_s(g) at every disc point, and the
  root counts of f and g in a disc add up to those of fg;
* balance: the divisor of a rational function on P^1 has degree 0, so on a
  domain where f is a unit the boundary degrees (zeros minus poles in each
  hole) sum to minus ``exterior_degree`` (what lies beyond the bounding
  disc), and the direction slopes at a type-2 point sum to zero;
* translation: f(T - c), with every center, hole, root and direction moved
  by c, is the same function seen from elsewhere: the same slopes under the
  moved keys, boundary degrees and homotopy verdicts;
* completion: a truncated polynomial stands for each of its exact
  completions, so a Gauss valuation or Newton polygon answered on it is the
  answer on every completion (``completion.py``), and each coefficient of a
  product or a shift is that of every completion below its precision;
* homotopy is an equivalence: |f1/f0 - 1| < 1 is symmetric in f0 and f1,
  and f0 ~ f1 with f0 not ~ f2 gives f1 not ~ f2;
* the Gauss side against the root side: for f = lead * prod(T - z), the
  Gauss valuation at the disc D(a, 2**(-s)) is v(lead) + sum_z min(v(z - a),
  s), and the closed and open disc counts are those of the root list, read
  off the coefficients whether f is a flat product or built from elements;
  and for a certified f at a type-2 point zeta(a, s), each direction slope
  is the eps part of the change of v_f toward that direction, from
  zeta(a, s) to zeta(b, s + eps), or to zeta(a, s - eps) for "up" (the
  slope formula).

Each relation runs on seeded cases over F_2((t)), F_3((t)), Q((t)), Q_2 and
Q_3, half of them with truncated Puiseux coefficients and shifts (p-adic
numbers are always exact).  Where both sides answer they must be equal.
Where only one side answers, the other must raise PrecisionExhausted: a
truncated coefficient carries one flat precision bound, so a shift or a
product may lose what the other side still knows.  Any other error fails
the test.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from berkline import (INFINITY, DiscPoint, Domain, ExcludedDisc, LogValue,
                      PadicField, Polynomial, PuiseuxField, RationalFunction,
                      boundary_degrees, build_skeleton, classify,
                      direction_slopes, exterior_degree, gauss_valuation,
                      homotopy_check, newton_polygon, roots_in_disc)
from berkline.errors import BadDomain, BerkError, PrecisionExhausted
from berkline.gauss import _coeff_values
from completion import complete_elem, complete_poly
from conftest import rand_padic, rand_puiseux, rand_puiseux_nonzero

FIELDS = [PuiseuxField(2), PuiseuxField(3), PuiseuxField(0), PadicField(2),
          PadicField(3)]
IDS = ["F2", "F3", "Q", "Q2", "Q3"]
CASES = 300
UNKNOWN = "PrecisionExhausted"


def elem(rng, fld, nonzero=False):
    if isinstance(fld, PadicField):
        return rand_padic(rng, fld, allow_zero=not nonzero)
    make = rand_puiseux_nonzero if nonzero else rand_puiseux
    return make(rng, fld, exp_range=(-2, 6))


def truncate(rng, x, share):
    """x cut at a random bound with probability ``share``; p-adic numbers
    stay exact."""
    if isinstance(x.field, PadicField) or rng.random() >= share:
        return x
    return x.truncated(Fraction(rng.randint(-1, 10), rng.choice((1, 2, 3))))


def case(rng, fld, k, factors=1):
    """``factors`` polynomials of degree 1..4 on one center, a shift b, and
    a disc (c, s); every odd case truncates coefficients and the shift."""
    share = 0.5 if k % 2 else 0.0
    center = elem(rng, fld) if rng.random() < 0.5 else fld.zero()
    polys = []
    for _ in range(factors):
        deg = rng.randint(1, 4)
        coeffs = [elem(rng, fld) for _ in range(deg)] + [elem(rng, fld, True)]
        polys.append(Polynomial.from_coeffs(
            fld, [truncate(rng, c, share) for c in coeffs], center))
    b = truncate(rng, elem(rng, fld), share / 2)
    c = elem(rng, fld)
    s = INFINITY if rng.random() < 0.1 else LogValue(
        Fraction(rng.randint(-2, 8), rng.choice((1, 2))))
    return polys, b, c, s


def answer(fn, *args):
    try:
        return fn(*args)
    except PrecisionExhausted:
        return UNKNOWN


SIDES = {(True, True): "both", (True, False): "left only",
         (False, True): "right only", (False, False): "neither"}


def check(tally, left, right):
    """Equal where both sides answer; tally who answered."""
    answered = (left is not UNKNOWN, right is not UNKNOWN)
    tally[SIDES[answered]] += 1
    if all(answered):
        assert left == right


def assert_mostly_answered(tally):
    # the relation must be tested, not vacuous: most cases answer on both
    # sides, and the truncated half leaves the flat precision some slack
    assert sum(tally.values()) == CASES
    assert tally["both"] >= CASES * 3 // 4, tally


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_recentering_keeps_root_counts(fld):
    rng = random.Random(3001)
    tally = Counter()
    for k in range(CASES):
        (f,), b, c, s = case(rng, fld, k)
        closed = rng.random() < 0.7
        check(tally, answer(roots_in_disc, f, c, s, closed),
              answer(roots_in_disc, f.recenter(b), c, s, closed))
    assert_mostly_answered(tally)


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_recentering_keeps_gauss_valuations(fld):
    rng = random.Random(3002)
    tally = Counter()
    for k in range(CASES):
        (f,), b, c, s = case(rng, fld, k)
        check(tally, answer(gauss_valuation, f, c, s),
              answer(gauss_valuation, f.recenter(b), c, s))
    assert_mostly_answered(tally)


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_gauss_valuation_is_multiplicative(fld):
    rng = random.Random(3003)
    tally = Counter()
    for k in range(CASES):
        (f, g), _, c, s = case(rng, fld, k, factors=2)
        vf, vg = answer(gauss_valuation, f, c, s), answer(gauss_valuation, g, c, s)
        check(tally, answer(gauss_valuation, f * g, c, s),
              UNKNOWN if vf is UNKNOWN or vg is UNKNOWN else vf + vg)
    assert_mostly_answered(tally)


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_root_counts_add_over_products(fld):
    rng = random.Random(3004)
    tally = Counter()
    for k in range(CASES):
        (f, g), _, c, s = case(rng, fld, k, factors=2)
        closed = rng.random() < 0.7
        nf = answer(roots_in_disc, f, c, s, closed)
        ng = answer(roots_in_disc, g, c, s, closed)
        check(tally, answer(roots_in_disc, f * g, c, s, closed),
              UNKNOWN if nf is UNKNOWN or ng is UNKNOWN else nf + ng)
    assert_mostly_answered(tally)


# -- divisors of units on domains -------------------------------------------

def unit(rng, fld):
    """A residue unit: c * t^q has valuation exactly q."""
    if fld.char:
        return rng.randrange(1, fld.char)
    units = [1, -1, 2, 5, 7, Fraction(1, 2), Fraction(5, 7)]
    if isinstance(fld, PadicField):
        units = [u for u in units if Fraction(u).numerator % fld.p
                 and Fraction(u).denominator % fld.p]
    return rng.choice(units)


def mono(rng, fld, q):
    return fld.t(q, unit(rng, fld))


def unit_domain(rng, fld):
    """A bounding disc with 0-3 disjoint holes: closed, open or punctured."""
    c0 = elem(rng, fld) if rng.random() < 0.5 else fld.zero()
    s0 = rng.randint(-1, 1)
    holes = []
    for _ in range(rng.randint(0, 3)):
        q = s0 + rng.randint(0, 2)
        a = c0 if rng.random() < 0.2 else c0 + mono(rng, fld, q)
        kind = rng.choice(["closed", "open", "punctured"])
        if kind == "punctured":
            hole = ExcludedDisc(a, INFINITY)
        else:
            hole = ExcludedDisc(a, LogValue(q + rng.randint(1, 2),
                                            rng.choice([0, 0, 1, -1])),
                                closed=kind == "closed")
        try:
            Domain(c0, LogValue(s0), tuple(holes + [hole]))
        except BadDomain:
            continue
        holes.append(hole)
    return Domain(c0, LogValue(s0), tuple(holes))


def off_domain(rng, fld, dom):
    """A point in a hole or beyond the bounding disc."""
    if dom.excluded and rng.random() < 0.6:
        d = rng.choice(dom.excluded)
        if d.s.is_infinite or rng.random() < 0.2:
            return d.center
        return d.center + mono(rng, fld, d.s.q + rng.randint(1, 2))
    return dom.center + mono(rng, fld, dom.s.q - rng.randint(1, 2))


def rational(rng, fld, zs, ps, lead, center, lists, share):
    """The rational function with zeros zs and poles ps, its coefficients
    truncated with probability ``share``, the root lists kept or not."""
    def poly(roots, c):
        g = Polynomial.from_roots(fld, roots, center, c)
        return Polynomial.from_coeffs(
            fld, [truncate(rng, x, share) for x in g.coeffs], g.center)
    if not lists:
        zs = ps = ()
    return RationalFunction(poly(zs, lead), poly(ps, fld.one()),
                            num_roots=tuple(zs), den_roots=tuple(ps))


def unit_case(rng, fld, k):
    """A domain and two units f0, f1 on it, their roots in the holes and
    beyond the bounding disc: f1 moves each root of f0 a little, or not at
    all, and scales it by a constant, a 1-unit, a unit or t.  Every odd case truncates the
    coefficients (Puiseux only); root lists are kept in half the cases."""
    dom = unit_domain(rng, fld)
    share = 0.5 if k % 2 else 0.0
    center = rng.choice([None, dom.center])
    lists = rng.random() < 0.5
    zs = [off_domain(rng, fld, dom) for _ in range(rng.randint(0, 3))]
    ps = [off_domain(rng, fld, dom) for _ in range(rng.randint(0, 2))]
    lead = mono(rng, fld, rng.randint(-1, 1))

    def moved(z):
        w = z + mono(rng, fld, dom.s.q + rng.randint(5, 7))  # past every hole
        same = any(z is d.center for d in dom.excluded if d.s.is_infinite)
        return z if same or rng.random() < 0.5 else w

    f0 = rational(rng, fld, zs, ps, lead, center, lists, share)
    scale = rng.choice([fld.one(), fld.one() + mono(rng, fld, 1),
                        fld.t(0, unit(rng, fld)), fld.t(1)])
    f1 = rational(rng, fld, [moved(z) for z in zs], [moved(p) for p in ps],
                  lead * scale, center, lists, share)
    return dom, f0, f1


def outcome(fn, *args):
    """fn(*args), or the name of the error it raised."""
    try:
        return fn(*args)
    except (BerkError, ValueError) as exc:
        return type(exc).__name__


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_boundary_degrees_sum_to_minus_exterior_degree(fld):
    rng = random.Random(3005)
    tally = Counter()
    for k in range(CASES):
        dom, f, _ = unit_case(rng, fld, k)
        degrees = answer(boundary_degrees, f, dom)
        check(tally, UNKNOWN if degrees is UNKNOWN else sum(degrees),
              answer(lambda: -exterior_degree(f, dom)))
    assert_mostly_answered(tally)


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_slopes_sum_to_zero_at_skeleton_vertices(fld):
    """At every type-2 vertex of the skeleton of the roots, with the root
    lists or the skeleton's centers as the directions."""
    rng = random.Random(3006)
    vertices = Counter()
    for k in range(CASES // 3):
        share = 0.5 if k % 2 else 0.0
        A, size = [], rng.randint(2, 5)
        while len(A) < size:
            a = elem(rng, fld)
            if a.valuation_lower_bound() >= 0 and \
                    all(a.valuation_of_difference(b) < 4 for b in A):
                A.append(a)
        cut = rng.randint(0, len(A))
        f = rational(rng, fld, A[:cut], A[cut:], mono(rng, fld, 0),
                     rng.choice([None, A[0]]), True, share)
        tree = build_skeleton(A, s_floor=LogValue(4))
        for x in tree.vertices:
            if classify(x).type != 2:
                continue
            for directions in (None, A):
                slopes = answer(direction_slopes, f, x, directions)
                if slopes is UNKNOWN:
                    vertices["unknown"] += 1
                    continue
                assert sum(slopes.values()) == 0, (f, x, directions)
                vertices["summed"] += 1
    print(dict(vertices))
    assert vertices["summed"] >= CASES, vertices


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_translation_keeps_slopes_degrees_and_verdicts(fld):
    rng = random.Random(3007)
    seen = Counter()
    for k in range(CASES):
        dom, f0, f1 = unit_case(rng, fld, k)
        c = elem(rng, fld)
        memo = {}

        def move(z):
            # one moved object per object, so that shared centers stay shared
            return memo.setdefault(id(z), z + c)

        def moved_poly(g):
            return Polynomial(move(g.center), g.coeffs)

        def moved_function(f):
            return RationalFunction(
                moved_poly(f.num), moved_poly(f.den),
                num_roots=tuple(map(move, f.num_roots)),
                den_roots=tuple(map(move, f.den_roots)))

        moved = Domain(move(dom.center), dom.s, tuple(
            ExcludedDisc(move(d.center), d.s, d.closed) for d in dom.excluded))
        g0, g1 = moved_function(f0), moved_function(f1)
        pool = [dom.center] + [d.center for d in dom.excluded] + \
            list(f0.num_roots) + list(f0.den_roots)
        x = DiscPoint(rng.choice(pool), LogValue(dom.s.q + rng.randint(0, 3)))
        directions = None if rng.random() < 0.3 else \
            rng.sample(pool, rng.randint(0, len(pool)))
        key = {f"dir:{b.canonical_str()}": f"dir:{move(b).canonical_str()}"
               for b in pool}

        before = outcome(direction_slopes, f0, x, directions)
        after = outcome(direction_slopes, g0, DiscPoint(move(x.center), x.s),
                        directions and list(map(move, directions)))
        if isinstance(before, dict):
            before = {key.get(name, name): v for name, v in before.items()}
        assert after == before, (f0, x, directions, c)
        assert outcome(boundary_degrees, g0, moved) == \
            outcome(boundary_degrees, f0, dom), (f0, dom, c)
        verdict = outcome(homotopy_check, f0, f1, dom)
        assert outcome(homotopy_check, g0, g1, moved) == verdict, \
            (f0, f1, dom, c)
        seen[verdict] += 1
        seen["slopes answered"] += isinstance(before, dict)
    print(dict(seen))
    assert seen[True] and seen[False] and seen["slopes answered"] > CASES // 2, \
        seen


# -- the Gauss side against the root side ------------------------------------

ROOT_FIELDS = [PuiseuxField(2), PuiseuxField(3), PuiseuxField(0),
               PadicField(3), PadicField(5)]
ROOT_IDS = ["F2", "F3", "Q", "Q3", "Q5"]


def root_case(rng, fld):
    """(lead, roots, center, a, radii): 0-5 exact roots, some repeated; a
    root or a random point a; radii with eps parts -1, 0 and 1, some of
    them at a root's distance v(z - a) from a, and +infinity."""
    roots = [elem(rng, fld) for _ in range(rng.randint(0, 5))]
    if roots and rng.random() < 0.3:
        roots.append(rng.choice(roots))
    lead = elem(rng, fld, nonzero=True)
    center = elem(rng, fld) if rng.random() < 0.5 else fld.zero()
    a = rng.choice(roots) if roots and rng.random() < 0.5 else elem(rng, fld)
    radii = [INFINITY]
    for _ in range(3):
        e = rng.choice((-1, 0, 1))
        dists = [(z - a).valuation() for z in roots if not z.agrees_with(a)]
        if dists and rng.random() < 0.5:
            radii.append(LogValue(rng.choice(dists), e))
        else:
            radii.append(LogValue(Fraction(rng.randint(-3, 8),
                                           rng.choice((1, 2, 3))), e))
    return lead, roots, center, a, radii


@pytest.mark.parametrize("fld", ROOT_FIELDS, ids=ROOT_IDS)
def test_gauss_side_matches_root_side(fld):
    """For f = lead * prod(T - z), built by ``from_roots`` (a flat kernel
    chain) and by ``from_coeffs`` of its decoded coefficients (encoded when
    first read), ``gauss_valuation(f, a, s)`` is v(lead) + sum_z min(v(z -
    a), s), and ``roots_in_disc`` counts #(v(z - a) >= s) closed and
    #(v(z - a) > s) open."""
    rng = random.Random(3010)
    seen = Counter()
    for _ in range(CASES):
        lead, roots, center, a, radii = root_case(rng, fld)
        flat = Polynomial.from_roots(fld, roots, center, lead)
        built = Polynomial.from_coeffs(fld, flat.coeffs, center)
        dists = [LogValue((z - a).valuation()) for z in roots]
        for s in radii:
            want = LogValue(lead.valuation())
            for d in dists:
                want = want + min(d, s)
            closed = sum(d >= s for d in dists)
            opened = sum(d > s for d in dists)
            for f in (flat, built):
                assert gauss_valuation(f, a, s) == want, (f, a, s)
                assert roots_in_disc(f, a, s, True) == closed, (f, a, s)
                assert roots_in_disc(f, a, s, False) == opened, (f, a, s)
            seen["probes"] += 1
            seen["root at a"] += INFINITY in dists
            seen["on a root's distance"] += s in dists
            seen["eps"] += s.e != 0
            seen["open differs"] += closed != opened
    assert seen["probes"] == CASES * 4
    assert min(seen.values()) > CASES // 10, seen


def slope_case(rng, fld):
    """(f, x, directions): f = lead * prod(T - z) / prod(T - w) with exact,
    certified root lists drawn from one cluster, so that several roots lie
    at one distance from each other; x = zeta(a, s), a a root or a random
    point and s a distance from a to a root or a random radius; directions
    None (the lists found them) or some roots and random points."""
    cluster = [elem(rng, fld)]
    for _ in range(rng.randint(1, 5)):
        cluster.append(rng.choice(cluster) + mono(rng, fld, rng.randint(0, 3)))
    zs = [rng.choice(cluster) for _ in range(rng.randint(1, 4))]
    ws = [rng.choice(cluster) for _ in range(rng.randint(0, 3))]
    center = rng.choice([fld.zero(), cluster[0]])
    f = RationalFunction(
        Polynomial.from_roots(fld, zs, center, mono(rng, fld, rng.randint(-1, 1))),
        Polynomial.from_roots(fld, ws, center), num_roots=tuple(zs),
        den_roots=tuple(ws))
    a = rng.choice(cluster) if rng.random() < 0.8 else elem(rng, fld)
    dists = [(z - a).valuation() for z in zs + ws if not z.agrees_with(a)]
    s = rng.choice(dists) if dists and rng.random() < 0.8 \
        else Fraction(rng.randint(-1, 4))
    directions = None if rng.random() < 0.5 else \
        rng.sample(cluster, rng.randint(0, len(cluster))) + [elem(rng, fld)]
    return f, DiscPoint(a, LogValue(s)), directions


def v_f(f, b, s):
    return gauss_valuation(f.num, b, s) - gauss_valuation(f.den, b, s)


@pytest.mark.parametrize("fld", ROOT_FIELDS, ids=ROOT_IDS)
def test_direction_slopes_are_eps_slopes_of_gauss_valuations(fld):
    """For a certified f at the type-2 point zeta(a, s), the slope toward
    direction b is the eps part of v_f(zeta(b, s + eps)) - v_f(zeta(a, s)),
    and "up" that of v_f(zeta(a, s - eps)) - v_f(zeta(a, s)), while the
    plain parts agree: the slope formula read through the eps part of
    ``LogValue``."""
    rng = random.Random(3012)
    seen = Counter()
    for _ in range(CASES):
        f, x, directions = slope_case(rng, fld)
        assert f.certified_roots is not None
        named = {f"dir:{b.canonical_str()}": b
                 for b in (*f.num_roots, *f.den_roots, *(directions or ()))}
        slopes = direction_slopes(f, x, directions)
        here = v_f(f, x.center, x.s)
        for key, slope in slopes.items():
            if key == "other":
                continue
            b, e = (x.center, -1) if key == "up" else (named[key], 1)
            step = v_f(f, b, LogValue(x.s.q, e)) - here
            assert step.q == 0 and step.e == slope, (f, x, directions, key)
            seen["nonzero"] += slope != 0
        seen["two or more directions"] += sum(
            key.startswith("dir:") and slope != 0
            for key, slope in slopes.items()) > 1
    print(dict(seen))
    assert seen["nonzero"] > CASES and \
        seen["two or more directions"] > CASES // 10, seen


# -- completions of truncated polynomials -------------------------------------

COMPLETIONS = 8


def polygon(f):
    np_ = newton_polygon(f)
    return np_.vertices, np_.mult0


@pytest.mark.parametrize("fld", FIELDS[:3], ids=IDS[:3])
@pytest.mark.parametrize("query", ["gauss_valuation", "newton_polygon"])
def test_answers_hold_on_every_completion(fld, query):
    """A truncated polynomial's Gauss valuation at a disc point, or its
    Newton polygon (vertices and mult0), equals the answer on each of 8
    exact completions, or the call raises PrecisionExhausted."""
    rng = random.Random(3008)
    tally = Counter()
    for _ in range(CASES * 5):
        (f,), _, c, s = case(rng, fld, 1)  # an odd case: truncated
        if query == "gauss_valuation":
            ask = lambda g: gauss_valuation(g, c, s)  # noqa: E731
        else:
            ask = polygon
        got = answer(ask, f)
        tally["raised" if got is UNKNOWN else "answered"] += 1
        if got is UNKNOWN:
            continue
        for _ in range(COMPLETIONS):
            g = complete_poly(rng, f)
            assert ask(g) == got, (f, g, c, s)
    print(dict(tally))
    assert tally["answered"] >= CASES * 5 // 2, tally


@pytest.mark.parametrize("fld", FIELDS[:3], ids=IDS[:3])
@pytest.mark.parametrize("op", ["product", "recenter"])
def test_precisions_hold_on_every_completion(fld, op):
    """Each output coefficient of f * g, or of f.recenter(b), is that of the
    same operation on each of 8 exact completions of the inputs, truncated
    at the output's precision: no precision claims a term that a completion
    does not share.  ``_coeff_values``' unknown list names exactly the
    outputs that are truncated zeros."""
    rng = random.Random(3011)
    seen = Counter()
    for _ in range(CASES):
        (f, g), b, _, _ = case(rng, fld, 1, factors=2)  # an odd case
        if op == "product":
            out = f * g
            complete = lambda: complete_poly(rng, f) * complete_poly(rng, g)  # noqa: E731
        else:
            out = f.recenter(b)
            complete = lambda: complete_poly(rng, f).recenter(  # noqa: E731
                complete_elem(rng, b))
        for _ in range(COMPLETIONS):
            full = complete().coeffs
            assert len(full) <= len(out.coeffs)
            full += (fld.zero(),) * (len(out.coeffs) - len(full))
            for c, x in zip(out.coeffs, full):
                assert x.truncated(c.prec) == c, (f, g, b, c, x)
        zeros = [i for i, c in enumerate(out.coeffs) if not c and not c.is_exact]
        assert [pt[0] for pt in _coeff_values(out)[1]] == zeros
        seen["truncated output"] += not all(c.is_exact for c in out.coeffs)
        seen["truncated zero"] += bool(zeros)
    print(dict(seen))
    assert seen["truncated output"] > CASES // 2, seen
    assert seen["truncated zero"] > CASES // 5, seen


def homotopy_triple(rng, fld, k):
    """``unit_case``'s domain, f0 and f1, and f2, f1 times a constant: 1,
    a 1-unit, a residue unit, t or 1/t."""
    dom, f0, f1 = unit_case(rng, fld, k)
    scale = rng.choice([fld.one(), fld.one() + mono(rng, fld, 1),
                        fld.t(0, unit(rng, fld)), fld.t(1), fld.t(-1)])
    f2 = RationalFunction(f1.num.scale(scale), f1.den,
                          num_roots=f1.num_roots, den_roots=f1.den_roots)
    return dom, f0, f1, f2


@pytest.mark.parametrize("fld", FIELDS, ids=IDS)
def test_homotopy_is_symmetric_and_transitive(fld):
    """Where both calls answer, homotopy_check(f0, f1) equals
    homotopy_check(f1, f0); and f0 ~ f1 with f0 not ~ f2 gives f1 not ~ f2
    wherever all three answer."""
    rng = random.Random(3009)
    seen = Counter()
    for k in range(CASES):
        dom, f0, f1, f2 = homotopy_triple(rng, fld, k)
        h01, h02 = (outcome(homotopy_check, f0, f, dom) for f in (f1, f2))
        for f, h in ((f1, h01), (f2, h02)):
            back = outcome(homotopy_check, f, f0, dom)
            if isinstance(h, bool) and isinstance(back, bool):
                assert back == h, (f0, f, dom)
                seen["symmetric pairs"] += 1
            else:
                assert {h, back} <= {True, False, UNKNOWN}, (h, back)
        if h01 is True and h02 is False:
            h12 = outcome(homotopy_check, f1, f2, dom)
            assert h12 in (False, UNKNOWN), (f0, f1, f2, dom)
            seen["consistent triples"] += h12 is False
    print(dict(seen))
    assert seen["symmetric pairs"] >= CASES, seen
    assert seen["consistent triples"] >= CASES // 10, seen
