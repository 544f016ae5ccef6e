"""Root lists on rational functions: certification, and counting from them.

Counting roots in a disc from a certified complete root list must give the
same answer as the Newton-polygon path on the same polynomials; a list that
is complete but wrong must fail loudly instead of changing an answer.
"""

import random
from fractions import Fraction

import pytest

from berkline import (DiscPoint, Domain, ExcludedDisc, LogValue, PadicField,
                      Polynomial, PuiseuxField, RationalFunction,
                      boundary_degrees, direction_slopes, exterior_degree,
                      reduced_unit)
from berkline.errors import BerkError, NotCertified

lv = lambda q, e=0: LogValue(Fraction(q), Fraction(e))


def one(fld):
    return Polynomial.from_coeffs(fld, [1])


def domain(fld, closed=(True, True, True)):
    """v(T) >= -1 minus the discs of radius s = 1 around 0, 1 and 2."""
    centers = [fld.zero(), fld.one(), fld.constant(2)]
    return Domain(fld.zero(), lv(-1), tuple(
        ExcludedDisc(c, lv(1), closed=cl) for c, cl in zip(centers, closed)))


class TestCertification:
    def test_complete_exact_lists_are_certified(self, FQ):
        t = FQ.t()
        roots, poles = (t, t, FQ.one()), (FQ.t(2),)
        f = RationalFunction(Polynomial.from_roots(FQ, roots),
                             Polynomial.from_roots(FQ, poles),
                             num_roots=roots, den_roots=poles)
        assert f.certified_roots == (roots, poles)

    def test_non_monic_and_off_center(self, Q3):
        roots = (Q3.elem(1), Q3.elem(Fraction(1, 3)))
        num = Polynomial.from_roots(Q3, roots, lead=Q3.elem(9))
        f = RationalFunction(num.recenter(Q3.elem(2)), one(Q3).recenter(Q3.elem(2)),
                             num_roots=roots)
        assert f.certified_roots == (roots, ())

    def test_wrong_root(self, FQ):
        t = FQ.t()
        f = RationalFunction(Polynomial.from_roots(FQ, [FQ.zero(), FQ.one()]),
                             one(FQ), num_roots=(FQ.zero(), t))
        with pytest.raises(NotCertified) as exc:
            f.certified_roots
        assert exc.value.witness == {"which": "num", "index": 1}

    def test_wrong_multiplicity(self, FQ):
        t = FQ.t()
        num = Polynomial.from_roots(FQ, [t, t, FQ.one()])
        f = RationalFunction(num, one(FQ), num_roots=(t, FQ.one(), FQ.one()))
        with pytest.raises(NotCertified) as exc:
            f.certified_roots
        assert exc.value.witness == {"which": "num", "index": 2}

    def test_wrong_den_root(self, F3):
        t = F3.t()
        f = RationalFunction(Polynomial.from_roots(F3, [F3.one()]),
                             Polynomial.from_roots(F3, [t]),
                             num_roots=(F3.one(),), den_roots=(F3.t(2),))
        with pytest.raises(NotCertified) as exc:
            f.certified_roots
        assert exc.value.witness == {"which": "den", "index": 0}

    @pytest.mark.parametrize("query", ["reduced_unit", "boundary_degrees",
                                       "exterior_degree", "direction_slopes"])
    def test_every_query_rejects_a_wrong_list(self, FQ, query):
        T = Polynomial.variable(FQ)
        f = RationalFunction(T, one(FQ), num_roots=(FQ.one(),))
        dom = Domain(FQ.zero(), lv(-1), (ExcludedDisc(FQ.zero(), lv(1)),))
        call = {
            "reduced_unit": lambda: reduced_unit(f, dom),
            "boundary_degrees": lambda: boundary_degrees(f, dom),
            "exterior_degree": lambda: exterior_degree(f, dom),
            "direction_slopes": lambda: direction_slopes(
                f, DiscPoint(FQ.zero(), lv(1))),
        }[query]
        with pytest.raises(NotCertified) as exc:
            call()
        assert exc.value.witness == {"which": "num", "index": 0}

    def test_right_list_gives_the_slopes(self, FQ):
        T = Polynomial.variable(FQ)
        f = RationalFunction(T, one(FQ), num_roots=(FQ.zero(),))
        assert direction_slopes(f, DiscPoint(FQ.zero(), lv(1))) == \
            {"dir:0": 1, "up": -1}

    def test_partial_list_keeps_todays_results(self, FQ):
        # a partial list is never checked, even when its one root is wrong,
        # and the counts come from Newton polygons as without any list
        t = FQ.t()
        num = Polynomial.from_roots(FQ, [t, FQ.one(), FQ.t(-2)])
        den = Polynomial.from_roots(FQ, [FQ.t(2)])
        dom = domain(FQ)
        bare = RationalFunction(num, den)
        partial = RationalFunction(num, den, num_roots=(FQ.constant(5),))
        assert partial.certified_roots is None
        assert boundary_degrees(partial, dom) == boundary_degrees(bare, dom) \
            == (0, 1, 0)
        assert exterior_degree(partial, dom) == exterior_degree(bare, dom) == -1
        x = DiscPoint(FQ.zero(), lv(1))
        dirs = [t, FQ.t(2)]
        assert direction_slopes(partial, x, dirs) == \
            direction_slopes(bare, x, dirs)
        with pytest.raises(ValueError):
            direction_slopes(partial, x)

    def test_inexact_list_keeps_todays_results(self, FQ):
        # a complete list with a truncated root is not certified: it still
        # supplies the default directions, and counting uses Newton polygons
        t = FQ.t()
        roots = (t, FQ.one())
        num = Polynomial.from_roots(FQ, roots)
        inexact = RationalFunction(num, one(FQ),
                                   num_roots=(t.truncated(5), FQ.one()))
        bare = RationalFunction(num, one(FQ))
        assert inexact.certified_roots is None
        dom = domain(FQ)
        assert boundary_degrees(inexact, dom) == boundary_degrees(bare, dom) \
            == (1, 1, 0)
        x = DiscPoint(FQ.one(), lv(1))
        assert direction_slopes(inexact, x) == \
            direction_slopes(bare, x, list(inexact.num_roots)) == \
            {"dir:1": 1, "up": -1}

    def test_inexact_coefficient_is_not_certified(self, FQ):
        t = FQ.t()
        num = Polynomial.from_coeffs(FQ, [-t.truncated(8), FQ.one()])
        f = RationalFunction(num, one(FQ), num_roots=(t,))
        assert f.certified_roots is None


# ---------------------------------------------------------------------------
# differential: certified lists against the Newton-polygon path

FIELDS = [PuiseuxField(0), PuiseuxField(3), PadicField(3)]


def _unit(rng, fld):
    if isinstance(fld, PadicField):
        return Fraction(rng.choice([1, 2, 4, 5, 7]), rng.choice([1, 2, 4, 5]))
    if fld.char:
        return rng.randint(1, fld.char - 1)
    return rng.choice([1, -1, 2, 3, Fraction(1, 2), Fraction(-5, 3)])


def _at_valuation(rng, fld, q):
    """A random element of valuation q; the zero element for q = None."""
    if q is None:
        return fld.zero()
    if isinstance(fld, PuiseuxField) and rng.random() < 0.3:
        q += Fraction(1, 2)
    return fld.t(q, _unit(rng, fld))


def _random_point(rng, fld, centers):
    kind = rng.random()
    if kind < 0.7:
        # inside or on the rim of an excluded disc, or at its center
        q = rng.choice([1, 1, 2, 3, None])
        return rng.choice(centers) + _at_valuation(rng, fld, q)
    if kind < 0.85:
        return _at_valuation(rng, fld, rng.choice([-2, -3]))  # beyond
    return _at_valuation(rng, fld, rng.choice([-1, 0]))       # on the domain


def _random_pair(rng, fld):
    """(f with certified lists, the same num/den without lists, domain)."""
    centers = [fld.zero(), fld.one(), fld.constant(2)]
    dom = domain(fld, tuple(rng.random() < 0.5 for _ in centers))
    roots = tuple(_random_point(rng, fld, centers)
                  for _ in range(rng.randint(0, 4)))
    poles = tuple(_random_point(rng, fld, centers)
                  for _ in range(rng.randint(0 if roots else 1, 3)))
    lead = _at_valuation(rng, fld, rng.choice([0, 1, -1]))
    num = Polynomial.from_roots(fld, roots, lead=lead)
    den = Polynomial.from_roots(fld, poles)
    if rng.random() < 0.3:
        c = rng.choice(centers)
        num, den = num.recenter(c), den.recenter(c)
    listed = RationalFunction(num, den, num_roots=roots, den_roots=poles)
    bare = RationalFunction(num, den)
    return listed, bare, dom


def _outcome(call):
    try:
        return call()
    except BerkError as exc:
        return exc.code, exc.witness


@pytest.mark.parametrize("fld", FIELDS, ids=repr)
def test_lists_agree_with_newton_polygons(fld):
    rng = random.Random(f"certified-{fld!r}")
    certified = vanishing = 0
    for _ in range(40):
        f, g, dom = _random_pair(rng, fld)
        assert f.certified_roots == (f.num_roots, f.den_roots)
        assert g.certified_roots is None
        unit_f = _outcome(lambda: reduced_unit(f, dom).certified)
        assert unit_f == _outcome(lambda: reduced_unit(g, dom).certified)
        certified += unit_f is True
        vanishing += unit_f is not True
        assert _outcome(lambda: boundary_degrees(f, dom)) == \
            _outcome(lambda: boundary_degrees(g, dom))
        assert exterior_degree(f, dom) == exterior_degree(g, dom)
        dirs = list(f.num_roots) + list(f.den_roots)
        for a in [dom.center] + dirs:
            for s in (-1, 0, 1, 2, 3):
                x = DiscPoint(a, lv(s))
                want = direction_slopes(g, x, dirs)
                assert direction_slopes(f, x) == want
                assert direction_slopes(f, x, dirs) == want
    # both verdicts of reduced_unit were exercised
    assert certified and vanishing


def test_certified_lists_never_reach_newton_polygons(monkeypatch, FQ):
    t = FQ.t()
    roots = (t, FQ.t(2), FQ.one() + FQ.t(3), FQ.t(-2))
    poles = (FQ.constant(2) + t, FQ.t(Fraction(5, 2)))
    f = RationalFunction(Polynomial.from_roots(FQ, roots),
                         Polynomial.from_roots(FQ, poles),
                         num_roots=roots, den_roots=poles)
    dom = domain(FQ, (True, False, True))
    x = DiscPoint(FQ.zero(), lv(1))

    def forbidden(*args, **kwargs):
        raise AssertionError("Newton-polygon path reached")

    monkeypatch.setattr("berkline.units.roots_in_disc", forbidden)
    monkeypatch.setattr("berkline.gauss._polygon", forbidden)
    assert reduced_unit(f, dom).certified
    assert boundary_degrees(f, dom) == (1, 1, -1)
    assert exterior_degree(f, dom) == -1
    assert direction_slopes(f, x) == {"dir:t": 1, "dir:t^2": 0, "up": -1}
    # the same answers through the Newton-polygon path
    monkeypatch.undo()
    g = RationalFunction(f.num, f.den)
    assert boundary_degrees(g, dom) == (1, 1, -1)
    assert exterior_degree(g, dom) == -1
    assert direction_slopes(g, x, list(roots + poles)) == \
        {"dir:t": 1, "dir:t^2": 0, "up": -1}
