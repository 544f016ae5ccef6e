"""valuation_of_difference against the valuation of the built difference.

Seeded operand pairs over F_2, F_3, Q((t)), Q_2 and Q_3.  Puiseux operands
mix exponent lattices (1/2, 1/3, 1/1024, 2**40) and pairwise coprime
coefficient denominators, exact and truncated.  Besides random pairs, each
stream draws equal operands (INF), pairs that share a leading part and
differ further out, pairs whose coefficients differ only in their
denominator, and pairs whose difference is a truncated zero.
``a.valuation_of_difference(b)`` must return what ``(a - b).valuation()``
returns, or raise the same error with the same message and witness, and so
must the int kernel ``a._vdiff(b)`` under it: ``(e, den)`` with den > 0 and
e/den the valuation, or None where it is +infinity.  ``points._within``
must answer as comparing ``points._dist`` with the radius, and on exact
operands build no ``Fraction``.  ``a.agrees_with(b)`` must answer as
comparing the two elements truncated to the coarser precision when that is
finite, and as ``a == b`` otherwise.
"""

import random
from fractions import Fraction

import pytest

from berkline import INF, PadicField, PuiseuxField
from berkline.errors import BackendMismatch, PrecisionExhausted
from berkline.logvalue import INFINITY, LogValue
from berkline.points import _dist, _within
from berkline.units import _count_in_disc

EXPONENTS = [Fraction(n, d) for n in range(-2, 7) for d in (1, 2, 3)] + [
    Fraction(1, 1024), Fraction(3, 1024), Fraction(-5, 1024),
    Fraction(2**40), Fraction(2**40 + 1, 3),
]
# pairwise coprime denominators, several with the same numerator, so that
# raw numerators agree where the values do not
COEFS_Q = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7),
           Fraction(1, 3**20), Fraction(-5, 2**40), Fraction(7, 10**12 + 39),
           Fraction(22, 7), Fraction(3, 2), 1, -1, 2, -3]
PRECS = [Fraction(n, d) for n in range(-1, 8) for d in (1, 2, 3, 1024)] + [
    Fraction(2**40 + 1)]


def _coef(rng, char):
    if char:
        return rng.randrange(1, char)
    return rng.choice(COEFS_Q)


def _elem(rng, fld):
    terms = [(rng.choice(EXPONENTS), _coef(rng, fld.char))
             for _ in range(rng.randint(0, 4))]
    prec = INF if rng.random() < 0.6 else rng.choice(PRECS)
    return fld.elem(terms, prec)


def _puiseux_pair(rng, fld, pool):
    x, y = rng.choice(pool), rng.choice(pool)
    kind = rng.randrange(6)
    if kind == 0:
        return x, x
    if kind == 1:
        # a shared leading part, then different tails
        return x + y, x + rng.choice(pool)
    if kind == 2:
        # x against x known to a coarser precision: a truncated zero, or x's
        # terms at and above the bound, which the bound hides
        return x, x.truncated(rng.choice(PRECS))
    if kind == 3:
        # the same exponents, coefficients that may differ in value only
        # through their denominators
        e = rng.choice(EXPONENTS)
        return (x + fld.elem([(e, _coef(rng, fld.char))]),
                x + fld.elem([(e, _coef(rng, fld.char))]))
    if kind == 4:
        # two truncated zeros, or one against an exact element
        q1, q2 = rng.choice(PRECS), rng.choice(PRECS)
        return fld.elem([], q1), rng.choice([fld.elem([], q2), y])
    return x, y


def _padic_value(rng, p):
    if rng.random() < 0.1:
        return Fraction(0)
    num = rng.choice([1, 2, 3, 5, 7, 10**12 + 39, 3**40, 2**61 - 1])
    den = rng.choice([1, 1, 2, 3, 9, 2**40, 10**12 + 39])
    v = rng.choice([0, 0, 1, -1, 5, -9, 40])
    return Fraction(rng.choice([1, -1]) * num, den) * Fraction(p) ** v


def _padic_pair(rng, fld, pool):
    x, y = rng.choice(pool), rng.choice(pool)
    kind = rng.randrange(3)
    if kind == 0:
        return x, x
    if kind == 1:
        # x against x + p**k * u: the difference has valuation about k
        k = rng.randint(-10, 60)
        return x, x + fld.t(k, rng.choice([1, -1, 2, Fraction(1, 3)]))
    return x, y


def _outcome(fn):
    """The value fn() returns, or (type, message, witness) of its error."""
    try:
        return fn()
    except PrecisionExhausted as exc:
        return type(exc), str(exc), exc.witness


def _check(x, y):
    want = _outcome(lambda: (x - y).valuation())
    got = _outcome(lambda: x.valuation_of_difference(y))
    assert got == want, (x, y)
    # the kernel: the same error, None at +infinity, else int (e, den)
    ints = _outcome(lambda: x._vdiff(y))
    if isinstance(want, tuple):
        assert ints == want, (x, y)
    elif want == INF:
        assert ints is None, (x, y)
    else:
        e, den = ints
        assert type(e) is int and type(den) is int and den > 0, (x, y)
        assert Fraction(e, den) == want, (x, y)
    if not isinstance(got, tuple):
        assert type(got) is type((x - y).valuation())
        assert _dist(x, y) == (INFINITY if got == INF else LogValue(got))
    # _within against comparing _dist: radii at the distance with each sign
    # of eps part, and +infinity
    q = got if isinstance(got, Fraction) else Fraction(0)
    for s in [LogValue(q, e) for e in (-1, 0, 1)] + [INFINITY]:
        assert (_outcome(lambda: _within(x, y, s, True))
                == _outcome(lambda: _dist(x, y) >= s)), (x, y, s)
        assert (_outcome(lambda: _within(x, y, s, False))
                == _outcome(lambda: _dist(x, y) > s)), (x, y, s)
    # agreement, against an oracle that does not read _vdiff
    p = min(x.prec, y.prec) if x.field.backend == "puiseux" else INF
    if p == INF:
        assert x.agrees_with(y) == (x == y), (x, y)
    else:
        assert x.agrees_with(y) == (x.truncated(p) == y.truncated(p)), (x, y)
    return got


@pytest.mark.parametrize("char", [2, 3, 0])
def test_puiseux_kernel_matches_difference(char):
    rng = random.Random(8000 + char)
    fld = PuiseuxField(char)
    pool = [_elem(rng, fld) for _ in range(60)]
    seen = set()
    for _ in range(3000):
        x, y = _puiseux_pair(rng, fld, pool)
        got = _check(x, y)
        seen.add("raise" if isinstance(got, tuple)
                 else "inf" if got == INF else "finite")
    assert seen == {"raise", "inf", "finite"}


@pytest.mark.parametrize("p", [2, 3])
def test_padic_kernel_matches_difference(p):
    rng = random.Random(8100 + p)
    fld = PadicField(p)
    pool = [fld.elem(_padic_value(rng, p)) for _ in range(60)]
    for _ in range(3000):
        _check(*_padic_pair(rng, fld, pool))


def test_coefficients_compare_by_value_not_numerator():
    Q = PuiseuxField(0)
    # equal numerators 1, different values
    a = Q.elem([(1, Fraction(1, 3))])
    b = Q.elem([(1, Fraction(1, 5))])
    assert a.valuation_of_difference(b) == 1
    # different numerators over different denominators, equal value at t
    a = Q.elem([(1, Fraction(1, 2)), (2, Fraction(1, 3))])
    b = Q.elem([(1, Fraction(1, 2)), (2, Fraction(1, 5))])
    assert (a.cden, b.cden) == (6, 10)
    assert a.valuation_of_difference(b) == 2


def test_truncated_zero_difference_raises_like_subtraction():
    F = PuiseuxField(3)
    x = F.elem([(0, 1), (Fraction(5, 2), 2)])
    y = x.truncated(2)
    with pytest.raises(PrecisionExhausted) as exc:
        x.valuation_of_difference(y)
    assert str(exc.value) == "valuation only known to be >= 2"
    assert exc.value.witness == "2"
    # below the bound the difference is known
    assert x.valuation_of_difference(F.elem([(0, 2)], 2)) == 0
    assert x.valuation_of_difference(x) == INF


def test_mixed_fields_raise_like_subtraction():
    with pytest.raises(BackendMismatch):
        PuiseuxField(2).one().valuation_of_difference(PuiseuxField(3).one())
    with pytest.raises(BackendMismatch):
        PadicField(2).one().valuation_of_difference(PadicField(3).one())
    with pytest.raises(BackendMismatch):
        PadicField(2).one()._vdiff(PuiseuxField(2).one())
    with pytest.raises(BackendMismatch):
        PuiseuxField(2).one().agrees_with(PuiseuxField(3).one())
    with pytest.raises(BackendMismatch):
        PadicField(2).one().agrees_with(PadicField(3).one())
    with pytest.raises(BackendMismatch):
        PadicField(2).one().agrees_with(PuiseuxField(2).one())


@pytest.mark.parametrize("fld", [PuiseuxField(0), PadicField(3)])
def test_dist_builds_no_difference(fld, monkeypatch):
    a, b = fld.constant(5), fld.constant(Fraction(1, 2))
    cls = type(a)

    def refuse(*args):
        raise AssertionError("_dist built an element")

    for name in ("__add__", "__sub__", "__neg__"):
        monkeypatch.setattr(cls, name, refuse)
    assert _dist(a, b) == _dist(b, a)
    assert _dist(a, a) == INFINITY


@pytest.mark.parametrize("fld", [PuiseuxField(0), PuiseuxField(3), PadicField(3)],
                         ids=["Q", "F3", "Q3"])
def test_within_on_exact_operands_builds_no_fraction(fld, monkeypatch):
    """_within compares ints, and so does a count over an exact root list
    at a rational radius: no Fraction is built, per pair or per root."""
    rng = random.Random(8200)
    if isinstance(fld, PadicField):
        pool = [fld.elem(_padic_value(rng, fld.p)) for _ in range(20)]
    else:
        pool = [fld.elem([(rng.choice(EXPONENTS), _coef(rng, fld.char))
                          for _ in range(rng.randint(0, 4))])
                for _ in range(20)]
    pairs = [(x, y) for x in pool for y in pool]
    pairs += [(x, type(x)(*x._values(x))) for x in pool]
    roots, center = pool[:8], pool[8]
    radii = [LogValue(Fraction(q), e) for q in (-2, Fraction(1, 2), 3)
             for e in (-1, 0, 1)] + [INFINITY]
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    for x, y in pairs:
        for s in radii:
            _within(x, y, s, True)
            _within(x, y, s, False)
    counts = [_count_in_disc(None, roots, center, s, closed)
              for s in radii[:-1] for closed in (True, False)]
    monkeypatch.undo()
    assert built == []
    assert counts == [sum(_dist(r, center) >= s if closed
                          else _dist(r, center) > s for r in roots)
                      for s in radii[:-1] for closed in (True, False)]
