"""Every value class of berkline against a frozen dataclass of the same shape.

The classes below were frozen dataclasses; each is now a ``Record`` with a
hand-written constructor.  For each one the test builds, with
``dataclasses.make_dataclass``, the frozen dataclass of the same name,
fields and defaults (its twin), and checks on seeded instances that both
agree on the constructor signature, ``__match_args__``, repr, hash,
equality within the class and against other classes, the frozen guard, and
round trips through pickle, copy and deepcopy.  Pieces that a class writes itself (``OWN``) are not
compared with the twin.  Validation errors are pinned by type and message.
"""

import copy
import dataclasses
import inspect
import operator
import pickle
import random
import zlib
from fractions import Fraction
from typing import Any

import pytest

from berkline import (INFINITY, AnnulusSpec, ChainPoint, CohomologyResult,
                      CoordVector, DiscPoint, Divisor, Domain, ExcludedDisc,
                      HostTree, LeadingClass, LogValue, NewtonPolygon,
                      PadicElem, PadicField, PointClassification, Polynomial,
                      PuiseuxElem, PuiseuxField, RationalFunction, ReducedUnit,
                      SectionComponent, SectionData, Skeleton, TreeSheaf,
                      UnitClass, build_skeleton, classify, cohomology,
                      constant_sheaf, kummer_sheaf, newton_polygon, unit_class,
                      y1_divisor, zero_sheaf)
from berkline._record import Record, setfield
from berkline.errors import (BadDomain, BackendMismatch, MalformedChain,
                             ShapeMismatch, ZeroDenominator)
from conftest import rand_padic, rand_poly, rand_puiseux

REQUIRED = dataclasses.MISSING

# class -> ((field, default), ...), as the frozen dataclasses declared them
FIELDS = {
    Divisor: (("entries", REQUIRED),),
    AnnulusSpec: (("s_lo", REQUIRED), ("s_hi", REQUIRED)),
    SectionComponent: (("u", REQUIRED), ("g", REQUIRED), ("mult", REQUIRED)),
    SectionData: (("k", REQUIRED), ("components", REQUIRED)),
    PuiseuxElem: (("field", REQUIRED), ("exps", REQUIRED), ("nums", REQUIRED),
                  ("den", REQUIRED), ("cden", REQUIRED), ("prec", REQUIRED)),
    PadicElem: (("field", REQUIRED), ("num", REQUIRED), ("den", REQUIRED)),
    NewtonPolygon: (("vertices", REQUIRED), ("segments", REQUIRED),
                    ("mult0", REQUIRED), ("degree", REQUIRED)),
    DiscPoint: (("center", REQUIRED), ("s", REQUIRED)),
    ChainPoint: (("discs", REQUIRED),),
    PointClassification: (("type", REQUIRED), ("residue_transcendental", False),
                          ("value_group_extended", False)),
    CoordVector: (("index", REQUIRED), ("values", REQUIRED)),
    Polynomial: (("center", REQUIRED), ("coeffs", REQUIRED)),
    RationalFunction: (("num", REQUIRED), ("den", REQUIRED), ("reduced", False),
                       ("num_roots", ()), ("den_roots", ())),
    HostTree: (("vertices", REQUIRED), ("edges", REQUIRED), ("root", None)),
    TreeSheaf: (("tree", REQUIRED), ("modulus", REQUIRED),
                ("vertex_ranks", REQUIRED), ("edge_ranks", REQUIRED),
                ("cosp", REQUIRED), ("open_ends", REQUIRED)),
    CohomologyResult: (("H0", REQUIRED), ("H1", REQUIRED)),
    Skeleton: (("vertices", REQUIRED), ("edges", REQUIRED), ("root", REQUIRED),
               ("leaves", REQUIRED)),
    UnitClass: (("q", REQUIRED), ("res", REQUIRED), ("modulus", REQUIRED)),
    ExcludedDisc: (("center", REQUIRED), ("s", REQUIRED), ("closed", True)),
    Domain: (("center", REQUIRED), ("s", REQUIRED), ("excluded", ())),
    ReducedUnit: (("f", REQUIRED), ("domain", REQUIRED), ("certified", REQUIRED)),
    LeadingClass: (("w", REQUIRED), ("res_q", REQUIRED), ("res", REQUIRED),
                   ("modulus", REQUIRED)),
}

# the methods a class defines itself instead of taking them from Record
OWN = {
    PuiseuxElem: {"__repr__"},
    PadicElem: {"__repr__"},
    Polynomial: {"__repr__"},
    RationalFunction: {"__repr__"},
    DiscPoint: {"__eq__", "__hash__", "__repr__"},
    ChainPoint: {"__repr__"},
}

BACKENDS = [PuiseuxField(2), PuiseuxField(3), PuiseuxField(0), PadicField(3)]
INSTANCES = 12


def _twin(cls):
    spec = [(name, Any) if default is REQUIRED else (name, Any, default)
            for name, default in FIELDS[cls]]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def _other(cls):
    """A record of another class with the same fields."""
    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            setfield(self, name, value)

    return type("Other", (Record,), {"_fields": cls._fields, "__init__": __init__})


# seeded builders, one per class

def _elem(rng, fld):
    if isinstance(fld, PadicField):
        return rand_padic(rng, fld)
    x = rand_puiseux(rng, fld)
    return x.truncated(Fraction(rng.randint(1, 12), 2)) if rng.random() < 0.2 else x


def _lv(rng):
    if rng.random() < 0.1:
        return INFINITY
    return LogValue(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))),
                    rng.choice((0, 0, 1, -1)))


def _finite_lv(rng):
    while True:
        s = _lv(rng)
        if not s.is_infinite:
            return s


def _rational(rng, fld):
    center = _elem(rng, fld) if rng.random() < 0.3 else None
    num, den = (rand_poly(rng, fld, 3, center) for _ in range(2))
    roots = lambda: tuple(_elem(rng, fld) for _ in range(rng.randint(0, 2)))
    return RationalFunction(num, den, rng.random() < 0.5, roots(), roots())


def _tree(rng):
    n = rng.randint(1, 5)
    ids = rng.sample(range(10), n)
    edges = tuple((ids[i], ids[rng.randrange(i)]) for i in range(1, n))
    return HostTree(tuple(ids), edges, rng.choice([None, *ids]))


def _sheaf(rng):
    tree = _tree(rng)
    n = rng.randint(2, 6)
    return rng.choice([constant_sheaf(tree, n, rng.randint(1, 2)),
                       zero_sheaf(tree, n)])


def _disc(rng, fld):
    return DiscPoint(_elem(rng, fld), _lv(rng))


def _exact(rng, fld):
    while True:
        x = _elem(rng, fld)
        if x.is_exact:
            return x


def _chain(rng, fld):
    center = _exact(rng, fld)
    radii = sorted({_finite_lv(rng) for _ in range(4)})
    if len(radii) < 2:
        radii.append(radii[-1] + 1)
    return ChainPoint(tuple(DiscPoint(center, s) for s in radii))


def _skeleton(rng, fld):
    centers, n = [], rng.randint(1, 4)
    while len(centers) < n:
        c = _exact(rng, fld)
        if c.valuation_lower_bound() >= 0 and c not in centers:
            centers.append(c)
    return build_skeleton(centers)


def _domain(rng, fld):
    center, s = _exact(rng, fld), _finite_lv(rng)
    holes = (ExcludedDisc(center, s + 1, rng.random() < 0.5),) \
        if rng.random() < 0.5 else ()
    return Domain(center, s, holes)


def _nonzero(rng, fld):
    while True:
        x = _exact(rng, fld)
        if not x.is_zero():
            return x


def _section(rng, fld):
    comps = tuple(SectionComponent(rng.choice("uvw"), _rational(rng, fld),
                                   rng.randint(1, 3))
                  for _ in range(rng.randint(0, 3)))
    return SectionData(sum(c.mult for c in comps), comps)


def _divisor(rng, fld):
    if rng.random() < 0.3:
        return y1_divisor(rng.randint(1, 12), fld)
    return Divisor(tuple((_lv(rng), rng.choice((-2, -1, 1, 3)))
                         for _ in range(rng.randint(0, 3))))


MAKE = {
    Divisor: _divisor,
    AnnulusSpec: lambda rng, fld: AnnulusSpec(*sorted(
        {_finite_lv(rng), _finite_lv(rng), LogValue(5)}, reverse=True)[:2]),
    SectionComponent: lambda rng, fld: SectionComponent(
        rng.choice("uvw"), _rational(rng, fld), rng.randint(1, 4)),
    SectionData: _section,
    PuiseuxElem: lambda rng, fld: _elem(rng, BACKENDS[rng.randrange(3)]),
    PadicElem: lambda rng, fld: _elem(rng, BACKENDS[3]),
    NewtonPolygon: lambda rng, fld: newton_polygon(rand_poly(rng, fld, 5)),
    DiscPoint: _disc,
    ChainPoint: _chain,
    PointClassification: lambda rng, fld: classify(
        rng.choice([_disc, _chain])(rng, fld)),
    CoordVector: lambda rng, fld: CoordVector(
        tuple(_elem(rng, fld) for _ in range(2)), (_lv(rng), _lv(rng))),
    Polynomial: lambda rng, fld: rand_poly(rng, fld, 4),
    RationalFunction: _rational,
    HostTree: lambda rng, fld: _tree(rng),
    TreeSheaf: lambda rng, fld: _sheaf(rng),
    CohomologyResult: lambda rng, fld: cohomology(_sheaf(rng)),
    Skeleton: _skeleton,
    UnitClass: lambda rng, fld: unit_class(_nonzero(rng, fld)),
    ExcludedDisc: lambda rng, fld: ExcludedDisc(
        _elem(rng, fld), _finite_lv(rng), rng.random() < 0.5),
    Domain: _domain,
    ReducedUnit: lambda rng, fld: ReducedUnit(
        _rational(rng, fld), _domain(rng, fld), rng.random() < 0.5),
    LeadingClass: lambda rng, fld: LeadingClass(
        _finite_lv(rng), Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
        rng.randint(1, 2), fld.residue_char),
}

CLASSES = list(FIELDS)
IDS = [cls.__name__ for cls in CLASSES]


def _instances(cls):
    rng = random.Random(zlib.crc32(cls.__name__.encode()))
    return [MAKE[cls](rng, rng.choice(BACKENDS)) for _ in range(INSTANCES)]


def _values(x, names=None):
    return [getattr(x, name) for name in names or x._fields]


def _outcome(compare, x, y):
    """compare(x, y), or the type and message of what it raised: equality of
    elements from two fields raises BackendMismatch, with or without a
    record around them."""
    try:
        return compare(x, y)
    except Exception as e:
        return type(e), str(e)


def test_every_class_is_covered():
    assert len(CLASSES) == 22 and set(MAKE) == set(FIELDS)
    assert set(Record.__subclasses__()) == set(FIELDS)
    assert set(OWN) <= set(FIELDS)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_fields_and_signature(cls):
    assert issubclass(cls, Record)
    assert cls._fields == tuple(name for name, _ in FIELDS[cls])
    shape = lambda c: [(p.name, p.kind, p.default)
                       for p in inspect.signature(c).parameters.values()]
    assert shape(cls) == shape(_twin(cls))
    assert cls.__match_args__ == _twin(cls).__match_args__ == cls._fields


def test_positional_match_patterns():
    match (Divisor(((INFINITY, 2),)), AnnulusSpec(1, -1)):
        case (Divisor(((v, m),)), AnnulusSpec(lo, hi)):
            assert (v, m, lo, hi) == (INFINITY, 2, 1, -1)
        case _:
            pytest.fail("positional patterns did not match")


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_rebuilt_from_fields(cls):
    """Positional and keyword construction from an instance's fields give an
    instance with the same fields."""
    for x in _instances(cls):
        values = _values(x)
        for y in (cls(*values), cls(**dict(zip(cls._fields, values)))):
            assert type(y) is cls
            assert _values(y) == values


@pytest.mark.parametrize("cls", [c for c in CLASSES if "__repr__" not in OWN.get(c, ())],
                         ids=lambda c: c.__name__)
def test_repr_matches_twin(cls):
    twin = _twin(cls)
    for x in _instances(cls):
        assert repr(x) == repr(twin(*_values(x)))


@pytest.mark.parametrize("cls", [c for c in CLASSES if "__hash__" not in OWN.get(c, ())],
                         ids=lambda c: c.__name__)
def test_hash_matches_twin(cls):
    twin = _twin(cls)
    for x in _instances(cls):
        tx = twin(*_values(x))
        try:
            expected = hash(tx)
        except TypeError as e:
            # dict fields, as in TreeSheaf: unhashable either way
            with pytest.raises(TypeError, match=str(e)):
                hash(x)
            continue
        assert hash(x) == expected


@pytest.mark.parametrize("cls", [c for c in CLASSES if "__eq__" not in OWN.get(c, ())],
                         ids=lambda c: c.__name__)
def test_equality_matches_twin(cls):
    twin, other = _twin(cls), _other(cls)
    xs = _instances(cls)
    txs = [twin(*_values(x)) for x in xs]
    for x, tx in zip(xs, txs):
        for y, ty in zip(xs, txs):
            for compare in (operator.eq, operator.ne):
                assert _outcome(compare, x, y) == _outcome(compare, tx, ty)
        # an equal instance that is another object
        assert x == cls(*_values(x))
        # other classes: the twin itself, a record with the same fields and
        # values, and a plain tuple of them
        for stranger in (tx, other(*_values(x)), tuple(_values(x)), None):
            assert x.__eq__(stranger) is NotImplemented
            assert x != stranger and not x == stranger


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_frozen(cls):
    twin = _twin(cls)
    for x in _instances(cls)[:3]:
        tx = twin(*_values(x))
        for name in (*cls._fields, "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError) as expected:
                setattr(tx, name, 0)
            with pytest.raises(AttributeError) as info:
                setattr(x, name, 0)
            assert str(info.value) == str(expected.value)
            with pytest.raises(dataclasses.FrozenInstanceError) as expected:
                delattr(tx, name)
            with pytest.raises(AttributeError) as info:
                delattr(x, name)
            assert str(info.value) == str(expected.value)
        assert _values(x) == _values(tx, cls._fields)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_pickle_and_copy_round_trips(cls):
    for x in _instances(cls):
        for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert type(y) is cls
            assert _values(y) == _values(x)
            if "__eq__" not in OWN.get(cls, ()):
                assert y == x


def test_cached_values_survive_pickling():
    x = PuiseuxField(0).elem([(Fraction(1, 2), Fraction(3, 4)), (2, -1)])
    terms = x.terms
    y = pickle.loads(pickle.dumps(x))
    assert "terms" in vars(y) and y.terms == terms and y == x


# validation: type and message, as the dataclasses' __post_init__ raised them

def _errors():
    fld = PuiseuxField(3)
    c, one = fld.zero(), fld.one()
    p = Polynomial.from_coeffs(fld, [one, one])
    zero = Polynomial.from_coeffs(fld, [])
    d0, d1 = DiscPoint(c, 0), DiscPoint(c, 1)
    return [
        (lambda: ExcludedDisc(c, INFINITY, closed=False), BadDomain,
         "an open disc of radius zero excludes nothing"),
        (lambda: Domain(c, 1, (ExcludedDisc(c, 1),)), BadDomain,
         "excluded disc must be strictly smaller"),
        (lambda: Domain(c, 1, (ExcludedDisc(one, 2),)), BadDomain,
         "excluded disc center outside the bounding disc"),
        (lambda: Domain(c, 0, (ExcludedDisc(c, 1), ExcludedDisc(c, 2))),
         BadDomain, "excluded discs 0 and 1 are not disjoint"),
        (lambda: ChainPoint((d0,)), MalformedChain,
         "a chain needs at least two discs"),
        (lambda: ChainPoint((d1, d0)), MalformedChain,
         "chain radii must strictly shrink"),
        (lambda: ChainPoint((d1, DiscPoint(one, 2))), MalformedChain,
         "chain discs must be strictly nested"),
        (lambda: HostTree((0, 0), ((0, 0),)), ShapeMismatch, "duplicate vertex ids"),
        (lambda: HostTree((0, 1), ()), ShapeMismatch, "a tree has |V| - 1 edges"),
        (lambda: HostTree((0, 1), ((0, 2),)), ShapeMismatch,
         "edge (0, 2) off the vertex set"),
        (lambda: HostTree((0, 1), ((0, 1),), 2), ShapeMismatch,
         "root is not a vertex"),
        (lambda: HostTree((0, 1, 2), ((0, 1), (1, 0))), ShapeMismatch,
         "tree is not connected"),
        (lambda: RationalFunction(p, zero), ZeroDenominator, "zero denominator"),
        (lambda: RationalFunction(p, Polynomial.from_coeffs(fld, [one], one)),
         ValueError, "polynomials must share a center; recenter first"),
        (lambda: RationalFunction(p, Polynomial.from_coeffs(PuiseuxField(2), [1])),
         BackendMismatch, "polynomials over different fields"),
        (lambda: AnnulusSpec(0, 1), ValueError, "annulus needs s_hi < s_lo"),
        (lambda: AnnulusSpec(1, 1), ValueError, "annulus needs s_hi < s_lo"),
        (lambda: SectionData(2, (SectionComponent("u", None, 1),)), ValueError,
         "component multiplicities must sum to k"),
        (lambda: SectionData(0, (SectionComponent("u", None, 1),
                                 SectionComponent("v", None, -1))),
         ValueError, "multiplicities must be positive"),
    ]


@pytest.mark.parametrize("case", range(len(_errors())))
def test_validation_errors_keep_type_and_message(case):
    build, exc, message = _errors()[case]
    with pytest.raises(exc) as info:
        build()
    assert type(info.value) is exc and str(info.value) == message


def test_constructors_normalise_as_before():
    fld = PuiseuxField(0)
    c = fld.zero()
    assert DiscPoint(c, 2).s == LogValue(2) and type(DiscPoint(c, 2).s) is LogValue
    assert ExcludedDisc(c, Fraction(1, 2)).s == LogValue(Fraction(1, 2))
    dom = Domain(c, 0, [ExcludedDisc(c, 1)])
    assert type(dom.excluded) is tuple and type(dom.s) is LogValue
    ann = AnnulusSpec(1, -1)
    assert (ann.s_lo, ann.s_hi) == (LogValue(1), LogValue(-1))
    chain = ChainPoint([DiscPoint(c, 0), DiscPoint(c, 1)])
    assert type(chain.discs) is tuple
    assert Divisor([(1, 2), (0, 0), (Fraction(1, 2), 3)]).entries == \
        ((LogValue(1), 2), (LogValue(Fraction(1, 2)), 3))
    assert kummer_sheaf(build_skeleton([c, fld.one()]), 3).tree.root is not None
