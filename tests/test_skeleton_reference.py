"""``build_skeleton`` against the version that recomputed its distances.

Seeded center sets over F_2, F_3, Q((t)), Q_2 and Q_3, with truncated
centers, repeated centers and centers outside the disc, and leaf floors
given as LogValues or raw numbers.  The library and
``tests/reference_skeleton.py`` must build the same skeleton, compared as
``repr(vertices)``, ``edges``, ``root``, ``leaves`` and ``to_dot()``, or
raise the same error with the same message and witness.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import berkline.skeleton
from berkline import LogValue, PadicField, PuiseuxField, build_skeleton
from berkline.errors import BerkError
from reference_skeleton import build_skeleton as ref_build_skeleton

FIELDS = (PuiseuxField(2), PuiseuxField(3), PuiseuxField(0), PadicField(2),
          PadicField(3))
EPS = LogValue(0, 1)
FLOORS = (None, LogValue(0), LogValue(-1), EPS, LogValue(Fraction(1, 2)),
          LogValue(Fraction(5, 2)), LogValue(2, 1), LogValue(3), LogValue(7),
          3, Fraction(5, 2), 0, math.inf)
# few exponents and small coefficients, so that distances tie and branch
EXPONENTS = (0, 0, Fraction(1, 2), 1, 1, Fraction(3, 2), 2, 3)


def _puiseux(rng, fld):
    coef = ((lambda: rng.randrange(1, fld.char)) if fld.char
            else (lambda: rng.choice([-1, 1, 2, Fraction(1, 2)])))
    terms = [(rng.choice(EXPONENTS), coef()) for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.04:
        terms.append((-1, coef()))
    if rng.random() < 0.08:
        return fld.elem(terms, rng.choice([Fraction(1, 2), 1, 2, 3]))
    return fld.elem(terms)


def _padic(rng, fld):
    p = fld.p
    if rng.random() < 0.1:
        return fld.zero()
    unit = Fraction(rng.choice([u for u in range(1, 10) if u % p]),
                    rng.choice([1, 1, 1, 5, 7]))
    v = rng.choice([0, 0, 1, 1, 2, 3] + ([-1] if rng.random() < 0.04 else []))
    return fld.elem(unit * Fraction(p) ** v)


def _centers(rng, fld):
    make = _padic if isinstance(fld, PadicField) else _puiseux
    centers = []
    for _ in range(rng.randint(1, 7)):
        if centers and rng.random() < 0.08:
            centers.append(rng.choice(centers))
        else:
            centers.append(make(rng, fld))
    return centers


def _outcome(build, centers, floor):
    try:
        sk = build(centers) if floor is None else build(centers, floor)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return (type(exc), str(exc), getattr(exc, "witness", None))
    return (repr(sk.vertices), sk.edges, sk.root, sk.leaves, sk.to_dot())


def test_matches_reference_builder():
    rng = random.Random(1300)
    kinds = Counter()
    for _ in range(10_000):
        fld = rng.choice(FIELDS)
        centers = _centers(rng, fld)
        floor = rng.choice(FLOORS)
        got = _outcome(build_skeleton, centers, floor)
        assert got == _outcome(ref_build_skeleton, centers, floor), (
            centers, floor)
        kinds[got[0].__name__ if isinstance(got[0], type) else "skeleton"] += 1
    # every outcome is exercised, not just the happy path
    for kind in ("skeleton", "DuplicateCenters", "PointOutsideDisc",
                 "PrecisionExhausted"):
        assert kinds[kind] >= 100, kinds


@pytest.mark.parametrize("fld", FIELDS, ids=repr)
def test_each_distance_is_computed_once(fld, monkeypatch):
    real, calls = berkline.skeleton._dist, []

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(berkline.skeleton, "_dist", counted)
    rng = random.Random(1301)
    built = 0
    while built < 40:
        centers = _centers(rng, fld)
        del calls[:]
        try:
            build_skeleton(centers)
        except BerkError:  # only successful builds count
            continue
        n = len(centers)
        assert len(calls) == n * (n - 1) // 2
        built += 1

