"""The slotted LogValue against the frozen-dataclass reference.

Seeded random operands, finite and infinite, with eps parts of both signs.
Every comparison, equality, hash, ``+ - neg scale``, ``str`` and ``repr``
must give what the reference gives, and so must each error: the same type
and message.  Values compare by their components and their types, so an int
or a float stored where the reference stores a Fraction shows.
"""

import copy
import math
import operator
import pickle
import random
from fractions import Fraction

import pytest

from berkline.logvalue import INFINITY, ZERO, LogValue, as_logvalue
from reference_logvalue import (REF_INFINITY, REF_ZERO, RefLogValue,
                                ref_as_logvalue)

PARTS = [0, 1, -1, 2, -3, 7, Fraction(1, 2), Fraction(-1, 2), Fraction(5, 3),
         Fraction(-7, 3), Fraction(1, 1024), Fraction(3**30, 7),
         Fraction(-(2**41) - 1, 1024)]
COMPARE = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq,
           operator.ne)


def _state(x):
    """A log-value's components with their types, or a plain value as is."""
    if isinstance(x, (LogValue, RefLogValue)):
        return ("logvalue", type(x.q), x.q, type(x.e), x.e, str(x), repr(x),
                x.is_infinite)
    return ("value", type(x), x)


def _outcome(fn, *args):
    try:
        return _state(fn(*args))
    except (TypeError, ValueError, AttributeError) as exc:
        # a message may name the operand's class
        return ("raises", type(exc), str(exc).replace("RefLogValue", "LogValue"))


def _components(rng):
    """(q, e) as the constructor receives them, infinity included."""
    r = rng.random()
    if r < 0.08:
        return math.inf, rng.choice(PARTS)
    if r < 0.12:
        return math.inf, 0
    return rng.choice(PARTS), rng.choice(PARTS + [0, 0, 0])


def _pair(rng):
    q, e = _components(rng)
    return LogValue(q, e), RefLogValue(q, e)


def _plain(rng):
    """An operand given as a plain number, coerced by the operation."""
    return rng.choice(PARTS + [math.inf])


def test_construction_and_coercion_match():
    cases = [(q, e) for q in PARTS + [math.inf] for e in PARTS[:6]]
    cases += [(q,) for q in PARTS + [math.inf]]
    # rejected: -infinity, finite floats, a float eps part, junk
    cases += [(-math.inf,), (-math.inf, 1), (1.5,), (0.0,), (1, 0.5),
              (1, math.inf), (None,), ([1],)]
    for args in cases:
        assert _outcome(LogValue, *args) == _outcome(RefLogValue, *args), args
    for x in PARTS + [math.inf, -math.inf, 2.5, LogValue(1, 1)]:
        ref_x = RefLogValue(1, 1) if isinstance(x, LogValue) else x
        assert _outcome(as_logvalue, x) == _outcome(ref_as_logvalue, ref_x), x
    assert _state(ZERO) == _state(REF_ZERO)
    assert _state(INFINITY) == _state(REF_INFINITY)
    assert hash(ZERO) == hash(REF_ZERO) and hash(INFINITY) == hash(REF_INFINITY)


def test_operations_match_the_reference():
    rng = random.Random(16016)
    for _ in range(6000):
        x, rx = _pair(rng)
        if rng.random() < 0.8:
            y, ry = _pair(rng)
        else:
            y = ry = _plain(rng)
        assert _state(x) == _state(rx)
        assert hash(x) == hash(rx)
        for op in COMPARE:
            assert _outcome(op, x, y) == _outcome(op, rx, ry), (op, x, y)
            assert _outcome(op, y, x) == _outcome(op, ry, rx), (op, y, x)
        for op in (operator.add, operator.sub):
            assert _outcome(op, x, y) == _outcome(op, rx, ry), (op, x, y)
            assert _outcome(op, y, x) == _outcome(op, ry, rx), (op, y, x)
        assert _outcome(operator.neg, x) == _outcome(operator.neg, rx)
        k = rng.choice((-1, 0, 1, 2, 3, 7))
        assert _outcome(x.scale, k) == _outcome(rx.scale, k), (x, k)
        if x == y:
            assert hash(x) == hash(y)


def test_sorting_matches_the_reference():
    rng = random.Random(16017)
    comps = [_components(rng) for _ in range(300)]
    ours = sorted(LogValue(q, e) for q, e in comps)
    ref = sorted(RefLogValue(q, e) for q, e in comps)
    assert [_state(x) for x in ours] == [_state(x) for x in ref]
    assert len(set(ours)) == len(set(ref))


@pytest.mark.parametrize("x", [ZERO, INFINITY, LogValue(Fraction(-7, 3), 2),
                               LogValue(5, Fraction(-1, 2)), LogValue(3)])
def test_pickle_and_copy_round_trip(x):
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        y = pickle.loads(pickle.dumps(x, proto))
        assert type(y) is LogValue and y == x and hash(y) == hash(x)
        assert _state(y) == _state(x)
        assert (y < x, y > x) == (False, False)
    for y in (copy.copy(x), copy.deepcopy(x)):
        assert _state(y) == _state(x) and y == x


@pytest.mark.parametrize("attr", ["q", "e", "other"])
def test_setting_an_attribute_raises(attr):
    for x in (LogValue(1, 2), RefLogValue(1, 2), INFINITY):
        with pytest.raises(AttributeError):
            setattr(x, attr, 3)
        with pytest.raises(AttributeError):
            delattr(x, attr)
    assert LogValue(1, 2).q == 1 and LogValue(1, 2).e == 2
