"""Exact arithmetic in concrete nonarchimedean valued fields.

Two backends are provided:

* truncated Puiseux series t**q with coefficients either in a prime field F_p
  or in Q, and a per-element exclusive precision bound (``math.inf`` marks an
  exact element).  Exponents and coefficients both live on integer lattices:
  an element stores strictly increasing ints ``exps`` over one positive
  denominator ``den``, reduced so that gcd(den, *exps) == 1, and int
  coefficient numerators ``nums`` over one positive coefficient denominator
  ``cden``, reduced so that gcd(cden, *nums) == 1.  Over F_p, ``cden`` is 1
  and ``nums`` are the residues in range(1, p).  Exponent and coefficient
  arithmetic in ``+``, ``*`` and ``truncated`` is on ints
  (``+`` works on the lcm of the operands' denominators, ``*`` multiplies
  the coefficient denominators and convolves the two term lists in the
  polynomial product kernel, as one-coefficient operands); only ``inverse``
  over Q solves with ``Fraction`` coefficients and encodes its result once.
  The views ``coefs`` and ``terms`` are derived on demand.  Polynomial
  products and Taylor shifts in ``poly`` read the same lattices, so there
  is one encoding and one convolution;
* p-adic rationals, stored as an int numerator ``num`` over a positive
  denominator ``den`` with gcd(num, den) == 1, reduced once per result.
  The valuation is read off the ints once and cached; ``value`` is a
  ``Fraction`` view for callers that want one.

Both element classes read v(self - other) off the two operands' ints in one
kernel, ``_vdiff(other)``, without building the difference: ints ``(e, den)``
for e/den, or None for equal exact elements.  ``valuation_of_difference`` is
its Fraction view, ``agrees_with`` reads it as equality up to the coarser
precision, and ``points`` compares the ints with radii.

The norm normalization is |x| = 2**(-v(x)) throughout, so the uniformizer
(t, respectively p) has norm 1/2.
"""

from __future__ import annotations

import bisect
import heapq
import math
from fractions import Fraction

from ._record import Record, setfield
from .errors import (BackendMismatch, DivisionByZero, NotPrime, PrecisionExhausted,
                     ResourceLimit, ZeroElement)
# bound here, not read off the module, so that a tracer patching
# kernel.poly_mul_modp counts polynomial products only
from .kernel import poly_mul_modp

INF = math.inf

# The most exponents PuiseuxElem.inverse solves for, zero coefficients
# included, before it raises ResourceLimit.  The test suite needs at most 191
# and the benchmark workloads none; the exact inverse of 1 + t^(1/1024) to
# WORKING_PREC needs 32767.  An element whose leading exponent lies far below
# its precision can ask for ~10**15.
INVERSE_TERM_CAP = 1 << 16

# The exclusive precision to which PuiseuxElem.inverse expands the inverse of
# an exact element, which is an infinite series.
WORKING_PREC = Fraction(32)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every base above: below it, Miller-Rabin
# with those bases decides primality exactly
_MR_EXACT_BELOW = 3317044064679887385961981


def _require_prime(n: int):
    """Raise NotPrime unless n is a prime (deterministic Miller-Rabin)."""
    if n >= _MR_EXACT_BELOW:
        raise NotPrime(f"{n} is too large to be proven prime", witness=n)
    if n in _MR_BASES:
        return
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        raise NotPrime(f"{n} is not a prime", witness=n)
    r = _vp(n - 1, 2)
    d = (n - 1) >> r
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(r):
            if x == n - 1:
                break
            x = x * x % n
        else:
            raise NotPrime(f"{n} is not a prime", witness=n)


class cached:
    """``functools.cached_property`` without its lock: a non-data descriptor
    that stores the value in the instance dict on first read, as
    cached_property does from Python 3.12 on.  Values are pure functions of
    immutable fields, so two threads computing one at once store equal
    values."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("exact rational required, got float")
    return Fraction(x)


class PuiseuxField:
    """Truncated Puiseux series field over F_p (char=p) or Q (char=0)."""

    backend = "puiseux"

    def __init__(self, char: int = 0):
        if char:
            _require_prime(char)
        self.char = char
        # one zero and one one per field, so that polynomials built without
        # a center share it and compare centers by identity
        self._zero = PuiseuxElem(self, (), (), 1, 1, INF)
        self._one = PuiseuxElem(self, (0,), (1,), 1, 1, INF)

    def __eq__(self, other):
        return isinstance(other, PuiseuxField) and other.char == self.char

    def __hash__(self):
        return hash(("puiseux", self.char))

    def __repr__(self):
        base = f"F_{self.char}" if self.char else "Q"
        return f"PuiseuxField({base}((t)))"

    @property
    def residue_char(self) -> int:
        return self.char

    def elem(self, terms, prec=INF) -> "PuiseuxElem":
        """Build an element from (exponent, coefficient) pairs.

        Pairs are merged, zero coefficients dropped, and anything at or above
        the precision bound truncated away.
        """
        prec = prec if prec == INF else _frac(prec)
        pairs = [(_frac(e), _frac(c)) for e, c in terms]
        den = math.lcm(*(e.denominator for e, _ in pairs))
        p = self.char
        if p:
            for _, c in pairs:
                if c.denominator % p == 0:
                    raise ValueError(
                        f"denominator {c.denominator} not invertible mod {p}")
            nums = [c.numerator * pow(c.denominator, -1, p) % p
                    for _, c in pairs]
            cden = 1
        else:
            nums, cden = _over_common_den([c for _, c in pairs])
        acc = {}
        for (e, _), n in zip(pairs, nums):
            e = e.numerator * (den // e.denominator)
            if e in acc:
                n = (acc[e] + n) % p if p else acc[e] + n
            acc[e] = n
        return _lattice_elem(self, acc, den, cden, prec)

    def constant(self, c) -> "PuiseuxElem":
        return self.elem([(Fraction(0), c)])

    def zero(self) -> "PuiseuxElem":
        return self._zero

    def one(self) -> "PuiseuxElem":
        return self._one

    def t(self, q=1, c=1) -> "PuiseuxElem":
        """The monomial c * t**q."""
        return self.elem([(q, c)])


class PadicField:
    """The rationals with the p-adic valuation; arithmetic is exact."""

    backend = "padic"
    char = 0

    def __init__(self, p: int):
        _require_prime(p)
        self.p = p
        self._zero = PadicElem(self, 0, 1)
        self._one = PadicElem(self, 1, 1)

    def __eq__(self, other):
        return isinstance(other, PadicField) and other.p == self.p

    def __hash__(self):
        return hash(("padic", self.p))

    def __repr__(self):
        return f"PadicField(p={self.p})"

    @property
    def residue_char(self) -> int:
        return self.p

    def elem(self, value) -> "PadicElem":
        if type(value) is int:
            return PadicElem(self, value, 1)
        value = _frac(value)
        return PadicElem(self, value.numerator, value.denominator)

    def constant(self, c) -> "PadicElem":
        return self.elem(c)

    def zero(self) -> "PadicElem":
        return self._zero

    def one(self) -> "PadicElem":
        return self._one

    def t(self, q=1, c=1) -> "PadicElem":
        """The element c * p**q; q must be an integer here."""
        q = _frac(q)
        if q.denominator != 1:
            raise ValueError("the p-adic value group is Z")
        return self.elem(_frac(c) * Fraction(self.p) ** q.numerator)


def _check_same_field(x, y):
    if x.field is not y.field and x.field != y.field:
        raise BackendMismatch(f"mixed operands: {x.field!r} vs {y.field!r}")


def _valuation_of_difference(self, other):
    """valuation(self - other): the Fraction of ``_vdiff``, INF for None."""
    v = self._vdiff(other)
    return INF if v is None else Fraction(*v)


def _agrees_with(self, other) -> bool:
    """Equality of the two elements modulo the coarser precision: the
    difference is zero, exact or truncated."""
    try:
        return self._vdiff(other) is None
    except PrecisionExhausted:
        return True


def _truncated_zero(prec) -> PrecisionExhausted:
    """The error for the valuation of a zero known only below ``prec``."""
    return PrecisionExhausted(f"valuation only known to be >= {prec}",
                              witness=str(prec))


def _lattice_bound(prec, den) -> int:
    """ceil(prec*den) for a Fraction prec: for an int e, e/den < prec exactly
    when e < _lattice_bound(prec, den)."""
    return -(-prec.numerator * den // prec.denominator)


def _over_common_den(fracs):
    """([n, ...], d) with fracs[i] == n_i / d and d the lcm of the
    denominators."""
    d = math.lcm(*(c.denominator for c in fracs))
    return [c.numerator * (d // c.denominator) for c in fracs], d


def _on_common_den(d1, xs, d2, ys):
    """The numerators xs over d1 and ys over d2 rewritten over
    lcm(d1, d2): (xs', ys', lcm)."""
    if d1 == d2:
        return xs, ys, d1
    d = math.lcm(d1, d2)
    s1, s2 = d // d1, d // d2
    return ([x * s1 for x in xs] if s1 != 1 else xs,
            [y * s2 for y in ys] if s2 != 1 else ys, d)


def _lattice_elem(fld, acc, den, cden, prec) -> "PuiseuxElem":
    """The canonical element sum(n/cden * t**(e/den) for e, n in acc.items()).

    ``acc`` maps integer exponents on the lattice (1/den)Z to int coefficient
    numerators over ``cden``, already reduced mod p over F_p (where cden is
    1); zero coefficients are dropped and the rest sorted, then
    ``_lattice_terms`` builds the element.  Element arithmetic accumulates
    in dicts and comes here; ``truncated``, the products of elements and
    the decoding of flat polynomials (kernel products and ``poly._shift``
    outputs, cut at their precisions by ``poly._flat_poly``) hand their
    sorted lists to ``_lattice_terms`` directly.
    """
    exps = sorted([e for e, c in acc.items() if c])
    return _lattice_terms(fld, exps, [acc[e] for e in exps], den, cden, prec)


def _lattice_terms(fld, exps, nums, den, cden, prec) -> "PuiseuxElem":
    """The canonical element sum(n/cden * t**(e/den)) over the paired lists.

    ``exps`` is a strictly increasing list of ints on the lattice (1/den)Z
    and ``nums`` the nonzero int numerators over ``cden`` that go with them,
    reduced mod p over F_p (where cden is 1); ``prec`` is INF or a Fraction.
    The lists are cut at the first exponent at or above ``prec``, and both
    lattices coarsened until gcd(den, *exps) == 1 and gcd(cden, *nums) == 1,
    so that equal values have equal fields.
    """
    if prec != INF:
        k = bisect.bisect_left(exps, _lattice_bound(prec, den))
        if k < len(exps):
            exps, nums = exps[:k], nums[:k]
    if den != 1:
        g = math.gcd(den, *exps)
        if g != 1:
            den //= g
            exps = [e // g for e in exps]
    if cden != 1:
        g = math.gcd(cden, *nums)
        if g != 1:
            cden //= g
            nums = [n // g for n in nums]
    return PuiseuxElem(fld, tuple(exps), tuple(nums), den, cden, prec)


def _product_prec(x, y):
    """The precision of a product of two series, each given as the pair
    (prec, v) of its precision and valuation lower bound, by the standard
    series rule: it is known modulo t**min(prec_x + v_y, prec_y + v_x); INF
    when both are exact, or when either is an exact zero (INF, INF)."""
    (px, vx), (py, vy) = x, y
    return INF if px == py == INF else min(px + vy, py + vx)


class PuiseuxElem(Record):
    """sum(nums[i]/cden * t**(exps[i]/den)) + O(t**prec), in canonical form.

    ``exps`` are strictly increasing ints, ``den`` is positive with
    gcd(den, *exps) == 1 (so 1 when there are no terms).  ``nums`` are
    nonzero ints, one per exponent, over the positive ``cden`` with
    gcd(cden, *nums) == 1 (so 1 when there are no terms); over F_p, ``cden``
    is 1 and ``nums`` lie in range(1, p).  ``prec`` is an exclusive Fraction
    bound or INF.  Results are built by ``_lattice_terms``, most of them
    through ``_lattice_elem``, except where they are canonical by
    construction (negation, zeros, the inverse of a monomial).  Equal values
    therefore have equal fields, which is what equality and hash compare.
    ``_vdiff`` reads v(a - b) by walking both lattices to the first term
    where they differ, without building a - b.
    """

    _fields = ("field", "exps", "nums", "den", "cden", "prec")

    def __init__(self, field: PuiseuxField, exps: tuple, nums: tuple, den: int,
                 cden: int, prec):
        setfield(self, "field", field)
        setfield(self, "exps", exps)
        setfield(self, "nums", nums)
        setfield(self, "den", den)
        setfield(self, "cden", cden)
        setfield(self, "prec", prec)

    @cached
    def coefs(self) -> tuple:
        """The coefficients: Fractions over Q, residues over F_p."""
        if self.field.char:
            return self.nums
        cden = self.cden
        return tuple([Fraction(n, cden) for n in self.nums])

    @cached
    def terms(self) -> tuple:
        """((exponent, coefficient), ...) with Fraction exponents, increasing."""
        den = self.den
        return tuple((Fraction(e, den), c) for e, c in zip(self.exps, self.coefs))

    @cached
    def _lead(self) -> Fraction:
        """The leading exponent; valuations ask for it again and again."""
        return Fraction(self.exps[0], self.den)

    @property
    def is_exact(self) -> bool:
        return self.prec == INF

    def is_zero(self) -> bool:
        """True only for the exact zero; a truncated zero is indeterminate."""
        return not self.exps and self.prec == INF

    def valuation(self):
        """Leading exponent; +infinity for the exact zero.

        A truncated zero only bounds the valuation from below, so asking for
        its exact valuation fails loudly.
        """
        if self.exps:
            return self._lead
        if self.is_exact:
            return INF
        raise _truncated_zero(self.prec)

    def valuation_lower_bound(self):
        return self._lead if self.exps else self.prec

    def _vdiff(self, other):
        """valuation(self - other) as ints (e, den), den > 0, meaning e/den;
        None when the two are equal exact elements.

        The two exponent lists, put on one denominator, agree term by term up
        to the first exponent where the difference has a nonzero
        coefficient: the first index where the exponents differ (the smaller
        one is present on one side only), the coefficients differ, or one
        list ends.  That exponent is the valuation unless it lies at or above
        the coarser precision, in which case the difference is a truncated
        zero and, as for ``(self - other).valuation()``, PrecisionExhausted
        is raised.
        """
        _check_same_field(self, other)
        xs, ys, den = _on_common_den(self.den, self.exps, other.den, other.exps)
        ms, ns = self.nums, other.nums
        c1, c2 = self.cden, other.cden
        k, n = 0, min(len(xs), len(ys))
        while k < n:
            if xs[k] != ys[k]:
                e = min(xs[k], ys[k])
                break
            if ms[k] * c2 != ns[k] * c1:
                e = xs[k]
                break
            k += 1
        else:
            if len(xs) > n:
                e = xs[n]
            elif len(ys) > n:
                e = ys[n]
            else:
                e = None
        prec = min(self.prec, other.prec)
        if e is not None and (prec == INF or e < _lattice_bound(prec, den)):
            return e, den
        if prec == INF:
            return None
        raise _truncated_zero(prec)

    valuation_of_difference = _valuation_of_difference
    agrees_with = _agrees_with

    def __bool__(self):
        return bool(self.exps)

    def __add__(self, other):
        if not isinstance(other, _ELEMENTS):
            return NotImplemented
        _check_same_field(self, other)
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        xs, ys, den = _on_common_den(self.den, self.exps, other.den, other.exps)
        ms, ns, cden = _on_common_den(self.cden, self.nums,
                                      other.cden, other.nums)
        acc = dict(zip(xs, ms))
        p = self.field.char
        for e, n in zip(ys, ns):
            if e in acc:
                n = (acc[e] + n) % p if p else acc[e] + n
            acc[e] = n
        return _lattice_elem(self.field, acc, den, cden,
                             min(self.prec, other.prec))

    def __neg__(self):
        p = self.field.char
        nums = tuple([p - n for n in self.nums] if p
                     else [-n for n in self.nums])
        return PuiseuxElem(self.field, self.exps, nums, self.den, self.cden,
                           self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.field.constant(other)
        elif not isinstance(other, _ELEMENTS):
            return NotImplemented
        _check_same_field(self, other)
        f = self.field
        prec = _product_prec((self.prec, self.valuation_lower_bound()),
                             (other.prec, other.valuation_lower_bound()))
        if not self.exps or not other.exps:
            return PuiseuxElem(f, (), (), 1, 1, prec)
        xs, ys, den = _on_common_den(self.den, self.exps, other.den, other.exps)
        _, exps, nums = poly_mul_modp([len(xs)], xs, self.nums,
                                      [len(ys)], ys, other.nums, f.char)
        return _lattice_terms(f, exps, nums, den, self.cden * other.cden, prec)

    __rmul__ = __mul__

    def inverse(self) -> "PuiseuxElem":
        if not self.exps:
            if self.is_exact:
                raise DivisionByZero("inverse of zero")
            raise PrecisionExhausted(
                "cannot invert an element known only below its precision bound"
            )
        f = self.field
        p = f.char
        den = self.den
        # over Q the solve runs on Fraction coefficients; its result is put
        # back on the coefficient lattice once, at the end
        coefs = self.coefs
        e0, c0 = self.exps[0], coefs[0]
        c0inv = pow(c0, -1, p) if p else 1 / c0
        if self.is_exact and len(self.exps) == 1:
            n, d = (c0inv, 1) if p else (c0inv.numerator, c0inv.denominator)
            return PuiseuxElem(f, (-e0,), (n,), den, d, INF)
        # write self = c0 t**v0 (1 + h) and solve (1 + h) g = 1 term by term,
        # in increasing exponent order, up to the attainable precision
        v0 = self._lead
        unit_prec = self.prec - v0 if self.prec != INF else WORKING_PREC
        bound = _lattice_bound(unit_prec, den)
        h = [(e - e0, c * c0inv % p if p else c * c0inv)
             for e, c in zip(self.exps[1:], coefs[1:])]
        g = {0: 1}
        residual = {e: c for e, c in h if e < bound}
        heap = list(residual)
        heapq.heapify(heap)
        solved = 0
        while heap:
            solved += 1
            if solved > INVERSE_TERM_CAP:
                raise ResourceLimit(
                    f"inverse needs more than {INVERSE_TERM_CAP} terms",
                    witness=INVERSE_TERM_CAP)
            ek = heapq.heappop(heap)
            c = residual.pop(ek)
            if p:
                c %= p
            if not c:
                continue
            # every exponent still queued is above ek, so g has no ek yet
            g[ek] = (-c) % p if p else -c
            for ej, cj in h:
                e = ek + ej
                if e >= bound:
                    break
                if e in residual:
                    residual[e] -= c * cj
                else:
                    residual[e] = -c * cj
                    heapq.heappush(heap, e)
        acc = {e - e0: (c * c0inv % p if p else c * c0inv) for e, c in g.items()}
        cden = 1
        if not p:
            nums, cden = _over_common_den(list(acc.values()))
            acc = dict(zip(acc, nums))
        return _lattice_elem(f, acc, den, cden, unit_prec - v0)

    def truncated(self, prec) -> "PuiseuxElem":
        """The same element, known only below the given exponent bound."""
        prec = min(self.prec, prec)
        prec = prec if prec == INF else _frac(prec)
        return _lattice_terms(self.field, self.exps, self.nums, self.den,
                              self.cden, prec)

    def canonical_str(self) -> str:
        if not self.exps:
            return "0" if self.is_exact else f"O(t^{self.prec})"
        parts = []
        for e, c in self.terms:
            if e == 0:
                parts.append(str(c))
                continue
            var = "t" if e == 1 else f"t^{e}"
            parts.append(var if c == 1 else f"{c}*{var}")
        s = "+".join(parts)
        if not self.is_exact:
            s += f"+O(t^{self.prec})"
        return s

    def __repr__(self):
        return self.canonical_str()


def _vp(n: int, p: int) -> int:
    """The p-adic valuation of a nonzero int; 0 has none, and raises."""
    if not n:
        raise ZeroElement("0 has no p-adic valuation")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PadicElem(Record):
    """The rational num/den with the p-adic valuation, in canonical form.

    ``num`` and ``den`` are ints with ``den > 0`` and gcd(num, den) == 1,
    so zero is (0, 1).  Every result is reduced once, as it is built, so
    equal values have equal fields, which is what equality and hash
    compare.  ``_vdiff`` reads v(a - b) as v(n1*d2 - n2*d1) - v(d1*d2)
    without building a - b.
    """

    _fields = ("field", "num", "den")

    def __init__(self, field: PadicField, num: int, den: int):
        setfield(self, "field", field)
        setfield(self, "num", num)
        setfield(self, "den", den)

    @cached
    def value(self) -> Fraction:
        """The element as a Fraction."""
        return Fraction(self.num, self.den)

    @cached
    def _valuation(self):
        if not self.num:
            return INF
        p = self.field.p
        return Fraction(_vp(self.num, p) - _vp(self.den, p))

    @property
    def is_exact(self) -> bool:
        return True

    def is_zero(self) -> bool:
        return not self.num

    def valuation(self):
        return self._valuation

    valuation_lower_bound = valuation

    def _vdiff(self, other):
        """valuation(self - other) as ints (v, 1); None when they are equal."""
        _check_same_field(self, other)
        d1, d2 = self.den, other.den
        n = self.num * d2 - other.num * d1
        if not n:
            return None
        p = self.field.p
        return _vp(n, p) - _vp(d1 * d2, p), 1

    valuation_of_difference = _valuation_of_difference
    agrees_with = _agrees_with

    def __bool__(self):
        return self.num != 0

    def __add__(self, other):
        if not isinstance(other, _ELEMENTS):
            return NotImplemented
        _check_same_field(self, other)
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        # as in fractions.Fraction: with g = gcd(d1, d2), only g can share a
        # factor with the numerator of the sum over lcm(d1, d2)
        g = math.gcd(d1, d2)
        if g == 1:
            return PadicElem(self.field, n1 * d2 + n2 * d1, d1 * d2)
        s = d1 // g
        n = n1 * (d2 // g) + n2 * s
        g2 = math.gcd(n, g)
        return PadicElem(self.field, n // g2, s * (d2 // g2))

    def __neg__(self):
        return PadicElem(self.field, -self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.field.constant(other)
        elif not isinstance(other, _ELEMENTS):
            return NotImplemented
        _check_same_field(self, other)
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        # cross-cancel, so that the product is reduced as built
        g1, g2 = math.gcd(n1, d2), math.gcd(n2, d1)
        return PadicElem(self.field, (n1 // g1) * (n2 // g2),
                         (d1 // g2) * (d2 // g1))

    __rmul__ = __mul__

    def inverse(self):
        if not self.num:
            raise DivisionByZero("inverse of zero")
        if self.num < 0:
            return PadicElem(self.field, -self.den, -self.num)
        return PadicElem(self.field, self.den, self.num)

    def canonical_str(self) -> str:
        # the bytes str(Fraction) gives
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"

    def __repr__(self):
        return self.canonical_str()


_ELEMENTS = (PuiseuxElem, PadicElem)


def valuation(x):
    """Additive valuation of a field element; v(0) = +infinity."""
    return x.valuation()
