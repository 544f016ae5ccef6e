"""Exact arithmetic in concrete nonarchimedean valued fields.

Two backends are provided:

* truncated Puiseux series t**q with strictly increasing rational exponents,
  coefficients either in a prime field F_p or in Q, and a per-element
  exclusive precision bound (``math.inf`` marks an exact element);
* p-adic rationals, stored exactly as a reduced fraction.

The norm normalization is |x| = 2**(-v(x)) throughout, so the uniformizer
(t, respectively p) has norm 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BackendMismatch, DivisionByZero, NotPrime, PrecisionExhausted

INF = math.inf

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
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
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


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("exact rational required, got float")
    return Fraction(x)


class PuiseuxField:
    """Truncated Puiseux series field over F_p (char=p) or Q (char=0).

    ``working_prec`` is the default exclusive precision used when inverting
    exact elements, whose inverse is an infinite series.
    """

    backend = "puiseux"

    def __init__(self, char: int = 0, working_prec=Fraction(32)):
        if char:
            _require_prime(char)
        self.char = char
        self.working_prec = _frac(working_prec)

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

    # coefficient arithmetic, parametrized by the characteristic
    def _cnorm(self, c):
        if self.char:
            c = _frac(c)
            if c.denominator % self.char == 0:
                raise ValueError(
                    f"denominator {c.denominator} not invertible mod {self.char}"
                )
            return c.numerator * pow(c.denominator, -1, self.char) % self.char
        return _frac(c)

    def _cadd(self, a, b):
        return (a + b) % self.char if self.char else a + b

    def _cmul(self, a, b):
        return (a * b) % self.char if self.char else a * b

    def _cneg(self, a):
        return (-a) % self.char if self.char else -a

    def _cinv(self, a):
        if self.char:
            return pow(a, -1, self.char)
        return 1 / a

    def elem(self, terms, prec=INF) -> "PuiseuxElem":
        """Build an element from (exponent, coefficient) pairs.

        Pairs are merged, zero coefficients dropped, and anything at or above
        the precision bound truncated away.
        """
        prec = prec if prec == INF else _frac(prec)
        merged = {}
        for e, c in terms:
            e = _frac(e)
            c = self._cnorm(c)
            if e in merged:
                c = self._cadd(merged[e], c)
            merged[e] = c
        out = tuple(sorted((e, c) for e, c in merged.items() if c != 0 and e < prec))
        return PuiseuxElem(self, out, prec)

    def constant(self, c) -> "PuiseuxElem":
        return self.elem([(Fraction(0), c)])

    def zero(self) -> "PuiseuxElem":
        return self.elem([])

    def one(self) -> "PuiseuxElem":
        return self.constant(1)

    def t(self, q=1, c=1) -> "PuiseuxElem":
        """The monomial c * t**q."""
        return self.elem([(q, c)])


class PadicField:
    """The rationals with the p-adic valuation; arithmetic is exact."""

    backend = "padic"

    def __init__(self, p: int):
        _require_prime(p)
        self.p = p

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
        return PadicElem(self, _frac(value))

    def constant(self, c) -> "PadicElem":
        return self.elem(c)

    def zero(self) -> "PadicElem":
        return self.elem(0)

    def one(self) -> "PadicElem":
        return self.elem(1)

    def t(self, q=1, c=1) -> "PadicElem":
        """The element c * p**q; q must be an integer here."""
        q = _frac(q)
        if q.denominator != 1:
            raise ValueError("the p-adic value group is Z")
        return self.elem(Fraction(self.p) ** int(q) * _frac(c))


def _check_same_field(x, y):
    if x.field != y.field:
        raise BackendMismatch(f"mixed operands: {x.field!r} vs {y.field!r}")


@dataclass(frozen=True)
class PuiseuxElem:
    field: PuiseuxField
    terms: tuple          # ((exp, coeff), ...) exponents strictly increasing
    prec: object          # exclusive Fraction bound, or math.inf when exact

    @property
    def is_exact(self) -> bool:
        return self.prec == INF

    def is_zero(self) -> bool:
        """True only for the exact zero; a truncated zero is indeterminate."""
        return not self.terms and self.is_exact

    def valuation(self):
        """Leading exponent; +infinity for the exact zero.

        A truncated zero only bounds the valuation from below, so asking for
        its exact valuation fails loudly.
        """
        if self.terms:
            return self.terms[0][0]
        if self.is_exact:
            return INF
        raise PrecisionExhausted(
            f"valuation only known to be >= {self.prec}", witness=str(self.prec)
        )

    def valuation_lower_bound(self):
        return self.terms[0][0] if self.terms else self.prec

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        _check_same_field(self, other)
        prec = min(self.prec, other.prec)
        return self.field.elem(self.terms + other.terms, prec)

    def __neg__(self):
        f = self.field
        return PuiseuxElem(f, tuple((e, f._cneg(c)) for e, c in self.terms), self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.field.constant(other)
        _check_same_field(self, other)
        f = self.field
        if self.is_zero() or other.is_zero():
            return PuiseuxElem(f, (), INF)
        # standard series rule: the product is known modulo
        # t**min(prec_x + v(y), prec_y + v(x))
        prec = min(
            self.prec + other.valuation_lower_bound(),
            other.prec + self.valuation_lower_bound(),
        )
        if not self.terms or not other.terms:
            return PuiseuxElem(f, (), prec)
        acc = {}
        cmul, cadd = f._cmul, f._cadd
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                if e in acc:
                    acc[e] = cadd(acc[e], cmul(c1, c2))
                else:
                    acc[e] = cmul(c1, c2)
        out = tuple(sorted((e, c) for e, c in acc.items() if c != 0 and e < prec))
        return PuiseuxElem(f, out, prec)

    __rmul__ = __mul__

    def inverse(self) -> "PuiseuxElem":
        if not self.terms:
            if self.is_exact:
                raise DivisionByZero("inverse of zero")
            raise PrecisionExhausted(
                "cannot invert an element known only below its precision bound"
            )
        f = self.field
        v0, c0 = self.terms[0]
        c0inv = f._cinv(c0)
        if self.is_exact and len(self.terms) == 1:
            return f.elem([(-v0, c0inv)])
        # write self = c0 t**v0 (1 + h) and solve (1 + h) g = 1 term by term,
        # up to the attainable precision
        unit_prec = self.prec - v0 if self.prec != INF else f.working_prec
        h = [(e - v0, f._cmul(c, c0inv)) for e, c in self.terms[1:]]
        g = {Fraction(0): 1}
        residual = {e: c for e, c in h if e < unit_prec}
        while residual:
            e0 = min(residual)
            c = residual.pop(e0)
            if c == 0:
                continue
            g[e0] = f._cadd(g.get(e0, 0), f._cneg(c))
            for ej, cj in h:
                e = e0 + ej
                if e < unit_prec:
                    residual[e] = f._cadd(residual.get(e, 0),
                                          f._cneg(f._cmul(c, cj)))
        return f.elem([(e - v0, f._cmul(c, c0inv)) for e, c in g.items()],
                      unit_prec - v0)

    def truncated(self, prec) -> "PuiseuxElem":
        """The same element, known only below the given exponent bound."""
        return self.field.elem(self.terms, min(self.prec, prec))

    def agrees_with(self, other) -> bool:
        """Equality of the two elements modulo the coarser precision."""
        _check_same_field(self, other)
        prec = min(self.prec, other.prec)
        trim = lambda t: tuple((e, c) for e, c in t if e < prec)
        return trim(self.terms) == trim(other.terms)

    def canonical_str(self) -> str:
        if not self.terms:
            return "0"
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


@dataclass(frozen=True)
class PadicElem:
    field: PadicField
    value: Fraction

    @property
    def is_exact(self) -> bool:
        return True

    def is_zero(self) -> bool:
        return self.value == 0

    def valuation(self):
        if self.value == 0:
            return INF
        p = self.field.p
        num, den = self.value.numerator, self.value.denominator
        v = 0
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        return Fraction(v)

    valuation_lower_bound = valuation

    def __bool__(self):
        return self.value != 0

    def __add__(self, other):
        _check_same_field(self, other)
        return PadicElem(self.field, self.value + other.value)

    def __neg__(self):
        return PadicElem(self.field, -self.value)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.field.constant(other)
        _check_same_field(self, other)
        return PadicElem(self.field, self.value * other.value)

    __rmul__ = __mul__

    def inverse(self):
        if self.value == 0:
            raise DivisionByZero("inverse of zero")
        return PadicElem(self.field, 1 / self.value)

    def agrees_with(self, other) -> bool:
        _check_same_field(self, other)
        return self.value == other.value

    def canonical_str(self) -> str:
        return str(self.value)

    def __repr__(self):
        return self.canonical_str()


def valuation(x):
    """Additive valuation of a field element; v(0) = +infinity."""
    return x.valuation()
