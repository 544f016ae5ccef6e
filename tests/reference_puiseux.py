"""Reference Puiseux arithmetic with ``Fraction`` exponents: the test oracle.

This is the element the library used before it stored exponents on an
integer lattice, kept verbatim apart from the class names.  Every exponent
is a ``Fraction`` and every result is re-normalised through ``elem``: slow,
but it shares no code with ``berkline.field``'s lattice arithmetic, which is
what makes it a useful oracle for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from berkline.errors import BackendMismatch, DivisionByZero, PrecisionExhausted
from berkline.field import INF, _frac


class RefPuiseuxField:
    """Truncated Puiseux series field over F_p (char=p) or Q (char=0)."""

    def __init__(self, char: int = 0, working_prec=Fraction(32)):
        self.char = char
        self.working_prec = _frac(working_prec)

    def __eq__(self, other):
        return isinstance(other, RefPuiseuxField) and other.char == self.char

    def __hash__(self):
        return hash(("ref-puiseux", self.char))

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

    def elem(self, terms, prec=INF) -> "RefPuiseuxElem":
        prec = prec if prec == INF else _frac(prec)
        merged = {}
        for e, c in terms:
            e = _frac(e)
            c = self._cnorm(c)
            if e in merged:
                c = self._cadd(merged[e], c)
            merged[e] = c
        out = tuple(sorted((e, c) for e, c in merged.items() if c != 0 and e < prec))
        return RefPuiseuxElem(self, out, prec)

    def constant(self, c) -> "RefPuiseuxElem":
        return self.elem([(Fraction(0), c)])

    def zero(self) -> "RefPuiseuxElem":
        return self.elem([])

    def one(self) -> "RefPuiseuxElem":
        return self.constant(1)


def _check_same_field(x, y):
    if x.field != y.field:
        raise BackendMismatch(f"mixed operands: {x.field!r} vs {y.field!r}")


@dataclass(frozen=True)
class RefPuiseuxElem:
    field: RefPuiseuxField
    terms: tuple          # ((exp, coeff), ...) exponents strictly increasing
    prec: object          # exclusive Fraction bound, or math.inf when exact

    @property
    def is_exact(self) -> bool:
        return self.prec == INF

    def is_zero(self) -> bool:
        return not self.terms and self.is_exact

    def valuation(self):
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
        return RefPuiseuxElem(f, tuple((e, f._cneg(c)) for e, c in self.terms), self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.field.constant(other)
        _check_same_field(self, other)
        f = self.field
        if self.is_zero() or other.is_zero():
            return RefPuiseuxElem(f, (), INF)
        prec = min(
            self.prec + other.valuation_lower_bound(),
            other.prec + self.valuation_lower_bound(),
        )
        if not self.terms or not other.terms:
            return RefPuiseuxElem(f, (), prec)
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
        return RefPuiseuxElem(f, out, prec)

    __rmul__ = __mul__

    def inverse(self) -> "RefPuiseuxElem":
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

    def truncated(self, prec) -> "RefPuiseuxElem":
        return self.field.elem(self.terms, min(self.prec, prec))

    def agrees_with(self, other) -> bool:
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
