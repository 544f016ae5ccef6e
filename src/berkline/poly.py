"""Polynomials and rational functions over a valued-field backend.

A polynomial stores its coefficients in the variable (T - center); recentering
is an exact Taylor shift.  Rational functions keep numerator and denominator
over the same center and may carry the root lists they were built from, which
later drives exact divisor bookkeeping without any root finding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import kernel
from .errors import BackendMismatch, ZeroDenominator
from .field import INF, PuiseuxField


@dataclass(frozen=True)
class Polynomial:
    """Coefficients c_0..c_n in (T - center), leading one nonzero."""

    center: object
    coeffs: tuple

    @property
    def field(self):
        return self.center.field

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @classmethod
    def from_coeffs(cls, fld, coeffs, center=None):
        center = fld.zero() if center is None else center
        elems = [c if hasattr(c, "field") else fld.constant(c) for c in coeffs]
        while elems and elems[-1].is_zero():
            elems.pop()
        return cls(center, tuple(elems))

    @classmethod
    def variable(cls, fld, center=None):
        """The coordinate T, expressed around the given center."""
        center = fld.zero() if center is None else center
        return cls(center, (center, fld.one()))

    @classmethod
    def from_roots(cls, fld, roots, center=None, lead=None):
        """The monic polynomial with the given roots (times an optional lead)."""
        center = fld.zero() if center is None else center
        out = cls.from_coeffs(fld, [fld.one() if lead is None else lead], center)
        for r in roots:
            shift = r - center
            out = out * cls(center, (-shift, fld.one()))
        return out

    def _check_compatible(self, other):
        if self.field != other.field:
            raise BackendMismatch("polynomials over different fields")
        if not self.center.agrees_with(other.center):
            raise ValueError("polynomials must share a center; recenter first")

    def __add__(self, other):
        self._check_compatible(other)
        fld = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        zero = fld.zero()
        a = list(self.coeffs) + [zero] * (n - len(self.coeffs))
        b = list(other.coeffs) + [zero] * (n - len(other.coeffs))
        return Polynomial.from_coeffs(fld, [x + y for x, y in zip(a, b)], self.center)

    def __neg__(self):
        return Polynomial(self.center, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if hasattr(other, "field") and not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_compatible(other)
        if self.is_zero() or other.is_zero():
            return Polynomial(self.center, ())
        fast = _try_kernel_mul(self, other)
        if fast is not None:
            return fast
        fld = self.field
        zero = fld.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci.is_zero():
                continue
            for j, cj in enumerate(other.coeffs):
                if cj.is_zero():
                    continue
                out[i + j] = out[i + j] + ci * cj
        return Polynomial.from_coeffs(fld, out, self.center)

    def scale(self, c):
        if c.is_zero():
            return Polynomial(self.center, ())
        return Polynomial.from_coeffs(
            self.field, [x * c for x in self.coeffs], self.center
        )

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        out = Polynomial.from_coeffs(self.field, [self.field.one()], self.center)
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def recenter(self, a) -> "Polynomial":
        """The same function written in the variable (T - a); exact."""
        d = a - self.center
        if d.is_zero():
            return Polynomial(a, self.coeffs)
        b = list(self.coeffs)
        n = len(b) - 1
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                b[j] = b[j] + d * b[j + 1]
        return Polynomial.from_coeffs(self.field, b, a)

    def __call__(self, x):
        """Evaluate at a field element (Horner)."""
        if not self.coeffs:
            return self.field.zero()
        u = x - self.center
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * u + c
        return acc

    def divide_linear(self, root):
        """Divide by (T - root); returns (quotient, remainder element)."""
        if self.is_zero():
            return self, self.field.zero()
        d = root - self.center
        out = [self.coeffs[-1]]
        for c in reversed(self.coeffs[:-1]):
            out.append(c + d * out[-1])
        out.reverse()
        rem = out[0]
        return Polynomial.from_coeffs(self.field, out[1:], self.center), rem

    def canonical_str(self) -> str:
        if not self.coeffs:
            return "0"
        var = "T" if self.center.is_zero() else f"(T-{self.center.canonical_str()})"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            cs = c.canonical_str()
            if i == 0:
                parts.append(cs)
            else:
                head = "" if cs == "1" else f"({cs})*"
                parts.append(f"{head}{var}" + (f"^{i}" if i > 1 else ""))
        return " + ".join(parts)

    def __repr__(self):
        return self.canonical_str()


def _try_kernel_mul(f: Polynomial, g: Polynomial):
    """Route exact prime-field puiseux products through the convolution kernel."""
    fld = f.field
    if not isinstance(fld, PuiseuxField) or fld.char == 0:
        return None
    dens = set()
    for poly in (f, g):
        if not any(c.terms for c in poly.coeffs):
            return None
        for c in poly.coeffs:
            if c.prec != INF:
                return None
            dens.update(e.denominator for e, _ in c.terms)
    lat = math.lcm(*dens)

    def encode(poly):
        counts, exps, cofs = [], [], []
        for c in poly.coeffs:
            counts.append(len(c.terms))
            for e, coef in c.terms:
                exps.append(int(e * lat))
                cofs.append(coef)
        return counts, exps, cofs

    cf, ef, kf = encode(f)
    cg, eg, kg = encode(g)
    counts, exps, cofs = kernel.poly_mul_modp(cf, ef, kf, cg, eg, kg, fld.char)
    out = []
    pos = 0
    from .field import PuiseuxElem

    for cnt in counts:
        terms = tuple(
            (Fraction(exps[pos + t], lat), cofs[pos + t]) for t in range(cnt)
        )
        pos += cnt
        out.append(PuiseuxElem(fld, terms, INF))
    while out and out[-1].is_zero():
        out.pop()
    return Polynomial(f.center, tuple(out))


@dataclass(frozen=True)
class RationalFunction:
    """num/den over a common center, with optional certified root lists."""

    num: Polynomial
    den: Polynomial
    reduced: bool = False
    num_roots: tuple = dc_field(default=())
    den_roots: tuple = dc_field(default=())

    def __post_init__(self):
        if self.den.is_zero():
            raise ZeroDenominator("zero denominator")
        self.num._check_compatible(self.den)

    @property
    def field(self):
        return self.num.field

    @property
    def center(self):
        return self.num.center

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def recenter(self, a):
        return RationalFunction(
            self.num.recenter(a), self.den.recenter(a), self.reduced,
            self.num_roots, self.den_roots,
        )

    def inverse(self):
        if self.num.is_zero():
            raise ZeroDenominator("inverting the zero function")
        return RationalFunction(self.den, self.num, self.reduced,
                                self.den_roots, self.num_roots)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            other = RationalFunction(other, _one_poly(other))
        return RationalFunction(
            self.num * other.num, self.den * other.den, False,
            self.num_roots + other.num_roots, self.den_roots + other.den_roots,
        )

    def canonical_str(self):
        ds = self.den.canonical_str()
        if ds == "1":
            return self.num.canonical_str()
        return f"({self.num.canonical_str()}) / ({ds})"

    def __repr__(self):
        return self.canonical_str()


def _one_poly(like: Polynomial) -> Polynomial:
    return Polynomial.from_coeffs(like.field, [like.field.one()], like.center)


def rat_normalize(num: Polynomial, den: Polynomial,
                  num_roots=None, den_roots=None) -> RationalFunction:
    """Build num/den, cancelling common linear factors over supplied root lists.

    Cancellation happens only for roots listed on both sides (matched by exact
    element equality); the reduced flag records that root lists were given and
    all shared roots were removed.
    """
    if den.is_zero():
        raise ZeroDenominator("zero denominator")
    if num.is_zero():
        return RationalFunction(num, _one_poly(den), reduced=True)
    num_roots = list(num_roots or ())
    den_roots = list(den_roots or ())
    lists_given = bool(num_roots or den_roots)
    remaining_den = list(den_roots)
    kept_num = []
    for r in num_roots:
        hit = next((i for i, s in enumerate(remaining_den) if s.agrees_with(r)), None)
        if hit is None:
            kept_num.append(r)
            continue
        remaining_den.pop(hit)
        num, rem_n = num.divide_linear(r)
        den, rem_d = den.divide_linear(r)
        if not rem_n.is_zero() or not rem_d.is_zero():
            raise ValueError("supplied root does not divide exactly")
    return RationalFunction(num, den, reduced=lists_given,
                            num_roots=tuple(kept_num),
                            den_roots=tuple(remaining_den))
