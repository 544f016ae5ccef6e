"""Polynomials and rational functions over a valued-field backend.

A polynomial stores its coefficients in the variable (T - center); recentering
is an exact Taylor shift.  When every coefficient is exact, products and
shifts run on one int-series encoding of the coefficients (``_series``):
exponents on the lcm lattice, numerators over one common denominator, a p-adic
number as the one-term series at exponent 0.  Anything truncated takes the
element-wise loop.  Rational functions keep numerator and denominator
over the same center and may carry the root lists they were built from.  Once
proven complete by exact division (``RationalFunction.certified_roots``), those
lists answer divisor bookkeeping directly, without any root finding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

from . import kernel
from .errors import BackendMismatch, NotCertified, ZeroDenominator
from .field import INF, PadicElem, PadicField, _lattice_elem, cached


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
        for c in (center, *elems):
            if c.field is not fld and c.field != fld:
                raise BackendMismatch(f"{c!r} is not in {fld!r}")
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
        if self.center is other.center:
            return
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
        if n == 0:
            return Polynomial.from_coeffs(self.field, [self.field.one()],
                                          self.center)
        out = None
        base = self
        k = n
        while k:
            if k & 1:
                out = base if out is None else out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def recenter(self, a) -> "Polynomial":
        """The same function written in the variable (T - a); exact.

        Horner's Taylor shift by d = a - center.  With d = D/E and every
        coefficient exact, it runs on int series: coefficient i, over the
        common denominator L, is scaled by E**(n-i), shifted by D (mod p over
        F_p) and output j is decoded once, over L*E**(n-j).  A truncated
        coefficient or d takes the element-wise loop.
        """
        d = a - self.center
        if d.is_zero():
            return Polynomial(a, self.coeffs)
        b = list(self.coeffs)
        if d.is_exact and all(c.is_exact for c in b):
            return Polynomial(a, _shift(self.field, b, d))
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


def _lattice(fld, coeffs) -> int:
    """The lcm of the exponent denominators of exact coefficients."""
    return 1 if type(fld) is PadicField else math.lcm(*(c.den for c in coeffs))


def _series(fld, coeffs, lat):
    """Exact coefficients as int series, in the kernel's flat encoding.

    Returns (counts, exps, cofs, cden): coefficient i has counts[i] terms,
    the next ones in exps/cofs, with exponents on the lattice (1/lat)Z and
    numerators over cden, the lcm of the coefficient denominators (1 over
    F_p).  A p-adic number is the one-term series at exponent 0.
    """
    if type(fld) is PadicField:
        cden = math.lcm(*(c.den for c in coeffs))
        cofs = [c.num * (cden // c.den) for c in coeffs if c.num]
        return [1 if c.num else 0 for c in coeffs], [0] * len(cofs), cofs, cden
    cden = 1 if fld.char else math.lcm(*(c.cden for c in coeffs))
    counts, exps, cofs = [], [], []
    for c in coeffs:
        counts.append(len(c.exps))
        s, m = lat // c.den, cden // c.cden
        exps.extend(c.exps if s == 1 else [e * s for e in c.exps])
        cofs.extend(c.nums if m == 1 else [n * m for n in c.nums])
    return counts, exps, cofs, cden


def _padic(fld, n, cden):
    """The p-adic number n/cden, reduced; decodes a one-term series."""
    g = math.gcd(n, cden)
    return PadicElem(fld, n // g, cden // g)


def _try_kernel_mul(f: Polynomial, g: Polynomial):
    """Route every exact product through the convolution kernel.

    Both factors go on the int-series encoding, exponents on one lattice;
    the kernel convolves mod p over F_p and over Z (p = 0) for Q((t)) and
    Q_p, and each output coefficient is decoded once, over the product of
    the two common denominators.  None when a coefficient is truncated.
    """
    fld = f.field
    padic = type(fld) is PadicField
    both = f.coeffs + g.coeffs
    if not padic and any(c.prec != INF for c in both):
        return None
    lat = _lattice(fld, both)
    *kf, cf = _series(fld, f.coeffs, lat)
    *kg, cg = _series(fld, g.coeffs, lat)
    counts, exps, cofs = kernel.poly_mul_modp(*kf, *kg, 0 if padic else fld.char)
    out = []
    pos = 0
    cden = cf * cg
    for cnt in counts:
        end = pos + cnt
        out.append(_padic(fld, cofs[pos] if cnt else 0, cden) if padic else
                   _lattice_elem(fld, dict(zip(exps[pos:end], cofs[pos:end])),
                                 lat, cden, INF))
        pos = end
    while out and out[-1].is_zero():
        out.pop()
    return Polynomial(f.center, tuple(out))


def _shift(fld, coeffs, d) -> tuple:
    """Horner's Taylor shift of exact coefficients by the exact d, on ints.

    With X = T - center - d, d = D/E and coefficients B_i/L,
    sum B_i/L (X + D/E)**i has X**j-coefficient
    sum_i C(i, j) (B_i E**(n-i)) D**(i-j) / (L E**(n-j)).
    """
    lat = _lattice(fld, (d, *coeffs))
    _, dexps, dnums, big_e = _series(fld, [d], lat)
    counts, exps, cofs, big_l = _series(fld, coeffs, lat)
    step = list(zip(dexps, dnums))
    n = len(counts) - 1
    b = []
    pos = 0
    for i, cnt in enumerate(counts):
        end = pos + cnt
        w = big_e ** (n - i)
        b.append(dict(zip(exps[pos:end], cofs[pos:end] if w == 1
                          else [x * w for x in cofs[pos:end]])))
        pos = end
    padic = type(fld) is PadicField
    p = 0 if padic else fld.char
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            acc = b[j]
            for e2, c2 in b[j + 1].items():
                if not c2:
                    continue
                for e1, c1 in step:
                    e = e1 + e2
                    v = acc.get(e, 0) + c1 * c2
                    acc[e] = v % p if p else v
    return tuple(_padic(fld, b[j].get(0, 0), big_l * big_e ** (n - j)) if padic
                 else _lattice_elem(fld, b[j], lat, big_l * big_e ** (n - j), INF)
                 for j in range(n + 1))


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

    @cached
    def certified_roots(self):
        """(num_roots, den_roots) once proven to be the complete root lists.

        Proven means: each list is as long as its polynomial's degree, every
        coefficient and root is exact, and dividing out the listed roots one
        by one leaves an exact zero remainder each time.  Returns None when a
        list is partial or something is inexact; raises NotCertified, with
        the side and the index of the first failing root as witness, when a
        remainder is provably nonzero.  Computed once per instance.
        """
        sides = (("num", self.num, self.num_roots),
                 ("den", self.den, self.den_roots))
        for _, poly, roots in sides:
            if len(roots) != poly.degree:
                return None
            if not all(c.is_exact for c in (*poly.coeffs, *roots)):
                return None
        for which, poly, roots in sides:
            for i, r in enumerate(roots):
                poly, rem = poly.divide_linear(r)
                if not rem.is_zero():
                    raise NotCertified(
                        f"{which}_roots[{i}] is not a root of the {which}",
                        witness={"which": which, "index": i})
        return self.num_roots, self.den_roots

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
    remaining_den = list(enumerate(den_roots))
    kept_num = []
    for i, r in enumerate(num_roots):
        hit = next((k for k, (_, s) in enumerate(remaining_den)
                    if s.agrees_with(r)), None)
        if hit is None:
            kept_num.append(r)
            continue
        j, _ = remaining_den.pop(hit)
        num, rem_n = num.divide_linear(r)
        den, rem_d = den.divide_linear(r)
        for which, index, rem in (("num", i, rem_n), ("den", j, rem_d)):
            if not rem.is_zero():
                raise NotCertified(
                    f"{which}_roots[{index}] does not divide the {which} "
                    "exactly", witness={"which": which, "index": index})
    return RationalFunction(num, den, reduced=lists_given,
                            num_roots=tuple(kept_num),
                            den_roots=tuple(s for _, s in remaining_den))
