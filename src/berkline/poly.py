"""Polynomials and rational functions over a valued-field backend.

A polynomial stores its coefficients in the variable (T - center); recentering
is an exact Taylor shift.  Products, and shifts whose coefficients and center
are all exact, run on one int-series encoding of the coefficients
(``_series``): exponents on the lcm lattice, numerators over one common
denominator, a p-adic number as the one-term series at exponent 0.  The
routes:

* ``f * g``, and ``f * c`` (``scale``, c a constant polynomial), call
  ``_try_kernel_mul``, a kernel chain of two factors
  (``_kernel_product``): the kernel makes one keyed pass per product, all
  term pairs in one dict sorted once.  When an input is truncated, each
  output coefficient is decoded at once from its sorted terms
  (``_decode_flat``) and truncated once;
* ``from_roots`` with an exact center, lead and roots is one kernel chain
  of all its factors: each is encoded once and each kernel output feeds the
  next product as it stands.  A truncated input multiplies the factors in
  one by one through ``f * g``;
* ``recenter`` of exact coefficients by an exact shift is a Horner shift on
  int series, read per coefficient off the flat encoding (a flat
  polynomial's own) and decoded once per output from dicts (``_decode``); at its own exact center a
  polynomial is returned as it is, and at an equal center it keeps its
  form;
* evaluation, ``divide_linear`` and a truncated shift run one synthetic
  division on elements (``_synthetic``): a truncated shift is n of them in
  a row.

An exact product stays flat until read: the polynomial holds the kernel's
output (counts, exponents, numerators, lattice and common denominator) in
``_flat``, and ``coeffs`` decodes it into elements once, on first read, and
keeps both.  ``degree`` and ``is_zero`` read the counts, a product with a
flat operand, and an exact shift of one, take its encoding as it stands
(exponents scaled to the product's lattice), and ``gauss`` reads valuations
off it, so a chain of products whose elements nobody reads decodes none of
them.

Rational functions keep numerator and denominator over the same center and
may carry the root lists they were built from.  Once proven complete by exact
division (``RationalFunction.certified_roots``), those lists answer divisor
bookkeeping directly, without any root finding.
"""

from __future__ import annotations

import math
from itertools import islice

from . import kernel
from ._record import Record, setfield
from .errors import BackendMismatch, NotCertified, ZeroDenominator
from .field import (INF, PadicElem, PadicField, PuiseuxElem,
                    _check_same_field, _lattice_elem, _lattice_terms,
                    _product_prec, cached)


class Polynomial(Record):
    """Coefficients c_0..c_n in (T - center), leading one nonzero; an exact
    kernel product holds a flat form instead (``_flat_poly``)."""

    _fields = ("center", "coeffs")
    _flat = None

    def __init__(self, center, coeffs: tuple):
        setfield(self, "center", center)
        setfield(self, "coeffs", coeffs)

    @cached
    def coeffs(self) -> tuple:
        return _decode_flat(self.field, *self._flat)

    @property
    def field(self):
        return self.center.field

    @property
    def degree(self) -> int:
        flat = self._flat
        return len(self.coeffs if flat is None else flat[0]) - 1

    def is_zero(self) -> bool:
        flat = self._flat
        return not (self.coeffs if flat is None else flat[0])

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
        """The monic polynomial with the given roots (times an optional lead).

        With the center, the lead and every root exact, the lead and the
        linear factors are multiplied in one kernel chain
        (``_kernel_product``): each is encoded once, and the result stays
        flat until read.  Otherwise they are multiplied in one by one, each
        product through ``_try_kernel_mul``.
        """
        center = fld.zero() if center is None else center
        out = cls.from_coeffs(fld, [fld.one() if lead is None else lead], center)
        shifts = [r - center for r in roots]
        one = fld.one()
        # an exact shift r - center means an exact root and center
        if out.coeffs and shifts and out.coeffs[0].is_exact \
                and all(d.is_exact for d in shifts):
            factors = [out, *(cls(center, (-d, one)) for d in shifts)]
            return _flat_poly(center, *_kernel_product(fld, factors))
        for d in shifts:
            out = out * cls(center, (-d, one))
        return out

    def _check_compatible(self, other):
        if self.center is other.center:
            return
        if self.field != other.field:
            raise BackendMismatch("polynomials over different fields")
        if not self.center.agrees_with(other.center):
            raise ValueError("polynomials must share a center; recenter first")

    def _scalar(self, x):
        """An int operand as the field's constant, an element as it is;
        None for any other operand."""
        if isinstance(x, int):
            return self.field.constant(x)
        if isinstance(x, (PuiseuxElem, PadicElem)):
            return x
        return None

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            c = self._scalar(other)
            if c is None:
                return NotImplemented
            other = Polynomial.from_coeffs(self.field, [c], self.center)
        self._check_compatible(other)
        fld = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        zero = fld.zero()
        a = list(self.coeffs) + [zero] * (n - len(self.coeffs))
        b = list(other.coeffs) + [zero] * (n - len(other.coeffs))
        return Polynomial.from_coeffs(fld, [x + y for x, y in zip(a, b)], self.center)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.center, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            return _try_kernel_mul(self, other)
        c = self._scalar(other)
        return NotImplemented if c is None else self.scale(c)

    __rmul__ = __mul__

    def scale(self, c):
        _check_same_field(self.center, c)
        return _try_kernel_mul(
            self, Polynomial(self.center, () if c.is_zero() else (c,)))

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError(
                f"polynomial exponent must be an int, not {type(n).__name__}")
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        if n == 0:
            return _one_poly(self)
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
        F_p) and output j is decoded once, over L*E**(n-j).  With a
        truncated coefficient or d it is n synthetic divisions by (T - a) on
        elements (``_synthetic``), each on the quotient of the last.

        At its own center object, exact or truncated, a polynomial is
        returned as it is: T - a is then T - center, the same variable, so
        every coefficient is unchanged.  The difference a - center computed
        on elements would be a truncated zero when a is truncated, and the
        divisions would spread that O(t^p) into each coefficient.  At an
        equal center object the result keeps this polynomial's forms, flat,
        decoded or both.
        """
        if a is self.center:
            return self
        d = a - self.center
        if d.is_zero():
            out = object.__new__(Polynomial)
            vars(out).update(vars(self))
            setfield(out, "center", a)
            return out
        if d.is_exact and _is_exact(self):
            return Polynomial(a, _shift(self.field, self, d))
        b = list(self.coeffs)
        for i in range(len(b) - 1):
            b[i:] = _synthetic(b[i:], d)
        return Polynomial.from_coeffs(self.field, b, a)

    def __call__(self, x):
        """Evaluate at a field element or an int: the remainder of
        ``divide_linear``."""
        return self.divide_linear(x)[1]

    def divide_linear(self, root):
        """Divide by (T - root); returns (quotient, remainder element).  An
        int root is the field's constant, as for ``+`` and ``*``."""
        if self.is_zero():
            return self, self.field.zero()
        if isinstance(root, int):
            root = self.field.constant(root)
        out = _synthetic(self.coeffs, root - self.center)
        return Polynomial.from_coeffs(self.field, out[1:], self.center), out[0]

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


def _synthetic(coeffs, d) -> list:
    """Synthetic division of c_0 + ... + c_n X**n by (X - d), on elements:
    [remainder, q_0, ..., q_{n-1}].  Horner's rule; the remainder is the
    value at X = d."""
    out = [coeffs[-1]]
    for c in reversed(coeffs[:-1]):
        out.append(c + d * out[-1])
    out.reverse()
    return out


def _lattice(fld, coeffs) -> int:
    """The lcm of the exponent denominators of exact coefficients."""
    return 1 if type(fld) is PadicField else math.lcm(*(c.den for c in coeffs))


def _lattice_of(fld, f: Polynomial) -> int:
    """The lattice of f's encoding: its flat form's, or its coefficients'."""
    return _lattice(fld, f.coeffs) if f._flat is None else f._flat[3]


def _series(fld, coeffs, lat):
    """Coefficients as int series, in the kernel's flat encoding; a
    truncated coefficient by its known terms, its precision kept apart.

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


def _decode(fld, acc, lat, cden):
    """The exact element with int series ``acc`` over ``cden`` on the
    lattice (1/lat)Z; over Q_p, the reduced number acc[0]/cden."""
    if type(fld) is PadicField:
        n = acc.get(0, 0)
        g = math.gcd(n, cden)
        return PadicElem(fld, n // g, cden // g)
    return _lattice_elem(fld, acc, lat, cden, INF)


def _decode_flat(fld, counts, exps, cofs, lat, cden, precs=None) -> tuple:
    """The coefficients of the kernel output (counts, exps, cofs) over
    ``cden`` on the lattice (1/lat)Z, output k truncated at ``precs[k]``
    when given, with trailing exact zeros dropped.

    The kernel returns each coefficient's terms sorted and zero-free, so
    each slice goes straight to ``_lattice_terms``; over Q_p a coefficient
    is one term at exponent 0, or none, and is reduced once.
    """
    res = []
    pos = 0
    if type(fld) is PadicField:
        for c in counts:
            n = cofs[pos] if c else 0
            pos += c
            g = math.gcd(n, cden)
            res.append(PadicElem(fld, n // g, cden // g))
    else:
        for k, c in enumerate(counts):
            end = pos + c
            res.append(_lattice_terms(fld, exps[pos:end], cofs[pos:end], lat,
                                      cden, INF if precs is None else precs[k]))
            pos = end
    while res and res[-1].is_zero():
        res.pop()
    return tuple(res)


def _try_kernel_mul(f: Polynomial, g: Polynomial) -> Polynomial:
    """Route every product through the convolution kernel.

    Both factors go on the int-series encoding, exponents on one lattice;
    the kernel convolves mod p over F_p and over Z (p = 0) for Q((t)) and
    Q_p, over the product of the two common denominators.  With both
    factors exact the product stays flat (``_flat_poly``).  With a
    truncated coefficient it is decoded at once, output k truncated once,
    at the least ``_product_prec`` of the pairs i + j = k: every partial
    product and sum of the element-wise loop is known at or above that
    bound, so the two agree term for term.  ``perfbench/tracing.py``
    patches it by this name.
    """
    fld = f.field
    if _is_exact(f) and _is_exact(g):
        return _flat_poly(f.center, *_kernel_product(fld, (f, g)))
    precs = [INF] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            precs[i + j] = min(precs[i + j], _product_prec(a, b))
    return Polynomial(f.center,
                      _decode_flat(fld, *_kernel_product(fld, (f, g)), precs))


def _is_exact(f: Polynomial) -> bool:
    """Whether every coefficient is exact; a flat polynomial always is."""
    return f._flat is not None or all(c.is_exact for c in f.coeffs)


def _flat_poly(center, counts, exps, cofs, lat, cden) -> Polynomial:
    """The polynomial around ``center`` whose ``_flat`` is the exact kernel
    output (counts, exps, cofs, lat, cden), its trailing zero counts
    trimmed (a zero operand makes the kernel return one per output
    coefficient); its ``coeffs`` are decoded on first read."""
    while counts and not counts[-1]:
        counts.pop()
    f = object.__new__(Polynomial)
    setfield(f, "center", center)
    setfield(f, "_flat", (counts, exps, cofs, lat, cden))
    return f


def _kernel_product(fld, factors) -> tuple:
    """The flat form (counts, exps, cofs, lat, cden) of the product of the
    polynomials ``factors``, as one kernel chain.

    Every factor goes on one lattice, the lcm of theirs; a flat factor
    keeps its encoding, its exponents scaled when that lattice is larger,
    and any other is encoded once (``_series``).  Each kernel output is the
    next left operand as it stands and the common denominators multiply.
    The kernel is called through the module attribute, which
    ``perfbench/tracing.py`` patches.
    """
    lat = math.lcm(*(_lattice_of(fld, f) for f in factors))
    *acc, cden = _encoded(fld, factors[0], lat)
    for f in factors[1:]:
        *k, c = _encoded(fld, f, lat)
        acc = kernel.poly_mul_modp(*acc, *k, fld.char)
        cden *= c
    return (*acc, lat, cden)


def _encoded(fld, f: Polynomial, lat):
    """(counts, exps, cofs, cden) of f on the lattice (1/lat)Z: a flat
    polynomial's own lists, exponents scaled by lat over its lattice, or
    else ``_series`` of its coefficients."""
    if f._flat is None:
        return _series(fld, f.coeffs, lat)
    counts, exps, cofs, own, cden = f._flat
    s = lat // own
    return counts, exps if s == 1 else [e * s for e in exps], cofs, cden


def _shift(fld, f: Polynomial, d) -> tuple:
    """Horner's Taylor shift of the exact polynomial f by the exact d, on
    ints, f encoded as ``_encoded`` gives it.

    With X = T - center - d, d = D/E and coefficients B_i/L,
    sum B_i/L (X + D/E)**i has X**j-coefficient
    sum_i C(i, j) (B_i E**(n-i)) D**(i-j) / (L E**(n-j)).
    """
    lat = math.lcm(_lattice(fld, [d]), _lattice_of(fld, f))
    _, exps, cofs, big_e = _series(fld, [d], lat)
    step = list(zip(exps, cofs))
    counts, exps, cofs, big_l = _encoded(fld, f, lat)
    terms = zip(exps, cofs)
    n = len(counts) - 1
    b = []
    for i, c in enumerate(counts):
        w = big_e ** (n - i)
        t = islice(terms, c)
        b.append(dict(t) if w == 1 else {e: x * w for e, x in t})
    p = fld.char
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
    return tuple(_decode(fld, b[j], lat, big_l * big_e ** (n - j))
                 for j in range(n + 1))


class RationalFunction(Record):
    """num/den over a common center, with optional certified root lists."""

    _fields = ("num", "den", "reduced", "num_roots", "den_roots")

    def __init__(self, num: Polynomial, den: Polynomial, reduced: bool = False,
                 num_roots: tuple = (), den_roots: tuple = ()):
        setfield(self, "num", num)
        setfield(self, "den", den)
        setfield(self, "reduced", reduced)
        setfield(self, "num_roots", num_roots)
        setfield(self, "den_roots", den_roots)
        if den.is_zero():
            raise ZeroDenominator("zero denominator")
        num._check_compatible(den)

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
