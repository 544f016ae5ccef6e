"""Polynomials and rational functions over a valued-field backend.

A polynomial stores its coefficients in the variable (T - center); recentering
is an exact Taylor shift.  It has one form with two views, each computed from
the other on first read and then kept (``field.cached``): ``coeffs``, the
elements, and ``_flat``, their int-series encoding (``_series``).  The flat
form is (counts, exps, cofs, lat, cden, precs): coefficient i has counts[i]
terms, the next ones in exps/cofs, with exponents on the lattice (1/lat)Z and
numerators over the common denominator cden, a p-adic number as the one-term
series at exponent 0; precs is None when every coefficient is exact, else
each coefficient's precision, so a truncated zero is a zero count with a
finite precision.  A polynomial built from elements encodes them once, when
``_flat`` is first read; an exact product or shift is built flat and decodes
its elements once, when ``coeffs`` is first read.

``degree``, ``is_zero`` and ``_is_exact`` read the flat form, and so does
``gauss._coeff_values``, which gives each coefficient's point, its valuation
and leading coefficient as ints, or its precision when it is a truncated
zero: Gauss valuations, hulls, root counts, witnesses and leading forms all
read those points, so a chain of products and shifts whose elements nobody
reads decodes none of them.  The routes:

* ``f * g``, and ``f * c`` (``scale``, c a constant polynomial), call
  ``_try_kernel_mul``, a kernel chain of two factors
  (``_kernel_product``): the kernel makes one keyed pass per product, all
  term pairs in one dict sorted once, on the operands' flat forms.  With
  both factors exact the product is flat; when an input is truncated, each
  output coefficient is decoded at once from its sorted terms
  (``_decode_flat``) and truncated once;
* ``from_roots`` with an exact center, lead and roots is one kernel chain
  of all its factors: each is encoded once and each kernel output feeds the
  next product as it stands.  A truncated input multiplies the factors in
  one by one through ``f * g``;
* ``recenter`` of exact coefficients by an exact shift is a Horner shift on
  the flat form's int series, whose output is flat (``_shift``); at its own
  center a polynomial is returned as it is, and at an equal center it keeps
  both views it holds;
* evaluation, ``divide_linear`` and a truncated shift run one synthetic
  division on elements (``_synthetic``): a truncated shift is n of them in
  a row.  These, ``+`` and negation read elements and build elements, and
  none of them encodes its output.

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
                    _check_same_field, _lattice_terms,
                    _product_prec, cached)


class Polynomial(Record):
    """Coefficients c_0..c_n in (T - center), leading one nonzero.

    Built from its elements ``coeffs``, or flat (``_flat_poly``) from an
    exact product or shift; each view is computed from the other on its
    first read and kept, so both describe one form."""

    _fields = ("center", "coeffs")

    def __init__(self, center, coeffs: tuple):
        setfield(self, "center", center)
        setfield(self, "coeffs", coeffs)

    @cached
    def coeffs(self) -> tuple:
        return _decode_flat(self.field, *self._flat)

    @cached
    def _flat(self) -> tuple:
        return _series(self.field, self.coeffs)

    @property
    def field(self):
        return self.center.field

    @property
    def degree(self) -> int:
        return len(self._flat[0]) - 1

    def is_zero(self) -> bool:
        return not self._flat[0]

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
        (``_kernel_product``), which starts at the first linear factor when
        no lead is given: each is encoded once, and the result stays flat
        until read.  Otherwise they are multiplied in one by one, each
        product through ``_try_kernel_mul``.
        """
        center = fld.zero() if center is None else center
        one = fld.one()
        out = cls.from_coeffs(fld, [one if lead is None else lead], center)
        shifts = [r - center for r in roots]
        # an exact shift r - center means an exact root and center
        if out.coeffs and shifts and out.coeffs[0].is_exact \
                and all(d.is_exact for d in shifts):
            factors = [cls(center, (-d, one)) for d in shifts]
            if lead is not None:
                factors.insert(0, out)
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

    def __rsub__(self, other):
        return (-self).__add__(other)

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
        coefficient exact, it runs on the flat form's int series (``_shift``)
        and the result is flat: its elements are decoded only when
        ``coeffs`` is read.
        With a truncated coefficient or d it is n synthetic divisions by
        (T - a) on elements (``_synthetic``), each on the quotient of the
        last.

        At its own center object, exact or truncated, a polynomial is
        returned as it is: T - a is then T - center, the same variable, so
        every coefficient is unchanged.  The difference a - center computed
        on elements would be a truncated zero when a is truncated, and the
        divisions would spread that O(t^p) into each coefficient.  At an
        equal center object the result keeps the views this polynomial
        holds, flat, decoded or both.
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
            return _flat_poly(a, *_shift(self.field, self, d))
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
        if not self.coeffs:
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


def _series(fld, coeffs) -> tuple:
    """The flat form (counts, exps, cofs, lat, cden, precs) of the elements
    ``coeffs``; a truncated coefficient by its known terms, its precision
    kept apart.

    Coefficient i has counts[i] terms, the next ones in exps/cofs, with
    exponents on the lattice (1/lat)Z, lat the lcm of the exponent
    denominators, and numerators over cden, the lcm of the coefficient
    denominators (1 over F_p).  A p-adic number is the one-term series at
    exponent 0, on the lattice Z.  precs is None when every coefficient is
    exact, else the list of their precisions.
    """
    if type(fld) is PadicField:
        cden = math.lcm(*(c.den for c in coeffs))
        cofs = [c.num * (cden // c.den) for c in coeffs if c.num]
        return ([1 if c.num else 0 for c in coeffs], [0] * len(cofs), cofs, 1,
                cden, None)
    lat = math.lcm(*(c.den for c in coeffs))
    cden = 1 if fld.char else math.lcm(*(c.cden for c in coeffs))
    counts, exps, cofs = [], [], []
    for c in coeffs:
        counts.append(len(c.exps))
        s, m = lat // c.den, cden // c.cden
        exps.extend(c.exps if s == 1 else [e * s for e in c.exps])
        cofs.extend(c.nums if m == 1 else [n * m for n in c.nums])
    precs = (None if all(c.prec == INF for c in coeffs)
             else [c.prec for c in coeffs])
    return counts, exps, cofs, lat, cden, precs


def _decode_flat(fld, counts, exps, cofs, lat, cden, precs) -> tuple:
    """The coefficients of the flat form (counts, exps, cofs) over ``cden``
    on the lattice (1/lat)Z, output k truncated at ``precs[k]`` unless
    precs is None, with trailing exact zeros dropped.

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

    Both factors go on their flat forms, exponents on one lattice; the
    kernel convolves mod p over F_p and over Z (p = 0) for Q((t)) and
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
    """Whether every coefficient is exact: the flat form carries no
    precisions."""
    return f._flat[5] is None


def _flat_poly(center, counts, exps, cofs, lat, cden) -> Polynomial:
    """The polynomial around ``center`` whose ``_flat`` is the exact kernel
    or ``_shift`` output (counts, exps, cofs, lat, cden), with no
    precisions, its trailing zero counts trimmed (a zero operand makes the
    kernel return one per output coefficient); its ``coeffs`` are decoded
    on first read."""
    while counts and not counts[-1]:
        counts.pop()
    f = object.__new__(Polynomial)
    setfield(f, "center", center)
    setfield(f, "_flat", (counts, exps, cofs, lat, cden, None))
    return f


def _kernel_product(fld, factors) -> tuple:
    """The flat form (counts, exps, cofs, lat, cden) of the product of the
    polynomials ``factors``, as one kernel chain.

    Every factor's flat form goes on one lattice, the lcm of theirs, its
    exponents scaled when that lattice is larger (``_encoded``).  Each
    kernel output is the next left operand as it stands and the common
    denominators multiply.  The kernel is called through the module
    attribute, which ``perfbench/tracing.py`` patches.
    """
    flats = [f._flat for f in factors]
    lat = math.lcm(*(flat[3] for flat in flats))
    *acc, cden = _encoded(flats[0], lat)
    for flat in flats[1:]:
        *k, c = _encoded(flat, lat)
        acc = kernel.poly_mul_modp(*acc, *k, fld.char)
        cden *= c
    return (*acc, lat, cden)


def _encoded(flat, lat):
    """(counts, exps, cofs, cden) of the flat form ``flat`` on the lattice
    (1/lat)Z: its own lists, exponents scaled by lat over its lattice."""
    counts, exps, cofs, own, cden, _ = flat
    s = lat // own
    return counts, exps if s == 1 else [e * s for e in exps], cofs, cden


def _shift(fld, f: Polynomial, d) -> tuple:
    """Horner's Taylor shift of the exact polynomial f by the exact d, on
    the ints of their flat forms, put on one lattice by ``_encoded``;
    returns the flat form (counts, exps, cofs, lat, cden) that
    ``_flat_poly`` takes.

    With X = T - center - d, d = D/E and coefficients B_i/L,
    sum B_i/L (X + D/E)**i has X**j-coefficient
    sum_i C(i, j) (B_i E**(n-i)) D**(i-j) / (L E**(n-j)).  Output j is
    scaled by E**j onto the one denominator L E**n, and its terms are
    sorted with the zeros dropped, as the kernel gives its output.  Over
    Q_p every series is one term at exponent 0, so the rule runs on the
    numerators themselves.
    """
    d_flat = _series(fld, (d,))
    lat = math.lcm(d_flat[3], f._flat[3])
    _, exps, cofs, big_e = _encoded(d_flat, lat)
    step = list(zip(exps, cofs))
    counts, exps, cofs, big_l = _encoded(f._flat, lat)
    n = len(counts) - 1
    cden = big_l * big_e ** max(n, 0)
    if type(fld) is PadicField:
        ((_, big_d),) = step
        nums = iter(cofs)
        b = [next(nums) * big_e ** (n - i) if c else 0
             for i, c in enumerate(counts)]
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                b[j] += big_d * b[j + 1]
        cofs = [x * big_e ** j for j, x in enumerate(b) if x]
        return [1 if x else 0 for x in b], [0] * len(cofs), cofs, lat, cden
    terms = zip(exps, cofs)
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
    counts, exps, cofs = [], [], []
    w = 1
    for acc in b:
        keys = sorted([e for e, x in acc.items() if x])
        counts.append(len(keys))
        exps += keys
        cofs += [acc[e] for e in keys] if w == 1 else [acc[e] * w for e in keys]
        w *= big_e
    return counts, exps, cofs, lat, cden


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
        elif not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(
            self.num * other.num, self.den * other.den, False,
            self.num_roots + other.num_roots, self.den_roots + other.den_roots,
        )

    __rmul__ = __mul__

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
