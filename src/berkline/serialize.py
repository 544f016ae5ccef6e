"""JSON encodings for every public value, plus small literal parsers.

Rationals travel as exact strings "a/b" (denominator omitted when 1);
log-values as {"q": ..., "e": ...} or the string "inf"; field elements carry
their backend tag so a document is self-describing given the field config.

Points, domains and annuli are built by modules a CLI command may not need;
their decoders import them when they run.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .field import INF, PadicElem, PadicField, PuiseuxElem, PuiseuxField
from .logvalue import INFINITY, LogValue
from .poly import Polynomial, RationalFunction


def frac_to_json(x) -> str:
    return str(Fraction(x))


def _fraction(*args) -> Fraction:
    """Fraction(*args), with a zero denominator reported as malformed input."""
    try:
        return Fraction(*args)
    except ZeroDivisionError:
        raise ValueError(
            f"zero denominator in {'/'.join(map(str, args))}") from None


def frac_from_json(s) -> Fraction:
    if isinstance(s, bool):
        raise ValueError("not a rational")
    if isinstance(s, int):
        return Fraction(s)
    return _fraction(str(s))


def logvalue_to_json(s: LogValue):
    if s.is_infinite:
        return "inf"
    return {"q": frac_to_json(s.q), "e": frac_to_json(s.e)}


def logvalue_from_json(obj) -> LogValue:
    if obj == "inf":
        return INFINITY
    if isinstance(obj, (int, str)):
        return LogValue(frac_from_json(obj))
    return LogValue(frac_from_json(obj["q"]),
                    frac_from_json(obj.get("e", 0)))


def field_to_json(fld):
    if isinstance(fld, PuiseuxField):
        return {"backend": "puiseux", "char": fld.char}
    if isinstance(fld, PadicField):
        return {"backend": "padic", "p": fld.p}
    raise TypeError(f"not a field: {fld!r}")


def field_from_json(obj):
    if obj["backend"] == "puiseux":
        return PuiseuxField(char=int(obj.get("char", 0)))
    if obj["backend"] == "padic":
        return PadicField(p=int(obj["p"]))
    raise ValueError(f"unknown backend {obj['backend']!r}")


def elem_to_json(x):
    if isinstance(x, PuiseuxElem):
        # each exponent in lowest terms, as a Fraction would print it
        den, char = x.den, x.field.char
        terms = []
        for e, c in zip(x.exps, x.coefs):
            g = math.gcd(e, den)
            terms.append([e // g, den // g, c if char else frac_to_json(c)])
        prec = "inf" if x.prec == INF else [x.prec.numerator, x.prec.denominator]
        return {"backend": "puiseux", "char": x.field.char,
                "terms": terms, "prec": prec}
    if isinstance(x, PadicElem):
        return {"backend": "padic", "p": x.field.p,
                "value": x.canonical_str()}
    raise TypeError(f"not a field element: {x!r}")


def elem_from_json(obj, fld=None):
    if not isinstance(obj, dict):
        if fld is None:
            raise ValueError("a bare scalar needs a field context")
        return parse_elem_literal(fld, obj)
    want = field_from_json(obj)
    if fld is not None:
        if fld != want:
            raise ValueError("element backend disagrees with the field config")
        want = fld
    if want.backend == "padic":
        return want.elem(frac_from_json(obj["value"]))
    terms = [
        (_fraction(int(en), int(ed)),
         int(c) if want.char else frac_from_json(c))
        for en, ed, c in obj.get("terms", [])
    ]
    prec = obj.get("prec", "inf")
    prec = INF if prec == "inf" else _fraction(int(prec[0]), int(prec[1]))
    return want.elem(terms, prec)


_MONOMIAL = re.compile(
    r"^\s*(?:(?P<coef>-?\d+(?:/\d+)?)\s*\*?\s*)?"
    r"(?:t(?:\^(?P<exp>-?\d+(?:/\d+)?))?)?\s*$"
)


def parse_elem_literal(fld, text):
    """Small literal language: "0", "3/2", "t", "t^2", "5*t^1/2", sums with +."""
    if isinstance(text, int):
        return fld.constant(text)
    s = str(text).strip()
    if not s:
        raise ValueError("empty element literal")
    total = fld.zero()
    for part in s.split("+"):
        m = _MONOMIAL.match(part)
        if not m or not part.strip():
            raise ValueError(f"cannot parse element literal {part!r}")
        coef = _fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        exp = _fraction(m.group("exp")) if m.group("exp") else Fraction(1)
        total = total + fld.t(exp if "t" in part else 0, coef)
    return total


def poly_to_json(f: Polynomial):
    return {"center": elem_to_json(f.center),
            "coeffs": [elem_to_json(c) for c in f.coeffs]}


def poly_from_json(obj, fld=None):
    center = elem_from_json(obj["center"], fld)
    coeffs = [elem_from_json(c, fld) for c in obj["coeffs"]]
    return Polynomial.from_coeffs(center.field, coeffs, center)


def ratfunc_to_json(f: RationalFunction):
    out = {"num": poly_to_json(f.num), "den": poly_to_json(f.den),
           "reduced": f.reduced}
    if f.num_roots:
        out["num_roots"] = [elem_to_json(r) for r in f.num_roots]
    if f.den_roots:
        out["den_roots"] = [elem_to_json(r) for r in f.den_roots]
    return out


def ratfunc_from_json(obj, fld=None):
    num = poly_from_json(obj["num"], fld)
    den = poly_from_json(obj["den"], fld)
    return RationalFunction(
        num, den, bool(obj.get("reduced", False)),
        tuple(elem_from_json(r, fld) for r in obj.get("num_roots", [])),
        tuple(elem_from_json(r, fld) for r in obj.get("den_roots", [])),
    )


def point_to_json(x):
    from .points import ChainPoint, DiscPoint

    if isinstance(x, DiscPoint):
        return {"kind": "disc", "center": elem_to_json(x.center),
                "s": logvalue_to_json(x.s)}
    if isinstance(x, ChainPoint):
        return {"kind": "chain",
                "discs": [point_to_json(d) for d in x.discs]}
    raise TypeError(f"not a point: {x!r}")


def point_from_json(obj, fld=None):
    from .points import ChainPoint, DiscPoint

    if obj["kind"] == "disc":
        return DiscPoint(elem_from_json(obj["center"], fld),
                         logvalue_from_json(obj["s"]))
    if obj["kind"] == "chain":
        return ChainPoint(tuple(point_from_json(d, fld) for d in obj["discs"]))
    raise ValueError(f"unknown point kind {obj['kind']!r}")


def skeleton_to_json(sk: Skeleton):
    return {
        "vertices": [{"center": elem_to_json(v.center),
                      "s": logvalue_to_json(v.s)} for v in sk.vertices],
        "edges": [{"child": c, "parent": p,
                   "length": logvalue_to_json(l)}
                  for (c, p), l in zip(sk.edges, sk.edge_lengths)],
        "root": sk.root,
        "leaves": list(sk.leaves),
    }


def newton_polygon_to_json(np_: NewtonPolygon):
    return {
        "vertices": [[i, frac_to_json(v)] for i, v in np_.vertices],
        "segments": [{"slope": frac_to_json(s), "width": w}
                     for s, w in np_.segments],
        "mult0": np_.mult0,
        "degree": np_.degree,
    }


def unit_class_to_json(u: UnitClass):
    res = u.res if u.modulus else frac_to_json(u.res)
    return {"q": frac_to_json(u.q), "res": res}


def domain_to_json(d: Domain):
    return {
        "bound": {"center": elem_to_json(d.center),
                  "s": logvalue_to_json(d.s)},
        "excluded": [{"center": elem_to_json(e.center),
                      "s": logvalue_to_json(e.s),
                      "closed": e.closed} for e in d.excluded],
    }


def domain_from_json(obj, fld=None):
    from .units import Domain, ExcludedDisc

    return Domain(
        elem_from_json(obj["bound"]["center"], fld),
        logvalue_from_json(obj["bound"]["s"]),
        tuple(
            ExcludedDisc(elem_from_json(e["center"], fld),
                         logvalue_from_json(e["s"]),
                         bool(e.get("closed", True)))
            for e in obj.get("excluded", [])
        ),
    )


def divisor_to_json(d: Divisor):
    # Y1 repeats one LogValue object N / p**a times: encode each object once,
    # keyed by identity, which is cheaper to hash than the value
    encoded = {id(s): s for s, _ in d.entries}
    encoded = {k: logvalue_to_json(s) for k, s in encoded.items()}
    return [{"s": encoded[id(s)], "mult": m} for s, m in d.entries]


def cohomology_to_json(res):
    return {"H0": list(res.H0), "H1": list(res.H1)}


def annulus_from_json(obj) -> AnnulusSpec:
    from .cancel import AnnulusSpec

    return AnnulusSpec(logvalue_from_json(obj["s_lo"]),
                       logvalue_from_json(obj["s_hi"]))


def annulus_to_json(ann: AnnulusSpec):
    return {"s_lo": logvalue_to_json(ann.s_lo),
            "s_hi": logvalue_to_json(ann.s_hi)}


def parse_ratfunc_flexible(fld, spec):
    """Accept "t"/"T" (the coordinate), an element literal, or full JSON."""
    if isinstance(spec, dict):
        return ratfunc_from_json(spec, fld)
    one = Polynomial.from_coeffs(fld, [fld.one()])
    if isinstance(spec, str) and spec.strip() in ("t", "T"):
        return RationalFunction(Polynomial.variable(fld), one,
                                reduced=True, num_roots=(fld.zero(),))
    elem = parse_elem_literal(fld, spec)
    return RationalFunction(Polynomial.from_coeffs(fld, [elem]), one,
                            reduced=True)
