"""JSON round-trips for every public value shape."""

import random
from fractions import Fraction

import pytest

from berkline import (AnnulusSpec, DiscPoint, Domain, ExcludedDisc, INFINITY,
                      LogValue, PadicField, Polynomial, PuiseuxField,
                      RationalFunction, build_skeleton, newton_polygon,
                      unit_class)
from berkline.field import PadicElem, PuiseuxElem
from berkline import serialize as ser
from conftest import rand_padic, rand_poly, rand_puiseux

lv = lambda q, e=0: LogValue(Fraction(q), Fraction(e))


class TestScalars:
    def test_fraction_strings(self):
        assert ser.frac_to_json(Fraction(3, 2)) == "3/2"
        assert ser.frac_to_json(Fraction(3)) == "3"
        assert ser.frac_from_json("3/2") == Fraction(3, 2)
        assert ser.frac_from_json(-4) == Fraction(-4)

    def test_logvalue(self):
        for s in (lv(0), lv(3, -2), INFINITY):
            assert ser.logvalue_from_json(ser.logvalue_to_json(s)) == s
        assert ser.logvalue_to_json(INFINITY) == "inf"
        # a bare rational, as a JSON number or string, is the radius (q, 0)
        assert ser.logvalue_from_json(3) == lv(3)
        assert ser.logvalue_from_json("-1/2") == lv(Fraction(-1, 2))

    def test_field_roundtrip(self, F2, Q3):
        for fld in (F2, Q3):
            assert ser.field_from_json(ser.field_to_json(fld)) == fld


class TestElements:
    @pytest.mark.parametrize("backend", ["F2", "FQ", "Q2"])
    def test_roundtrip_random(self, backend, request):
        fld = request.getfixturevalue(backend)
        rng = random.Random(1)
        mk = rand_padic if backend == "Q2" else rand_puiseux
        for _ in range(50):
            x = mk(rng, fld)
            doc = ser.elem_to_json(x)
            back = ser.elem_from_json(doc, fld)
            assert back == x

    def test_decoded_on_the_given_field(self, F2, FQ, Q3):
        # every element of a payload is built on the field passed with it
        for fld, x in ((F2, F2.t(Fraction(1, 2))), (FQ, FQ.t(2, 3)),
                       (Q3, Q3.elem(Fraction(5, 9)))):
            back = ser.elem_from_json(ser.elem_to_json(x), fld)
            assert back == x and back.field is fld
        doc = ser.elem_to_json(F2.one())
        assert ser.elem_from_json(doc).field == F2
        for fld in (FQ, Q3):
            with pytest.raises(ValueError, match="element backend disagrees"
                               " with the field config"):
                ser.elem_from_json(doc, fld)
        with pytest.raises(ValueError, match="unknown backend 'adelic'"):
            ser.elem_from_json({"backend": "adelic"}, FQ)

    def test_finite_precision(self, FQ):
        x = FQ.elem([(Fraction(1, 2), Fraction(3, 4))], prec=Fraction(7, 3))
        doc = ser.elem_to_json(x)
        assert doc["prec"] == [7, 3]
        assert ser.elem_from_json(doc) == x

    def test_exponents_in_lowest_terms(self, FQ, F3):
        # the element stores both on the lattice 1/6; JSON does not
        for fld in (FQ, F3):
            x = fld.t(Fraction(1, 2)) + fld.t(Fraction(1, 3))
            assert [t[:2] for t in ser.elem_to_json(x)["terms"]] == [[1, 3], [1, 2]]
            assert ser.elem_from_json(ser.elem_to_json(x)) == x

    def test_literals(self, FQ, Q2):
        assert ser.parse_elem_literal(FQ, "t^2").valuation() == 2
        assert ser.parse_elem_literal(FQ, "3/2").canonical_str() == "3/2"
        assert ser.parse_elem_literal(FQ, "1+t").canonical_str() == "1+t"
        assert ser.parse_elem_literal(Q2, "t").value == 2
        assert ser.parse_elem_literal(FQ, 0).is_zero()
        # every monomial is fld.t(q, c), q = 0 for a constant: the same
        # elements and errors as a route per kind of monomial and backend
        seen = set()
        for fld in LITERAL_FIELDS:
            for text in LITERALS:
                got = literal_outcome(ser.parse_elem_literal, fld, text)
                assert got == literal_outcome(three_route_literal, fld, text)
                seen.add(got[0])
        assert {PadicElem, PuiseuxElem, ValueError} <= seen


LITERAL_FIELDS = [PuiseuxField(0), PuiseuxField(2), PuiseuxField(3),
                  PuiseuxField(5), PadicField(2), PadicField(3), PadicField(5)]
LITERALS = ["0", "7", "-3", "3/2", "-4/6", "t", "-t", "t^2", "t^-3", "3*t",
            "5*t^1/2", "-2/3*t^-4/3", "1+t", " 2 + t^2 + 3*t ", "t+t", "1+-1",
            "10*t^0", 0, 5, -12, "", "  ", "x", "1/0", "t^1/0", "t^1/2", "1/2",
            "2/5*t", "1++t", "t*2"]


def three_route_literal(fld, text):
    """``parse_elem_literal`` with its own route per monomial: a constant
    through ``fld.constant``, ``fld.t(q, c)`` over Puiseux fields and
    ``fld.t(q) * fld.constant(c)`` over Q_p."""
    if isinstance(text, int):
        return fld.constant(text)
    s = str(text).strip()
    if not s:
        raise ValueError("empty element literal")
    total = fld.zero()
    for part in s.split("+"):
        m = ser._MONOMIAL.match(part)
        if not m or not part.strip():
            raise ValueError(f"cannot parse element literal {part!r}")
        coef = ser._fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        exp = ser._fraction(m.group("exp")) if m.group("exp") else Fraction(1)
        if "t" not in part:
            total = total + fld.constant(coef)
        elif fld.backend == "puiseux":
            total = total + fld.t(exp, coef)
        else:
            total = total + fld.t(exp) * fld.constant(coef)
    return total


def literal_outcome(parse, fld, text):
    try:
        x = parse(fld, text)
    except Exception as e:
        return type(e), str(e)
    return type(x), x


class TestComposite:
    def test_polynomial(self, FQ):
        rng = random.Random(2)
        for _ in range(20):
            f = rand_poly(rng, FQ, max_deg=5)
            assert ser.poly_from_json(ser.poly_to_json(f), FQ).coeffs == f.coeffs

    def test_ratfunc_with_roots(self, FQ):
        t = FQ.t()
        f = RationalFunction(Polynomial.from_roots(FQ, [t]),
                             Polynomial.from_coeffs(FQ, [1]),
                             reduced=True, num_roots=(t,))
        back = ser.ratfunc_from_json(ser.ratfunc_to_json(f), FQ)
        assert back.num.coeffs == f.num.coeffs
        assert back.num_roots == f.num_roots
        assert back.reduced
        g = f.inverse()
        doc = ser.ratfunc_to_json(g)
        assert "num_roots" not in doc and len(doc["den_roots"]) == 1
        back = ser.ratfunc_from_json(doc, FQ)
        assert back.den_roots == g.den_roots and back.num_roots == ()

    def test_points(self, FQ):
        from berkline import ChainPoint

        pts = [DiscPoint(FQ.zero(), INFINITY),
               DiscPoint(FQ.t(), lv(2, 1)),
               ChainPoint((DiscPoint(FQ.zero(), lv(1)),
                           DiscPoint(FQ.t(), lv(2))))]
        for x in pts:
            back = ser.point_from_json(ser.point_to_json(x), FQ)
            if isinstance(x, DiscPoint):
                assert back == x
            else:
                assert back.discs == x.discs

    def test_skeleton_and_polygon(self, FQ):
        t = FQ.t()
        sk = build_skeleton([FQ.zero(), t, FQ.one()])
        doc = ser.skeleton_to_json(sk)
        assert doc["root"] == sk.root
        assert len(doc["vertices"]) == len(sk.vertices)
        f = Polynomial.from_roots(FQ, [t, FQ.one()])
        npdoc = ser.newton_polygon_to_json(newton_polygon(f))
        assert npdoc["segments"] == [{"slope": "-1", "width": 1},
                                     {"slope": "0", "width": 1}]

    def test_domain(self, FQ):
        dom = Domain(FQ.zero(), lv(-1),
                     (ExcludedDisc(FQ.one(), lv(2), closed=False),))
        back = ser.domain_from_json(ser.domain_to_json(dom), FQ)
        assert back.s == dom.s
        assert back.excluded[0].closed is False

    def test_unit_class(self, FQ, Q3):
        u = unit_class(FQ.elem([(2, Fraction(3, 5))]))
        doc = ser.unit_class_to_json(u)
        assert doc == {"q": "2", "res": "3/5"}
        v = unit_class(Q3.elem(6))
        assert ser.unit_class_to_json(v) == {"q": "1", "res": 2}

    def test_annulus(self):
        ann = AnnulusSpec(lv(1), lv(-1))
        assert ser.annulus_from_json(ser.annulus_to_json(ann)) == ann

    def test_flexible_ratfunc(self, FQ):
        g = ser.parse_ratfunc_flexible(FQ, "t")
        assert g.num.degree == 1 and g.den.degree == 0
        c = ser.parse_ratfunc_flexible(FQ, "5")
        assert c.num.degree == 0
        assert g.den == c.den == Polynomial.from_coeffs(FQ, [1])
        # a dict is the full JSON form
        doc = ser.ratfunc_to_json(g)
        back = ser.parse_ratfunc_flexible(FQ, doc)
        assert (back.num, back.den, back.num_roots) == (g.num, g.den, g.num_roots)
