"""The polygon of ``cancel._solution_polygon`` as it was built from sparse
terms: the test oracle.

``solution_polygon`` is kept verbatim from before the polygon was read off
the flat forms of num and den, apart from its point reader, which is
``reference_gauss.classify``, the element reader the library then had.  It
sums the coefficients of num and T**N den that share an index, on elements,
and classifies the terms it has.  ``tests/test_cancel.py`` checks the
library against it.
"""

from __future__ import annotations

from berkline.errors import ZeroPolynomial
from berkline.gauss import NewtonPolygon, _polygon
from berkline.poly import Polynomial
from reference_gauss import classify


def solution_polygon(num: Polynomial, den: Polynomial, N: int) -> NewtonPolygon:
    """Newton polygon of P = T**N den - num, built from its nonzero terms.

    Adding an exact zero changes no coefficient, precision included, so this
    is the polygon of the dense P, at a cost independent of N.
    """
    terms = {i: -c for i, c in enumerate(num.coeffs)}
    for j, c in enumerate(den.coeffs):
        terms[N + j] = c + terms[N + j] if N + j in terms else c
    known, unknown = classify(sorted(terms.items()))
    if not known and not unknown:
        raise ZeroPolynomial("the zero polynomial has no Newton polygon")
    return _polygon(known, unknown, max(pt[0] for pt in known + unknown))
