"""The convolution kernel behind every product of series.

Three callers use it, mod p over F_p((t)) and over Z (p = 0) for Q((t)) and
Q_p.  In ``poly``, ``_try_kernel_mul`` calls it once per binary product,
exact or truncated, and ``Polynomial.from_roots`` once per linear factor of
an exact chain, feeding each output back in as the next left operand; both
call through the module attribute ``poly_mul_modp``, so that a tracer can
patch it in one place.  ``PuiseuxElem.__mul__`` in ``field`` passes its two
term lists as one-coefficient operands; it binds the function at import
time, so element products are not traced as kernel calls.  Taylor shifts
(``Polynomial.recenter``) do not call it.  There is one implementation, the
pure-Python one in ``_purekernel``: one keyed pass per product, each term
packed with its coefficient index into one int key, so that one dict and
one sort serve the whole product.  ``BACKEND`` (re-exported as
``berkline.KERNEL_BACKEND``) is what benchmark records report.
"""

from ._purekernel import poly_mul_modp

BACKEND = "pure"
