"""The convolution kernel behind every product of series.

Two callers use it, mod p over F_p((t)) and over Z (p = 0) for Q((t)) and
Q_p.  ``poly._kernel_product`` calls it once per factor after the first of
a chain, each output the next left operand, exact or truncated (once per
``f * g``, once per linear factor of ``from_roots`` but the first when no
lead is given), through the module attribute ``poly_mul_modp``, so that a
tracer can patch it in one place.  ``PuiseuxElem.__mul__`` in ``field``
binds it at import time and passes its two term lists as one-coefficient
operands, so element products are not traced as kernel calls.  Taylor
shifts (``recenter``) do not call it.  There is one implementation, the
pure-Python one in ``_purekernel``: one keyed pass per product, each term
packed with its coefficient index into one int key, so that one dict and
one sort serve the whole product.  ``BACKEND`` (re-exported as
``berkline.KERNEL_BACKEND``) is what benchmark records report.
"""

from ._purekernel import poly_mul_modp

BACKEND = "pure"
