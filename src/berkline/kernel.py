"""The convolution kernel behind every polynomial product.

Two callers in ``poly`` use it, mod p over F_p((t)) and over Z (p = 0) for
Q((t)) and Q_p: ``_try_kernel_mul``, once per binary product, exact or
truncated, and ``Polynomial.from_roots``, once per linear factor of an exact
chain, feeding each output back in as the next left operand.  Taylor shifts
(``Polynomial.recenter``) do not call it.  There is one
implementation, the pure-Python one in ``_purekernel``: one keyed pass per
product, each term packed with its coefficient index into one int key, so
that one dict and one sort serve the whole product.  Both names stay:
``poly`` calls through the module attribute ``poly_mul_modp`` so that a
tracer can patch it in one place, and ``BACKEND`` (re-exported as
``berkline.KERNEL_BACKEND``) is what benchmark records report.
"""

from ._purekernel import poly_mul_modp

BACKEND = "pure"
