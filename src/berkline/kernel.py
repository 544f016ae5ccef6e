"""The convolution kernel behind every polynomial product.

``poly._try_kernel_mul`` sends it each product, exact or truncated: mod p
over F_p((t)), over Z (p = 0) for Q((t)) and Q_p.  Taylor shifts
(``Polynomial.recenter``) do not call it.  There is one
implementation, the pure-Python one in ``_purekernel``.  Both names stay:
``poly`` calls through the module attribute ``poly_mul_modp`` so that a
tracer can patch it in one place, and ``BACKEND`` (re-exported as
``berkline.KERNEL_BACKEND``) is what benchmark records report.
"""

from ._purekernel import poly_mul_modp

BACKEND = "pure"
