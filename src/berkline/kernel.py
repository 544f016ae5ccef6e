"""The convolution kernel behind exact F_p polynomial products.

There is one implementation, the pure-Python one in ``_purekernel``.  Both
names stay: ``poly`` calls through the module attribute ``poly_mul_modp`` so
that a tracer can patch it in one place, and ``BACKEND`` (re-exported as
``berkline.KERNEL_BACKEND``) is what benchmark records report.
"""

from ._purekernel import poly_mul_modp

BACKEND = "pure"
