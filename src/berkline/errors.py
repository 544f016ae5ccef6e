"""Exception types shared across the library.

Every error carries an optional machine-readable ``witness`` payload; the CLI
maps the class name to the ``error`` field of its JSON error object.
"""


class BerkError(Exception):
    """Base class for all library errors."""

    def __init__(self, message="", witness=None):
        super().__init__(message or self.__class__.__name__)
        self.witness = witness

    @property
    def code(self):
        return self.__class__.__name__


class BackendMismatch(BerkError):
    pass


class NotPrime(BerkError):
    """A field characteristic that is not a prime, or too large to prove one."""


class DivisionByZero(BerkError):
    pass


class PrecisionExhausted(BerkError):
    pass


class ZeroDenominator(BerkError):
    pass


class ZeroPolynomial(BerkError):
    pass


class ZeroConstantTerm(BerkError):
    pass


class ZeroElement(BerkError):
    pass


class CoefficientOverflow(BerkError):
    """Intermediate coefficient count exceeded the configured bound."""


class MalformedChain(BerkError):
    pass


class ChainNotStabilized(BerkError):
    pass


class PointOutsideDisc(BerkError):
    pass


class IndexNotSubset(BerkError):
    pass


class DuplicateCenters(BerkError):
    pass


class ShapeMismatch(BerkError):
    pass


class RootlessSkeleton(BerkError):
    pass


class NotOpenSubtree(BerkError):
    pass


class VanishesOnDomain(BerkError):
    pass


class NotCertified(BerkError):
    pass


class BoundarySolution(BerkError):
    pass


class BadDomain(BerkError):
    """Domain description violates its invariants."""


class ResourceLimit(BerkError):
    """A computation would pass one of the library's documented size caps."""

    @property
    def code(self):
        return "resource_limit"
