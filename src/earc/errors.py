"""Exception hierarchy shared across the package."""


class EarcError(Exception):
    """Base class for every package-specific error."""


class ShapeError(EarcError, ValueError):
    """Operands have incompatible or invalid dimensions."""


class DimensionOverflowError(EarcError, ValueError):
    """A result would exceed the configured entry-count cap."""


class NumericalError(EarcError, RuntimeError):
    """A numerical routine (typically an SVD) failed to converge."""


class InsufficientDataError(EarcError, ValueError):
    """The time series is too short for the requested operation."""


class ValidationError(EarcError, ValueError):
    """Input violates a structural precondition."""


class NonFiniteGroupError(EarcError, ValueError):
    """Generator closure exceeded the maximum allowed group order."""


class DivergenceError(EarcError, RuntimeError):
    """A simulated or forecast trajectory left the admissible range."""


class ModelFormatError(EarcError, ValueError):
    """A model file could not be parsed."""


class CorruptModelError(EarcError, ValueError):
    """A model file parsed but violates a model invariant."""


class UnknownNameError(EarcError, LookupError):
    """No built-in object is registered under the requested name."""
