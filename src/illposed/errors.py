"""Exception types shared across the package."""


class IllposedError(Exception):
    """Base class for all package errors."""


class DomainError(IllposedError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DimensionMismatchError(IllposedError, ValueError):
    """Operator and grid function have incompatible dimensions or norms."""


class ConfigError(IllposedError, ValueError):
    """An experiment configuration is invalid; the message carries the field path."""


class QuadratureError(IllposedError, RuntimeError):
    """A quadrature failed to reach its requested tolerance."""
