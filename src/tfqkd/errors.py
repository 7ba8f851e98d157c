"""Exception types shared across the simulator."""

__all__ = ["TfqkdError", "DomainError", "DivergentIntegralError", "ConfigError"]


class TfqkdError(Exception):
    """Base class for all simulator errors."""


class DomainError(TfqkdError, ValueError):
    """Raised when an input lies outside a function's physical domain."""


class DivergentIntegralError(TfqkdError, ArithmeticError):
    """Raised when a spectral integral does not converge."""


class ConfigError(TfqkdError, ValueError):
    """Raised when a configuration file fails schema validation."""
