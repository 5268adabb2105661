"""Exception types shared across the package."""


class ShearwaveError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ShearwaveError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class UnsupportedConfig(ShearwaveError, ValueError):
    """A parameter set is well-formed but outside the supported regime."""


class NumericsError(ShearwaveError, RuntimeError):
    """A numerical routine failed to converge or to bracket a root.

    ``diagnostics`` carries solver state useful for debugging (brackets,
    residuals, iteration counts).
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})
