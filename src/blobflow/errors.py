"""Shared exception types."""


class ConfigError(ValueError):
    """Invalid experiment configuration; message lists every violation."""


class CoverageError(ValueError):
    """A grid does not cover the data padded by the kernel support."""


class DomainEscapeError(RuntimeError):
    """Particles left the configured quadrature box; ``partial`` is the trajectory recorded before."""

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


class EnergyDomainError(ValueError):
    """Energy derivative requested outside its domain (entropy at zero)."""


class UnsupportedDensityError(ValueError):
    """Initial sampler cannot handle the requested density."""


class SizeLimitError(ValueError):
    """Problem size exceeds a solver's hard cap."""


class ConvergenceError(RuntimeError):
    """Iterative solver (inner optimiser or Newton) failed to converge."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
