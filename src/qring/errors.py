"""Exception types shared across the package."""


class QringError(Exception):
    """Base class for all package-specific errors."""


class DegenerateStateError(QringError, ValueError):
    """Raised when a state would have zero norm (all coefficients zero)."""


class UnsupportedStateError(QringError, ValueError):
    """Raised when an operation requires a strictly periodic state
    (boundary phase zero) but received a quasi-periodic one."""


class ResolutionError(QringError, ValueError):
    """Raised when a construction would need more Fourier modes than the
    configured mode cap allows."""
