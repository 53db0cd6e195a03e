"""Exception types shared across the package."""


class QringError(Exception):
    """Base class for all package-specific errors."""


class DegenerateStateError(QringError, ValueError):
    """Raised when a state would have zero norm (all coefficients zero)."""


class ResolutionError(QringError, ValueError):
    """Raised when a construction would need more Fourier modes than the
    mode cap ``state.MAX_MODE`` allows."""
