"""Expectation values and standard deviations for states on the circle.

Every moment here is an exact finite sum.  Angular momentum moments read
the diagonal sums over the effective exponents, computed once per state
and cached on it (``CircleState.lz_moments``), so the many bounds that
share one sigma_Lz do not repeat them.  Trigonometric moments read
the density harmonics rho_k, computed once per state and cached on it
(``CircleState.harmonics``): <exp(i k phi)> = conj(rho_k), so
(<X_n>, <Y_n>) = (Re rho_n, -Im rho_n) and R_n = |rho_n|, all zero past
the mode span.

The window-dependent angle moments integrate phi rho and phi^2 rho over
[beta, beta + 2pi].  Integrating each harmonic by parts gives, with
c = beta + pi and rho_0 = 1,

    <phi>_beta   = c + u1,   u1 = 2 Re sum_{k>=1} rho_k e^{ik beta} / (ik)
    <phi^2>_beta = c^2 + 2 c u1 + u2,
                   u2 = pi^2/3 + 4 Re sum_{k>=1} rho_k e^{ik beta} / k^2

which is the expansion beta^2 + 2pi beta + 4pi^2/3 + (1/pi) Re sum rho_k
e^{ik beta} [(4pi beta + 4pi^2)/(ik) + 4pi/k^2] regrouped around the window
centre c, so that sigma_phi^beta = sqrt(u2 - u1^2) has no cancellation
between large terms when beta is far from the origin.  The sums run
through the phase tables of ``state._phase_sums``, as
``CircleState.evaluate``: e^{ik beta} is e^{i beta} multiplied up k times,
one exp per window start.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedStateError
from .state import DEFAULT_CONFIG, CircleState, Config, _phase_sums

__all__ = [
    "ObservableReport",
    "expect_xy",
    "expect_lz",
    "sigma_lz",
    "sigma_xy",
    "mean_resultant",
    "mean_angle",
    "sigma_total",
    "angle_moments_beta",
    "compute_report",
]

_HARMONIC_STEPS = np.array([1j])  # harmonics 1, 2, 3, ...: steps of 1


def expect_xy(state: CircleState, n: int) -> tuple[float, float]:
    """(<cos(n phi)>, <sin(n phi)>) as real and imaginary parts of
    <exp(i n phi)> = conj(rho_n)."""
    if n < 1:
        raise ValueError("harmonic index n must be >= 1")
    rho = state.harmonics
    if n >= rho.size:
        return 0.0, 0.0
    value = complex(rho[n])
    return value.real, -value.imag


def expect_lz(state: CircleState) -> float:
    """<L_z> = hbar sum mu |c|^2; real by construction."""
    return state.hbar * state.lz_moments[0]


def sigma_lz(state: CircleState) -> float:
    """Standard deviation of L_z from the exact diagonal moments."""
    m1, m2 = state.lz_moments
    return state.hbar * math.sqrt(max(m2 - m1 * m1, 0.0))


def sigma_xy(state: CircleState, n: int) -> tuple[float, float]:
    """(sigma_Xn, sigma_Yn) via the exact double-angle reduction
    <Xn^2> = (1 + <X_{2n}>)/2, <Yn^2> = (1 - <X_{2n}>)/2."""
    ex, ey = expect_xy(state, n)
    x2n, _ = expect_xy(state, 2 * n)
    var_x = 0.5 * (1.0 + x2n) - ex * ex
    var_y = 0.5 * (1.0 - x2n) - ey * ey
    return math.sqrt(max(var_x, 0.0)), math.sqrt(max(var_y, 0.0))


def mean_resultant(state: CircleState, n: int) -> float:
    """R_n = |<exp(i n phi)>| = |rho_n|, in [0, 1]."""
    rho = state.harmonics
    k = abs(n)
    return abs(complex(rho[k])) if k < rho.size else 0.0


def mean_angle(state: CircleState,
               config: Config = DEFAULT_CONFIG) -> float | None:
    """Mean direction in (-pi, pi], or None when R_1 < cmp_tol.

    Defined through <X> = R cos<phi>, <Y> = R sin<phi>; with no first
    harmonic anisotropy there is no preferred direction.
    """
    ex, ey = expect_xy(state, 1)
    if math.hypot(ex, ey) < config.cmp_tol:
        return None
    phi = math.atan2(ey, ex)
    if phi <= -math.pi:
        phi = math.pi
    return phi


def sigma_total(state: CircleState, n: int,
                config: Config = DEFAULT_CONFIG) -> float:
    """Total spread sigma_n = (1/n) sqrt(1 - R_n^2) / R_n.

    Returns ``math.inf`` when R_n is numerically zero (below cmp_tol);
    the infinite value is meaningful and propagates through the total
    uncertainty check.
    """
    if n < 1:
        raise ValueError("harmonic index n must be >= 1")
    r = mean_resultant(state, n)
    if r < config.cmp_tol:
        return math.inf
    return math.sqrt(max(1.0 - r * r, 0.0)) / (n * r)


def angle_moments_beta(state: CircleState, beta):
    """Window moments (<phi>_beta, <phi^2>_beta, sigma_phi^beta).

    The moments of phi over the window [beta, beta + 2pi], whose start is
    exactly the integration boundary whose influence they exhibit, from
    the closed-form harmonic sums in the module docstring, each of the
    shape of ``beta`` (an np.float64 for a scalar).  Only strictly
    periodic states are supported.
    """
    betas = np.asarray(beta, dtype=float)
    if not np.all(np.isfinite(betas)):
        raise ValueError("beta must be finite")
    if not state.is_periodic:
        raise UnsupportedStateError(
            "window angle moments need a strictly periodic state")
    rho = state.harmonics
    flat = betas.ravel()
    k = np.arange(1, rho.size, dtype=float)
    w1 = rho[1:] / k
    s1, s2 = _phase_sums(flat, _HARMONIC_STEPS,
                         np.zeros(k.size, dtype=np.intp), (w1, w1 / k))
    # Re(s / i) = Im(s)
    u1 = 2.0 * s1.imag
    u2 = 4.0 * s2.real
    u2 += math.pi**2 / 3.0
    c = flat + math.pi
    m1 = c + u1
    m2 = c * c + 2.0 * c * u1 + u2
    sigma = np.sqrt(np.maximum(u2 - u1 * u1, 0.0))
    return tuple(a.reshape(betas.shape)[()] for a in (m1, m2, sigma))


@dataclass(frozen=True)
class ObservableReport:
    """All scalar observables of one state at one harmonic index n."""

    n: int
    ex: float
    ey: float
    r_n: float
    mean_phi: float | None
    sigma_x: float
    sigma_y: float
    sigma_lz: float
    sigma_tilde: float
    sigma_n: float


def compute_report(state: CircleState, n: int,
                   config: Config = DEFAULT_CONFIG) -> ObservableReport:
    """Evaluate every report field for harmonic index n."""
    ex, ey = expect_xy(state, n)
    sx, sy = sigma_xy(state, n)
    return ObservableReport(
        n=n,
        ex=ex,
        ey=ey,
        r_n=mean_resultant(state, n),
        mean_phi=mean_angle(state, config),
        sigma_x=sx,
        sigma_y=sy,
        sigma_lz=sigma_lz(state),
        sigma_tilde=math.sqrt(sx * sx + sy * sy),
        sigma_n=sigma_total(state, n, config),
    )
