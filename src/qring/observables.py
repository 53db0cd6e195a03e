"""Expectation values and standard deviations for states on the circle.

Every moment here is an exact finite sum.  Angular momentum moments are
diagonal sums over the effective exponents.  Trigonometric moments come
from the density harmonics rho_k, computed once per state and cached on it
(``CircleState.harmonics``): <exp(i k phi)> = conj(rho_k).

The window-dependent angle moments integrate phi rho and phi^2 rho over
[beta, beta + 2pi].  Integrating each harmonic by parts gives, with
c = beta + pi and rho_0 = 1,

    <phi>_beta   = c + u1,   u1 = 2 Re sum_{k>=1} rho_k e^{ik beta} / (ik)
    <phi^2>_beta = c^2 + 2 c u1 + u2,
                   u2 = pi^2/3 + 4 Re sum_{k>=1} rho_k e^{ik beta} / k^2

which is the expansion beta^2 + 2pi beta + 4pi^2/3 + (1/pi) Re sum rho_k
e^{ik beta} [(4pi beta + 4pi^2)/(ik) + 4pi/k^2] regrouped around the window
centre c, so that sigma_phi^beta = sqrt(u2 - u1^2) has no cancellation
between large terms when beta is far from the origin.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedStateError
from .state import DEFAULT_CONFIG, CircleState, Config, TWO_PI

__all__ = [
    "ObservableReport",
    "autocorrelation",
    "density_spectrum",
    "expect_xy",
    "expect_lz",
    "sigma_lz",
    "sigma_xy",
    "mean_resultant",
    "mean_angle",
    "sigma_total",
    "angle_moments_beta",
    "density_integral",
    "compute_report",
]

# bound on the beta x harmonic phase matrix of one window-moment block
_WINDOW_BLOCK = 2**20


def autocorrelation(state: CircleState, lag: int) -> complex:
    """sum_m conj(c_{m+lag}) c_m; equals <exp(i lag phi)> = conj(rho_lag)."""
    rho = state.harmonics
    k = abs(lag)
    if k >= rho.size:
        return 0j
    value = complex(rho[k])
    return value.conjugate() if lag > 0 else value


def density_spectrum(state: CircleState):
    """Harmonics rho_k of the density for k = 0 .. mode span.

    rho(phi) = (1/2pi) sum_k rho_k exp(i k phi) with
    rho_k = sum_m c_{m+k} conj(c_m) and rho_{-k} = conj(rho_k).
    Returns (lags, rho) with lags = arange(span + 1); rho is the state's
    cached, read-only ``harmonics`` array.
    """
    rho = state.harmonics
    return np.arange(rho.size), rho


def expect_xy(state: CircleState, n: int) -> tuple[float, float]:
    """(<cos(n phi)>, <sin(n phi)>) as real and imaginary parts of
    <exp(i n phi)> = conj(rho_n)."""
    if n < 1:
        raise ValueError("harmonic index n must be >= 1")
    value = autocorrelation(state, n)
    return value.real, value.imag


def expect_lz(state: CircleState) -> float:
    """<L_z> = hbar sum mu |c|^2; real by construction."""
    w = np.abs(state.amps) ** 2
    return state.hbar * float(np.sum(state.mu * w))


def sigma_lz(state: CircleState) -> float:
    """Standard deviation of L_z from the exact diagonal moments."""
    w = np.abs(state.amps) ** 2
    mu = state.mu
    m1 = float(np.sum(mu * w))
    m2 = float(np.sum(mu * mu * w))
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
    return abs(autocorrelation(state, n))


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


def angle_moments_beta(state: CircleState, beta,
                       config: Config = DEFAULT_CONFIG):
    """Window moments (<phi>_beta, <phi^2>_beta, sigma_phi^beta).

    The moments of phi over the window [beta, beta + 2pi], whose start is
    exactly the integration boundary whose influence they exhibit, from
    the closed-form harmonic sums in the module docstring.  ``beta`` may
    be a scalar, giving three floats, or an array, giving three arrays of
    its shape.  Only strictly periodic states are supported.
    """
    betas = np.asarray(beta, dtype=float)
    if not np.all(np.isfinite(betas)):
        raise ValueError("beta must be finite")
    if not state.is_periodic:
        raise UnsupportedStateError(
            "window angle moments need a strictly periodic state")
    lags, rho = density_spectrum(state)
    k = lags[1:].astype(float)
    flat = betas.ravel()
    u1 = np.empty(flat.shape)
    u2 = np.empty(flat.shape)
    block = max(1, _WINDOW_BLOCK // max(k.size, 1))
    for start in range(0, flat.size, block):
        chunk = flat[start : start + block]
        terms = np.exp(1j * np.outer(chunk, k)) * rho[1:]
        # Re(t / (ik)) = Im(t) / k
        u1[start : start + block] = 2.0 * (terms @ (1.0 / k)).imag
        u2[start : start + block] = 4.0 * (terms @ (1.0 / (k * k))).real
    u2 += math.pi**2 / 3.0
    c = flat + math.pi
    m1 = c + u1
    m2 = c * c + 2.0 * c * u1 + u2
    sigma = np.sqrt(np.maximum(u2 - u1 * u1, 0.0))
    if betas.ndim == 0:
        return float(m1[0]), float(m2[0]), float(sigma[0])
    shape = betas.shape
    return m1.reshape(shape), m2.reshape(shape), sigma.reshape(shape)


def density_integral(state: CircleState, a: float, b: float) -> float:
    """int_a^b rho(phi) dphi from the exact harmonic antiderivative."""
    lags, rho = density_spectrum(state)
    total = (b - a) / TWO_PI  # rho_0 = 1 contribution
    k = lags[1:]
    if k.size:
        terms = rho[1:] * (np.exp(1j * k * b) - np.exp(1j * k * a)) / (1j * k)
        total += 2.0 * terms.real.sum() / TWO_PI
    return float(total)


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
