"""Expectation values and standard deviations for states on the circle.

Every moment here is an exact finite sum.  Angular momentum moments read
the diagonal sums over the effective exponents, the variance as the
centred sum, computed once per state and cached on it
(``CircleState.lz_moments``), so the many bounds that share one sigma_Lz
do not repeat them.  Trigonometric moments read the density harmonics
rho_k, computed once per state and cached on it
(``CircleState.harmonics``): <exp(i k phi)> = conj(rho_k), so
(<X_n>, <Y_n>) = (Re rho_n, -Im rho_n) and R_n = |rho_n|, all zero past
the mode span; every R_n is a C hypot.  hbar enters only through L_z,
read from the ``Config`` given to ``expect_lz`` and ``sigma_lz``.

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
one exp per window start.  At the seam beta = -pi, the window start of the
window bound, e^{ik beta} = (-1)^k exactly, and ``_seam_spread`` takes the
two sums as dot products with fixed alternating weights instead; both
paths share ``_spread`` for sigma_phi^beta.
"""

import math

import numpy as np

from .state import DEFAULT_CONFIG, MAX_MODE, CircleState, Config, _phase_sums

__all__ = [
    "expect_xy",
    "expect_lz",
    "sigma_lz",
    "sigma_xy",
    "mean_resultant",
    "mean_angle",
    "sigma_total",
    "angle_moments_beta",
]

_HARMONIC_STEPS = np.array([1j])  # harmonics 1, 2, 3, ...: steps of 1

# the weights e^{ik beta}/k and e^{ik beta}/k^2 at the seam beta = -pi,
# where e^{ik beta} = (-1)^k, for k = 1 .. the widest span
_SEAM_K = np.arange(1.0, 2 * MAX_MODE + 1)
_SEAM_1 = (-1.0) ** _SEAM_K / _SEAM_K
_SEAM_2 = (-1.0) ** _SEAM_K / (_SEAM_K * _SEAM_K)


def expect_xy(state: CircleState, n: int) -> tuple[float, float]:
    """(<cos(n phi)>, <sin(n phi)>) as real and imaginary parts of
    <exp(i n phi)> = conj(rho_n), read as one Python complex; (0.0, 0.0)
    past the mode span."""
    if n < 1:
        raise ValueError("harmonic index n must be >= 1")
    rho = state.harmonics
    if n >= rho.size:
        return 0.0, 0.0
    value = rho.item(n)
    return value.real, -value.imag


def expect_lz(state: CircleState, config: Config = DEFAULT_CONFIG) -> float:
    """<L_z> = hbar sum mu |c|^2; real by construction."""
    return config.hbar * state.lz_moments[0]


def sigma_lz(state: CircleState, config: Config = DEFAULT_CONFIG) -> float:
    """Standard deviation of L_z from the exact centred diagonal sum."""
    return config.hbar * math.sqrt(state.lz_moments[1])


def sigma_xy(state: CircleState, n: int) -> tuple[float, float]:
    """(sigma_Xn, sigma_Yn) via the exact double-angle reduction
    <Xn^2> = (1 + <X_{2n}>)/2, <Yn^2> = (1 - <X_{2n}>)/2, from the Python
    floats of ``expect_xy`` at n and 2n."""
    ex, ey = expect_xy(state, n)
    x2n, _ = expect_xy(state, 2 * n)
    var_x = 0.5 * (1.0 + x2n) - ex * ex
    var_y = 0.5 * (1.0 - x2n) - ey * ey
    return math.sqrt(max(var_x, 0.0)), math.sqrt(max(var_y, 0.0))


def mean_resultant(state: CircleState, n: int) -> float:
    """R_n = |<exp(i n phi)>| = |rho_n| in [0, 1], by C hypot."""
    if n < 1:
        raise ValueError("harmonic index n must be >= 1")
    rho = state.harmonics
    return abs(rho.item(n)) if n < rho.size else 0.0


def mean_angle(state: CircleState,
               config: Config = DEFAULT_CONFIG) -> float | None:
    """Mean direction in (-pi, pi], or None when R_1 < cmp_tol.

    Defined through <X> = R cos<phi>, <Y> = R sin<phi>; with no first
    harmonic anisotropy there is no preferred direction.
    """
    if mean_resultant(state, 1) < config.cmp_tol:
        return None
    ex, ey = expect_xy(state, 1)
    phi = math.atan2(ey, ex)
    if phi <= -math.pi:
        phi = math.pi
    return phi


def sigma_total(state: CircleState, n: int,
                config: Config = DEFAULT_CONFIG) -> float:
    """Total spread sigma_n = (1/n) sqrt(1 - R_n^2) / R_n.

    R_n is read straight from the cached harmonics, by the C hypot of
    ``mean_resultant``.  Returns ``math.inf`` when R_n is numerically zero
    (below cmp_tol), the one place that gate is decided for a scalar n;
    the infinite value is meaningful and propagates through the total
    uncertainty check.
    """
    if n < 1:
        raise ValueError("harmonic index n must be >= 1")
    rho = state.harmonics
    r = abs(rho.item(n)) if n < rho.size else 0.0
    if r < config.cmp_tol:
        return math.inf
    return math.sqrt(max(1.0 - r * r, 0.0)) / (n * r)


def _spread(u1, u2):
    """sigma_phi^beta = sqrt(u2 - u1^2) of the window sums u1 and u2 (see
    the module docstring), clipped at zero against rounding."""
    return np.sqrt(np.maximum(u2 - u1 * u1, 0.0))


def _seam_spread(state: CircleState) -> float:
    """sigma_phi^beta at the seam beta = -pi, the window (-pi, pi].

    There e^{ik beta} = (-1)^k exactly, so u1 and u2 are two dot products
    of the harmonics with fixed weights and need no phase table.  Any
    boundary phase theta is supported, as for ``angle_moments_beta``.
    """
    rho = state.harmonics
    span = rho.size - 1
    u1 = 2.0 * float(rho.imag[1:] @ _SEAM_1[:span])
    u2 = 4.0 * float(rho.real[1:] @ _SEAM_2[:span]) + math.pi**2 / 3.0
    return float(_spread(u1, u2))


def angle_moments_beta(state: CircleState, beta):
    """Window moments (<phi>_beta, <phi^2>_beta, sigma_phi^beta).

    The moments of phi over the window [beta, beta + 2pi], whose start is
    exactly the integration boundary whose influence they exhibit, from
    the closed-form harmonic sums in the module docstring, each of the
    shape of ``beta`` (an np.float64 for a scalar).  They hold for every
    boundary phase theta: |psi|^2, and with it every harmonic rho_k, does
    not depend on theta, so a quasi-periodic state has the window moments
    of its periodic twin (the same coefficients at theta = 0).
    """
    betas = np.asarray(beta, dtype=float)
    if not np.isfinite(betas).all():
        raise ValueError("beta must be finite")
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
    sigma = _spread(u1, u2)
    shape = betas.shape
    return (m1.reshape(shape)[()], m2.reshape(shape)[()],
            sigma.reshape(shape)[()])
