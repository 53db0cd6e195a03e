"""Expectation values and standard deviations for states on the circle.

Every moment here is an exact finite sum.  Angular momentum moments read
the diagonal sums over the effective exponents, the spread as the square
root of the centred sum, computed once per state and cached on it
(``CircleState.lz_moments`` holds <L_z> and sigma_Lz), so the many
bounds that share one sigma_Lz do not repeat them.  Trigonometric
moments read the density harmonics rho_k, computed once per state and
cached on it (``CircleState.harmonics``): <exp(i k phi)> = conj(rho_k),
so (<X_n>, <Y_n>) = (Re rho_n, -Im rho_n) and R_n = |rho_n|, all zero
past the mode span; every R_n is a C hypot, and counts as zero below its
rounding bound ``_R_ZERO``.  L_z, in ``expect_lz`` and ``sigma_lz``, is
in units of hbar, as every value of the package.

Every measured side of a bound has one home, three private kernels in
Python floats: ``_xy_at`` gives <X_n>, <Y_n>, sigma_Xn and sigma_Yn,
``_total_at`` gives R_n and sigma_n, and ``_seam_at`` gives the two sides
of the window bound at the seam, sigma_phi and 2 pi rho(pi).
``expect_xy``, ``sigma_xy``, ``mean_resultant``, ``sigma_total`` and
``mean_angle`` read the first two, and so do the bound checks and the
n-series of ``uncertainty`` and the packet check of ``mwp``, so every
caller gets the same bits; ``uncertainty.check_fujikawa`` reads the third.
No caller outside this module reads the harmonics for a bound.

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
window bound, e^{ik beta} = (-1)^k exactly, and ``_seam_at`` takes the
two sums as dot products with fixed alternating weights instead; both
paths share ``_spread`` for sigma_phi^beta.
"""

import math

import numpy as np

from .state import MAX_MODE, CircleState, _phase_sums

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

# the zero of R_n by L = harmonics.size: rho_n, a complex inner product of
# at most L terms with sum |c|^2 = 1, rounds by at most sqrt(2) gamma_{L+2},
# gamma_k = k u/(1 - k u), u = 2**-53 (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., ch. 3): 1.61e-13 at the widest L = 1025
_R_ZERO = [math.sqrt(2.0) * k * 2.0**-53 / (1.0 - k * 2.0**-53)
           for k in range(2, 2 * MAX_MODE + 4)]

# the weights e^{ik beta}/k and e^{ik beta}/k^2 at the seam beta = -pi,
# where e^{ik beta} = (-1)^k, for k = 1 .. the widest span
_SEAM_K = np.arange(1.0, 2 * MAX_MODE + 1)
_SEAM_1 = (-1.0) ** _SEAM_K / _SEAM_K
_SEAM_2 = (-1.0) ** _SEAM_K / (_SEAM_K * _SEAM_K)


def _xy_at(state: CircleState, n: int) -> tuple[float, float, float, float]:
    """(<X_n>, <Y_n>, sigma_Xn, sigma_Yn) from rho_n and Re rho_2n, +0.0
    past the mode span, by the exact double-angle reduction
    <Xn^2> = (1 + <X_{2n}>)/2, <Yn^2> = (1 - <X_{2n}>)/2."""
    if n < 1:
        raise ValueError("harmonic index n must be >= 1")
    rho = state.harmonics
    size = rho.size
    if n < size:
        z = rho.item(n)
        # 0.0 - z.imag, not -z.imag, which is -0.0 at a real harmonic
        ex, ey = z.real, 0.0 - z.imag
    else:  # +0.0 past the span, not -0.0
        ex = ey = 0.0
    x2n = rho.item(2 * n).real if 2 * n < size else 0.0
    # each clip selects as max(var, 0.0) does, without the cost of a call
    var_x = 0.5 * (1.0 + x2n) - ex * ex
    var_y = 0.5 * (1.0 - x2n) - ey * ey
    return (ex, ey, math.sqrt(0.0 if var_x < 0.0 else var_x),
            math.sqrt(0.0 if var_y < 0.0 else var_y))


def _total_at(state: CircleState, n: int) -> tuple[float, float]:
    """(R_n, sigma_n): R_n = |rho_n| by C hypot (0.0 past the mode span),
    sigma_n = (1/n) sqrt(1 - R_n^2) / R_n, or ``math.inf`` when R_n is
    below its rounding bound ``_R_ZERO``, the one place that gate is
    decided for a scalar n."""
    if n < 1:
        raise ValueError("harmonic index n must be >= 1")
    rho = state.harmonics
    size = rho.size
    r = abs(rho.item(n)) if n < size else 0.0
    if r < _R_ZERO[size]:
        return r, math.inf
    across = 1.0 - r * r
    return r, math.sqrt(0.0 if across < 0.0 else across) / (n * r)


def expect_xy(state: CircleState, n: int) -> tuple[float, float]:
    """(<cos(n phi)>, <sin(n phi)>) = (Re rho_n, -Im rho_n); (0.0, 0.0)
    past the mode span."""
    return _xy_at(state, n)[:2]


def expect_lz(state: CircleState) -> float:
    """<L_z>/hbar = sum mu |c|^2; real by construction."""
    return state.lz_moments[0]


def sigma_lz(state: CircleState) -> float:
    """sigma_Lz/hbar, the standard deviation of L_z from the exact centred
    diagonal sum, as the per-state cache holds it."""
    return state.lz_moments[1]


def sigma_xy(state: CircleState, n: int) -> tuple[float, float]:
    """(sigma_Xn, sigma_Yn) via the exact double-angle reduction from
    <X_n>, <Y_n> and <X_{2n}>."""
    return _xy_at(state, n)[2:]


def mean_resultant(state: CircleState, n: int) -> float:
    """R_n = |<exp(i n phi)>| = |rho_n| in [0, 1], by C hypot."""
    return _total_at(state, n)[0]


def mean_angle(state: CircleState) -> float | None:
    """Mean direction in (-pi, pi], or None when R_1 is below its rounding
    bound ``_R_ZERO``.

    Defined through <X> = R cos<phi>, <Y> = R sin<phi>; with no first
    harmonic anisotropy there is no preferred direction.
    """
    # sigma_1 is infinite exactly when R_1 is below _R_ZERO
    if math.isinf(_total_at(state, 1)[1]):
        return None
    ex, ey, _, _ = _xy_at(state, 1)
    phi = math.atan2(ey, ex)
    if phi <= -math.pi:
        phi = math.pi
    return phi


def sigma_total(state: CircleState, n: int) -> float:
    """Total spread sigma_n = (1/n) sqrt(1 - R_n^2) / R_n.

    Returns ``math.inf`` when R_n is numerically zero (below its rounding
    bound ``_R_ZERO``); the infinite value is meaningful and propagates
    through the total uncertainty check.
    """
    return _total_at(state, n)[1]


def _spread(u1, u2):
    """sigma_phi^beta = sqrt(u2 - u1^2) of the window sums u1 and u2 (see
    the module docstring), clipped at zero against rounding."""
    return np.sqrt(np.maximum(u2 - u1 * u1, 0.0))


def _seam_at(state: CircleState) -> tuple[float, float]:
    """(sigma_phi, 2 pi rho(pi)) at the seam beta = -pi, the window
    (-pi, pi]: the two measured sides of the window bound.

    There e^{ik beta} = (-1)^k exactly, so u1 and u2 are two dot products
    of the harmonics with fixed weights and need no phase table, and
    2 pi rho(pi) = rho_0 + 2 Re sum_{k>=1} rho_k (-1)^k is the even sum
    less the odd one.  Any boundary phase theta is supported, as for
    ``angle_moments_beta``.
    """
    rho = state.harmonics
    span = rho.size - 1
    real = rho.real
    u1 = 2.0 * float(rho.imag[1:] @ _SEAM_1[:span])
    u2 = 4.0 * float(real[1:] @ _SEAM_2[:span]) + math.pi**2 / 3.0
    two_pi_rho = (real.item(0)
                  + 2.0 * float(real[2::2].sum() - real[1::2].sum()))
    return float(_spread(u1, u2)), two_pi_rho


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
