"""Uncertainty inequality verdicts and density symmetry analysis.

Three families of bounds are checked for any state: the two axis bounds

    sigma_Xn * sigma_Lz >= (n hbar / 2) |<Yn>|
    sigma_Yn * sigma_Lz >= (n hbar / 2) |<Xn>|

their combination into the total bound sigma_n * sigma_Lz >= hbar/2, and
the window-anchored bound sigma_phi * sigma_Lz >= (hbar/2)(1 - 2pi rho(pi))
for strictly periodic states with the window start fixed at -pi.  All four
are theorems, so ``holds`` is expected true for every valid state; the
interesting output is the slack and the saturation flag.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .observables import (
    angle_moments_beta,
    expect_xy,
    sigma_lz,
    sigma_total,
    sigma_xy,
)
from .state import DEFAULT_CONFIG, CircleState, Config

__all__ = [
    "URKind",
    "URReport",
    "check_ur_x",
    "check_ur_y",
    "check_total_ur",
    "check_fujikawa",
    "detect_fold_symmetry",
    "is_fully_symmetric",
    "recommend_n",
]


class URKind(Enum):
    X_AXIS = "X_AXIS"
    Y_AXIS = "Y_AXIS"
    TOTAL = "TOTAL"
    FUJIKAWA = "FUJIKAWA"


@dataclass(frozen=True)
class URReport:
    """Left side, right side and verdict of one uncertainty inequality."""

    kind: URKind
    n: int
    lhs: float
    rhs: float
    slack: float
    holds: bool
    saturated: bool


def _report(kind: URKind, n: int, lhs: float, rhs: float,
            tol: float) -> URReport:
    slack = lhs - rhs
    return URReport(
        kind=kind,
        n=n,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        holds=bool(slack >= -tol),
        saturated=bool(math.isfinite(slack) and abs(slack) <= tol),
    )


def check_ur_x(state: CircleState, n: int,
               config: Config = DEFAULT_CONFIG) -> URReport:
    """sigma_Xn * sigma_Lz against (n hbar / 2) |<Yn>|."""
    sx, _ = sigma_xy(state, n)
    _, ey = expect_xy(state, n)
    lhs = sx * sigma_lz(state)
    rhs = 0.5 * n * state.hbar * abs(ey)
    return _report(URKind.X_AXIS, n, lhs, rhs, config.cmp_tol)


def check_ur_y(state: CircleState, n: int,
               config: Config = DEFAULT_CONFIG) -> URReport:
    """sigma_Yn * sigma_Lz against (n hbar / 2) |<Xn>|."""
    _, sy = sigma_xy(state, n)
    ex, _ = expect_xy(state, n)
    lhs = sy * sigma_lz(state)
    rhs = 0.5 * n * state.hbar * abs(ex)
    return _report(URKind.Y_AXIS, n, lhs, rhs, config.cmp_tol)


def check_total_ur(state: CircleState, n: int,
                   config: Config = DEFAULT_CONFIG) -> URReport:
    """sigma_n * sigma_Lz against hbar/2.

    An infinite sigma_n (vanishing R_n) makes the left side infinite and
    the bound trivially true, matching the convention that the total
    spread of an isotropic harmonic is infinite.
    """
    sn = sigma_total(state, n, config)
    lhs = math.inf if math.isinf(sn) else sn * sigma_lz(state)
    rhs = 0.5 * state.hbar
    return _report(URKind.TOTAL, n, lhs, rhs, config.cmp_tol)


def check_fujikawa(state: CircleState,
                   config: Config = DEFAULT_CONFIG) -> URReport:
    """Window bound sigma_phi * sigma_Lz >= (hbar/2)(1 - 2 pi rho(pi)).

    The window start is fixed at beta = -pi, so the angle spread is taken
    over (-pi, pi] and the right side probes the density at the seam.  A
    negative right side makes the bound trivial.  Quasi-periodic states
    are rejected (the window moments are not defined for them).
    """
    _, _, s_phi = angle_moments_beta(state, -math.pi)
    lhs = s_phi * sigma_lz(state)
    # 2 pi rho(pi) = rho_0 + 2 Re sum_{k>=1} rho_k (-1)^k
    rho = state.harmonics.real
    two_pi_rho = rho[0] + 2.0 * float(rho[2::2].sum() - rho[1::2].sum())
    rhs = 0.5 * state.hbar * (1.0 - two_pi_rho)
    return _report(URKind.FUJIKAWA, 1, lhs, rhs, config.cmp_tol)


def detect_fold_symmetry(state: CircleState, tol: float = 1e-9,
                         config: Config = DEFAULT_CONFIG) -> int:
    """Largest n with every significant density harmonic on multiples of n.

    Works on the density harmonics rho_k: an n-fold symmetric density has
    weight only on the n-lattice.  Off-lattice harmonics of total
    magnitude up to ``tol`` are treated as noise.  A density with no
    harmonics at all (uniform) is symmetric for every n; the configured
    mode cap is returned as the convention for that case.  Returns 1 when
    no symmetry is present.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    mags = np.abs(state.harmonics[1:])
    if mags.size == 0 or float(mags.sum()) <= tol:
        return config.max_mode
    k = np.arange(1, mags.size + 1)
    # a lag whose harmonic alone exceeds tol must sit on the lattice, so n
    # divides the gcd of those lags (gcd 0, none of them: any n may do)
    g = math.gcd(*k[mags > tol].tolist())
    for n in range(g or mags.size, 1, -1):
        if g % n == 0 and float(mags[(k % n) != 0].sum()) <= tol:
            return n
    return 1


def is_fully_symmetric(state: CircleState, tol: float = 1e-9) -> bool:
    """True when the density has no harmonic above tol (uniform density)."""
    mags = np.abs(state.harmonics[1:])
    return mags.size == 0 or float(mags.sum()) <= tol


def recommend_n(state: CircleState, r_threshold: float = 0.1) -> int | None:
    """Smallest n with R_n >= r_threshold, or None when every resultant
    within the mode span stays below it."""
    if not 0 < r_threshold < 1:
        raise ValueError("r_threshold must lie in (0, 1)")
    hits = np.flatnonzero(np.abs(state.harmonics[1:]) >= r_threshold)
    return int(hits[0]) + 1 if hits.size else None
