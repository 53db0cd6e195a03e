"""Uncertainty inequality verdicts and density symmetry analysis.

Three families of bounds are checked for any state: the two axis bounds

    sigma_Xn * sigma_Lz >= (n hbar / 2) |<Yn>|
    sigma_Yn * sigma_Lz >= (n hbar / 2) |<Xn>|

their combination into the total bound sigma_n * sigma_Lz >= hbar/2, and
the window-anchored bound sigma_phi * sigma_Lz >= (hbar/2)(1 - 2pi rho(pi))
with the window start fixed at -pi, for every boundary phase.  All four
are theorems, so ``holds`` is expected true for every valid state; the
interesting output is the slack and the saturation flag.  Each bound is
homogeneous of degree 1 in hbar, so a check works in units of hbar: it
decides ``holds`` and ``saturated`` on its sides at hbar = 1, against one
constant that no caller chooses, and returns the sides and the slack at
hbar = 1 too.  The one infinite side is the total bound's left side when
sigma_n is infinite.

This module measures no side of a bound itself: it multiplies the
measured sides and decides.  Every bound verdict is one tuple, (kind, n,
lhs, rhs, slack, holds, saturated), built by ``_verdict``.  The scalar
checks evaluate one bound at one n in Python floats and return it as a
``URReport``, a ``NamedTuple``.  ``series_columns`` evaluates the
observables and the three per-n bounds for every n = 1..nmax in one loop
over n, and keeps each verdict as the plain tuple.  Both read the per-n
observables from the kernels of ``observables``, ``_xy_at`` (the axis
means and spreads) and ``_total_at`` (R_n and sigma_n), and sigma_Lz
from the per-state cache ``CircleState.lz_moments``, so every verdict of
the loop equals the scalar check's, bit for bit, by construction.  The
window bound reads its two sides from the third kernel,
``observables._seam_at``.  The symmetry detection and ``recommend_n``
read the moduli R_k from the per-state cache ``CircleState.resultants``.
"""

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .observables import _seam_at, _total_at, _xy_at
from .state import MAX_MODE, CircleState

__all__ = [
    "URKind",
    "URReport",
    "SeriesRow",
    "check_ur_x",
    "check_ur_y",
    "check_total_ur",
    "check_fujikawa",
    "series_columns",
    "detect_fold_symmetry",
    "is_fully_symmetric",
    "recommend_n",
]


class URKind(Enum):
    X_AXIS = "X_AXIS"
    Y_AXIS = "Y_AXIS"
    TOTAL = "TOTAL"
    FUJIKAWA = "FUJIKAWA"


# the members as module globals: an Enum class attribute lookup costs
# several times a global read, and every check makes one or two
_X_AXIS = URKind.X_AXIS
_Y_AXIS = URKind.Y_AXIS
_TOTAL = URKind.TOTAL
_FUJIKAWA = URKind.FUJIKAWA


class URReport(NamedTuple):
    """Left side, right side and verdict of one uncertainty inequality:
    the tuple ``_verdict`` returns, with its fields named."""

    kind: URKind
    n: int
    lhs: float
    rhs: float
    slack: float
    holds: bool
    saturated: bool


_VERDICT_TOL = 1e-9  # a slack within it is rounding noise, in units of hbar


def _verdict(kind: URKind, n: int, lhs: float, rhs: float) -> tuple:
    """(kind, n, lhs, rhs, slack, holds, saturated) of lhs >= rhs, the
    fields of a ``URReport``, decided against ``_VERDICT_TOL`` here alone."""
    slack = lhs - rhs
    return (kind, n, lhs, rhs, slack, slack >= -_VERDICT_TOL,
            abs(slack) <= _VERDICT_TOL)


def check_ur_x(state: CircleState, n: int) -> URReport:
    """sigma_Xn * sigma_Lz against (n hbar / 2) |<Yn>|."""
    _, ey, sx, _ = _xy_at(state, n)
    return URReport._make(_verdict(
        _X_AXIS, n, sx * state.lz_moments[1], 0.5 * n * abs(ey)))


def check_ur_y(state: CircleState, n: int) -> URReport:
    """sigma_Yn * sigma_Lz against (n hbar / 2) |<Xn>|."""
    ex, _, _, sy = _xy_at(state, n)
    return URReport._make(_verdict(
        _Y_AXIS, n, sy * state.lz_moments[1], 0.5 * n * abs(ex)))


def check_total_ur(state: CircleState, n: int) -> URReport:
    """sigma_n * sigma_Lz against hbar/2.  An infinite sigma_n (R_n below
    its rounding bound, an isotropic harmonic) makes the left side
    infinite and the bound trivially true."""
    _, sn = _total_at(state, n)
    lhs = math.inf if math.isinf(sn) else sn * state.lz_moments[1]
    return URReport._make(_verdict(_TOTAL, n, lhs, 0.5))


def check_fujikawa(state: CircleState) -> URReport:
    """Window bound sigma_phi * sigma_Lz >= (hbar/2)(1 - 2 pi rho(pi)).

    The window bound of Franke-Arnold et al., New J. Phys. 6, 103 (2004),
    at the window start beta = -pi: the angle spread over (-pi, pi] and
    the density at the seam, where e^{ik beta} = (-1)^k, are alternating
    sums over the harmonics, with no phase table, both measured by the
    kernel ``observables._seam_at``.  A negative right side makes the
    bound trivial, and the paper's own Y packets have one: ``mwp_y(1, 0,
    kappa)`` at kappa = 0.5, 2, 5 and 50 has right sides -0.275, -1.12,
    -2.22 and -8.34 against left sides 0.361, 1.50, 2.94 and 10.66.  The
    Robertson form, with (hbar/2)|1 - 2 pi rho(pi)| on the right (Pegg et
    al., New J. Phys. 7, 62 (2005)), is not trivial there; this check
    keeps the signed form.  Every boundary phase theta is supported: the
    density, and so the boundary term, does not depend on theta.
    """
    sigma_phi, two_pi_rho = _seam_at(state)
    return URReport._make(_verdict(
        _FUJIKAWA, 1, sigma_phi * state.lz_moments[1],
        0.5 * (1.0 - two_pi_rho)))


class SeriesRow(NamedTuple):
    """The n-dependent report fields at one n: the observables as Python
    floats, and each bound as the plain ``_verdict`` tuple of its check.

    Each row reads the kernels ``observables._xy_at`` and ``_total_at``,
    as ``expect_xy``, ``mean_resultant``, ``sigma_xy`` and ``sigma_total``
    and the bounds ``check_ur_x``, ``check_ur_y`` and ``check_total_ur``
    do, so it matches them bit for bit.
    """

    n: int
    ex: float
    ey: float
    r_n: float
    sigma_x: float
    sigma_y: float
    sigma_tilde: float
    sigma_n: float
    x_axis: tuple
    y_axis: tuple
    total: tuple


def series_columns(state: CircleState, nmax: int) -> list:
    """Observables and the X_AXIS, Y_AXIS and TOTAL bounds for every
    n = 1..nmax, one ``SeriesRow`` per n: one loop over n that reads the
    two per-n kernels, as the scalar checks do.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    slz = state.lz_moments[1]
    rows = []
    for n in range(1, nmax + 1):
        ex, ey, sx, sy = _xy_at(state, n)
        r, sn = _total_at(state, n)
        total_lhs = math.inf if math.isinf(sn) else sn * slz
        rows.append(SeriesRow(
            n, ex, ey, r, sx, sy, math.sqrt(sx * sx + sy * sy), sn,
            _verdict(_X_AXIS, n, sx * slz, 0.5 * n * abs(ey)),
            _verdict(_Y_AXIS, n, sy * slz, 0.5 * n * abs(ex)),
            _verdict(_TOTAL, n, total_lhs, 0.5)))
    return rows


def detect_fold_symmetry(state: CircleState, tol: float = 1e-9) -> int:
    """Largest n with every significant density harmonic on multiples of n.

    Works on the density harmonics rho_k: an n-fold symmetric density has
    weight only on the n-lattice.  Off-lattice harmonics of total
    magnitude up to ``tol`` are treated as noise.  A density with no
    harmonics at all (uniform) is symmetric for every n; the mode cap
    ``MAX_MODE`` is returned as the convention for that case.  Returns 1
    when no symmetry is present.  A genuine fold can equal the cap or
    exceed it: ``from_fourier({-256: 1, 256: 1})`` gives 512 and
    ``from_fourier({-512: 1, 512: 1})`` 1024.  ``is_fully_symmetric``,
    true only for the uniform density, tells the convention apart.
    """
    if is_fully_symmetric(state, tol):
        return MAX_MODE
    mags = state.resultants[1:]
    # a lag whose harmonic alone exceeds tol must sit on the lattice, so n
    # divides the gcd of those lags (gcd 0, none of them: any n may do)
    g = math.gcd(*(np.flatnonzero(mags > tol) + 1).tolist())
    if g == 1:
        return 1
    # the off-lattice weight of n: all of it, less lags n, 2n, ...
    total = float(mags.sum())
    for n in range(g or mags.size, 1, -1):
        if g % n == 0 and total - float(mags[n - 1::n].sum()) <= tol:
            return n
    return 1


def is_fully_symmetric(state: CircleState, tol: float = 1e-9) -> bool:
    """True when the density harmonics sum to at most tol (uniform
    density).  Raises ValueError unless tol is positive."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    mags = state.resultants[1:]
    return mags.size == 0 or float(mags.sum()) <= tol


def recommend_n(state: CircleState, r_threshold: float = 0.1) -> int | None:
    """Smallest n with R_n >= r_threshold, or None when every resultant
    within the mode span stays below it."""
    if not 0 < r_threshold < 1:
        raise ValueError("r_threshold must lie in (0, 1)")
    hits = np.flatnonzero(state.resultants[1:] >= r_threshold)
    return int(hits[0]) + 1 if hits.size else None
