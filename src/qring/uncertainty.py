"""Uncertainty inequality verdicts and density symmetry analysis.

Three families of bounds are checked for any state: the two axis bounds

    sigma_Xn * sigma_Lz >= (n hbar / 2) |<Yn>|
    sigma_Yn * sigma_Lz >= (n hbar / 2) |<Xn>|

their combination into the total bound sigma_n * sigma_Lz >= hbar/2, and
the window-anchored bound sigma_phi * sigma_Lz >= (hbar/2)(1 - 2pi rho(pi))
with the window start fixed at -pi, for every boundary phase.  All four
are theorems, so ``holds`` is expected true for every valid state; the
interesting output is the slack and the saturation flag.  hbar and the
tolerance come from the ``Config`` each check is given.  A side that
overflows float64 (a huge hbar) raises ``OverflowError`` rather than
giving a verdict on infinities; the one infinite side allowed is the
total bound's left side when sigma_n is infinite.

The scalar checks evaluate one bound at one n in Python floats.  The X
and Y checks share one helper, which reads rho_n, rho_2n and sigma_Lz
once each as Python scalars; a check costs a few float operations and
the frozen ``URReport`` it returns, whose fields are set in one dict
update.  The window bound (Franke-Arnold et al., New J. Phys. 6, 103
(2004)) is two alternating sums over the harmonics, since
e^{-ik pi} = (-1)^k: two dot products give the angle spread and the even
and odd sums the density at the seam, with no phase table.
``series_columns`` evaluates the observables and the three per-n bound
families for every n = 1..nmax at once, as arrays over rho_1..rho_nmax
and rho_2..rho_2nmax (zero past the mode span), with the same arithmetic
as the scalar checks, so every value is bit-identical to theirs.  The
columns, the symmetry detection and ``recommend_n`` read the moduli R_k
from the per-state cache ``CircleState.resultants``.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .observables import (
    _seam_spread,
    expect_xy,
    sigma_lz,
    sigma_total,
)
from .state import DEFAULT_CONFIG, MAX_MODE, CircleState, Config

__all__ = [
    "URKind",
    "URReport",
    "BoundColumns",
    "SeriesColumns",
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


@dataclass(frozen=True, init=False)
class URReport:
    """Left side, right side and verdict of one uncertainty inequality.

    A frozen dataclass whose ``__init__`` fills the instance dict in one
    update, where the generated one would call ``object.__setattr__`` once
    per field; fields, ``asdict``, ``replace``, eq, hash, repr and the
    ``FrozenInstanceError`` on assignment are those of the dataclass.
    """

    kind: URKind
    n: int
    lhs: float
    rhs: float
    slack: float
    holds: bool
    saturated: bool

    def __init__(self, kind: URKind, n: int, lhs: float, rhs: float,
                 slack: float, holds: bool, saturated: bool):
        self.__dict__.update(kind=kind, n=n, lhs=lhs, rhs=rhs, slack=slack,
                             holds=holds, saturated=saturated)


def _overflow(kind: URKind, n: int, lhs: float, rhs: float) -> OverflowError:
    return OverflowError(
        f"{kind.value} bound at n={n} overflows float64 (lhs={lhs!r}, "
        f"rhs={rhs!r}); use a smaller hbar")


def _report(kind: URKind, n: int, lhs: float, rhs: float, tol: float,
            infinite_lhs: bool = False) -> URReport:
    """Verdict of lhs >= rhs.  ``infinite_lhs`` marks a left side that is
    infinite by definition; any other non-finite side is an overflow."""
    if not (math.isfinite(rhs) and (infinite_lhs or math.isfinite(lhs))):
        raise _overflow(kind, n, lhs, rhs)
    slack = lhs - rhs
    return URReport(kind, n, lhs, rhs, slack, bool(slack >= -tol),
                    bool(math.isfinite(slack) and abs(slack) <= tol))


def _axis_check(kind: URKind, state: CircleState, n: int,
                config: Config) -> URReport:
    """The X_AXIS or Y_AXIS bound at n: the spread of one axis against
    the mean of the other, from rho_n and rho_2n read once each, with the
    arithmetic of ``sigma_xy``."""
    ex, ey = expect_xy(state, n)
    x2n, _ = expect_xy(state, 2 * n)
    if kind is URKind.X_AXIS:
        var, other = 0.5 * (1.0 + x2n) - ex * ex, ey
    else:
        var, other = 0.5 * (1.0 - x2n) - ey * ey, ex
    lhs = math.sqrt(max(var, 0.0)) * sigma_lz(state, config)
    rhs = 0.5 * n * config.hbar * abs(other)
    return _report(kind, n, lhs, rhs, config.cmp_tol)


def check_ur_x(state: CircleState, n: int,
               config: Config = DEFAULT_CONFIG) -> URReport:
    """sigma_Xn * sigma_Lz against (n hbar / 2) |<Yn>|."""
    return _axis_check(URKind.X_AXIS, state, n, config)


def check_ur_y(state: CircleState, n: int,
               config: Config = DEFAULT_CONFIG) -> URReport:
    """sigma_Yn * sigma_Lz against (n hbar / 2) |<Xn>|."""
    return _axis_check(URKind.Y_AXIS, state, n, config)


def check_total_ur(state: CircleState, n: int,
                   config: Config = DEFAULT_CONFIG) -> URReport:
    """sigma_n * sigma_Lz against hbar/2.

    An infinite sigma_n (vanishing R_n) makes the left side infinite and
    the bound trivially true, matching the convention that the total
    spread of an isotropic harmonic is infinite.
    """
    sn = sigma_total(state, n, config)
    infinite = math.isinf(sn)
    lhs = math.inf if infinite else sn * sigma_lz(state, config)
    rhs = 0.5 * config.hbar
    return _report(URKind.TOTAL, n, lhs, rhs, config.cmp_tol, infinite)


def check_fujikawa(state: CircleState,
                   config: Config = DEFAULT_CONFIG) -> URReport:
    """Window bound sigma_phi * sigma_Lz >= (hbar/2)(1 - 2 pi rho(pi)).

    The window bound of Franke-Arnold et al., New J. Phys. 6, 103 (2004).
    The window start is fixed at beta = -pi, so the angle spread is taken
    over (-pi, pi] and the right side probes the density at the seam.
    There e^{ik beta} = (-1)^k exactly, so both sides are alternating sums
    over the harmonics: the spread from the two dot products of
    ``observables._seam_spread``, the density from the even and odd sums.
    A negative right side makes the bound trivial.  Every boundary phase
    theta is supported: the density does not depend on theta, and the
    bound's boundary term is (hbar/2)(1 - 2 pi rho(pi)) for every theta.
    """
    lhs = _seam_spread(state) * sigma_lz(state, config)
    # 2 pi rho(pi) = rho_0 + 2 Re sum_{k>=1} rho_k (-1)^k
    rho = state.harmonics.real
    two_pi_rho = rho.item(0) + 2.0 * float(rho[2::2].sum() - rho[1::2].sum())
    rhs = 0.5 * config.hbar * (1.0 - two_pi_rho)
    return _report(URKind.FUJIKAWA, 1, lhs, rhs, config.cmp_tol)


class BoundColumns(NamedTuple):
    """One bound family over n = 1..nmax: the ``URReport`` fields as
    arrays."""

    lhs: np.ndarray
    rhs: np.ndarray
    slack: np.ndarray
    holds: np.ndarray
    saturated: np.ndarray


class SeriesColumns(NamedTuple):
    """The n-dependent report fields for n = 1..nmax, one array each.

    The observables match ``expect_xy``, ``mean_resultant``, ``sigma_xy``
    and ``sigma_total``, and the bounds ``check_ur_x``, ``check_ur_y`` and
    ``check_total_ur``, bit for bit.
    """

    n: np.ndarray
    ex: np.ndarray
    ey: np.ndarray
    r_n: np.ndarray
    sigma_x: np.ndarray
    sigma_y: np.ndarray
    sigma_tilde: np.ndarray
    sigma_n: np.ndarray
    x_axis: BoundColumns
    y_axis: BoundColumns
    total: BoundColumns


def _bound_columns(lhs: np.ndarray, rhs: np.ndarray,
                   tol: float) -> BoundColumns:
    slack = lhs - rhs
    return BoundColumns(lhs=lhs, rhs=rhs, slack=slack, holds=slack >= -tol,
                        saturated=np.isfinite(slack) & (np.abs(slack) <= tol))


def series_columns(state: CircleState, nmax: int,
                   config: Config = DEFAULT_CONFIG) -> SeriesColumns:
    """Observables and the X_AXIS, Y_AXIS and TOTAL bounds for every
    n = 1..nmax in one array pass over the cached harmonics.

    Raises ``OverflowError`` for the first bound, in the order n, then
    X, Y, TOTAL, whose scalar check would raise it.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    rho = state.harmonics
    n = np.arange(1, nmax + 1)
    inside = min(nmax, rho.size - 1)  # n within the mode span
    rho_n = np.zeros(nmax, dtype=complex)
    rho_n[:inside] = rho[1 : inside + 1]
    x2n = np.zeros(nmax)
    half = min(nmax, (rho.size - 1) // 2)  # n with 2n within the span
    x2n[:half] = rho[2 : 2 * half + 1 : 2].real
    ex = rho_n.real
    ey = -rho_n.imag
    ey[inside:] = 0.0  # expect_xy gives +0.0 past the span, not -0.0
    sx = np.sqrt(np.maximum(0.5 * (1.0 + x2n) - ex * ex, 0.0))
    sy = np.sqrt(np.maximum(0.5 * (1.0 - x2n) - ey * ey, 0.0))
    r = np.zeros(nmax)
    r[:inside] = state.resultants[1 : inside + 1]
    isotropic = r < config.cmp_tol
    safe_r = np.where(isotropic, 1.0, r)
    sn = np.sqrt(np.maximum(1.0 - safe_r * safe_r, 0.0)) / (n * safe_r)
    sn[isotropic] = math.inf
    slz = sigma_lz(state, config)
    hbar = config.hbar
    with np.errstate(over="ignore", invalid="ignore"):
        x_lhs = sx * slz
        x_rhs = 0.5 * n * hbar * np.abs(ey)
        y_lhs = sy * slz
        y_rhs = 0.5 * n * hbar * np.abs(ex)
        t_lhs = np.where(isotropic, math.inf, sn * slz)
    t_rhs = np.full(nmax, 0.5 * hbar)
    bad = np.column_stack([
        ~(np.isfinite(x_lhs) & np.isfinite(x_rhs)),
        ~(np.isfinite(y_lhs) & np.isfinite(y_rhs)),
        ~((np.isfinite(t_lhs) | isotropic) & np.isfinite(t_rhs)),
    ])
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), 3)
        lhs, rhs = ((x_lhs, x_rhs), (y_lhs, y_rhs), (t_lhs, t_rhs))[j]
        kind = (URKind.X_AXIS, URKind.Y_AXIS, URKind.TOTAL)[j]
        raise _overflow(kind, i + 1, float(lhs[i]), float(rhs[i]))
    tol = config.cmp_tol
    return SeriesColumns(
        n=n, ex=ex, ey=ey, r_n=r, sigma_x=sx, sigma_y=sy,
        sigma_tilde=np.sqrt(sx * sx + sy * sy), sigma_n=sn,
        x_axis=_bound_columns(x_lhs, x_rhs, tol),
        y_axis=_bound_columns(y_lhs, y_rhs, tol),
        total=_bound_columns(t_lhs, t_rhs, tol),
    )


def detect_fold_symmetry(state: CircleState, tol: float = 1e-9) -> int:
    """Largest n with every significant density harmonic on multiples of n.

    Works on the density harmonics rho_k: an n-fold symmetric density has
    weight only on the n-lattice.  Off-lattice harmonics of total
    magnitude up to ``tol`` are treated as noise.  A density with no
    harmonics at all (uniform) is symmetric for every n; the mode cap
    ``MAX_MODE`` is returned as the convention for that case.  Returns 1
    when no symmetry is present.
    """
    if is_fully_symmetric(state, tol):
        return MAX_MODE
    mags = state.resultants[1:]
    k = np.arange(1, mags.size + 1)
    # a lag whose harmonic alone exceeds tol must sit on the lattice, so n
    # divides the gcd of those lags (gcd 0, none of them: any n may do)
    g = math.gcd(*k[mags > tol].tolist())
    for n in range(g or mags.size, 1, -1):
        if g % n == 0 and float(mags[(k % n) != 0].sum()) <= tol:
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
