"""Von Mises minimum wave packets and their closed-form statistics.

The X-axis packet has amplitude proportional to exp[(kappa/2) sin(n phi)]
times the eigenmode phase exp(i m phi); it saturates the X-axis bound
exactly while leaving a strictly positive gap on the Y-axis bound for any
finite nonzero concentration.  The Y-axis packet uses -cos in place of sin
and is the X packet rotated by pi/(2n) up to a global phase.

States are built from their exact Fourier coefficients, the Jacobi-Anger
expansions exp(z sin t) = sum_k I_k(z) (-i)^k e^{ikt} and
exp(-z cos t) = sum_k (-1)^k I_k(z) e^{ikt} (A&S 9.6.34) with z = kappa/2
and t = n phi: order k sits at mode n k + m.  ``bessel.ik_scaled`` keeps
the orders whose weight exceeds 1e-24 of the total, a fixed policy, and
proves early when kappa needs orders past the mode cap ``state.MAX_MODE``,
the only limit on kappa; ``state._build`` checks the kept modes exactly.
A packet is only its parameters; ``verify_packet`` computes the
closed-form predictions from one ``bessel.von_mises`` call, in the hbar of
its ``Config``, and compares them with the moments measured on the state.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bessel import ik_scaled, von_mises
from .errors import ResolutionError
from .observables import expect_lz, expect_xy, sigma_lz, sigma_xy
from .state import (DEFAULT_CONFIG, MAX_MODE, CircleState, Config, TWO_PI,
                    _build)

__all__ = [
    "Axis",
    "VonMisesPacket",
    "PacketVerification",
    "mwp_x",
    "mwp_y",
    "verify_packet",
]


class Axis(Enum):
    X = "X"
    Y = "Y"


@dataclass(frozen=True)
class PacketPrediction:
    """Closed-form statistics of a von Mises packet."""

    ex: float
    ey: float
    sigma_x2: float
    sigma_y2: float
    sigma_lz2: float
    norm_const: float


@dataclass(frozen=True)
class VonMisesPacket:
    """Parameters of a minimum wave packet."""

    axis: Axis
    n: int
    m: int
    kappa: float


@dataclass(frozen=True)
class PacketVerification:
    """Closed-form predictions of a packet, the moments measured on its
    state, and their deltas."""

    ok: bool
    tol: float
    predicted: PacketPrediction
    deltas: dict
    measured: dict


def _predictions(packet: VonMisesPacket, hbar: float) -> PacketPrediction:
    n, kappa = packet.n, packet.kappa
    i0, i1, _, h = von_mises(kappa)
    r = i1 / i0
    # variance along the packet's own axis, 1/2 at kappa = 0
    along2 = r / kappa if r else 0.5
    # variance on the conjugate axis: 1 - r/kappa - r^2 cancels as r nears
    # 1, where h_alpha/(kappa r) does not; h_alpha ~ kappa^2/4 underflows
    # as kappa nears 0, where 1 - r/kappa - r^2 is at least 0.3
    across2 = 1.0 - along2 - r * r if abs(kappa) < 1.0 else h / (kappa * r)
    try:
        lz2 = kappa * (0.5 * n * hbar) ** 2 * r
    except OverflowError:             # float ** raises where * gives inf
        lz2 = math.inf
    if not math.isfinite(lz2):
        raise OverflowError(f"sigma_Lz^2 prediction at n={n} overflows "
                            f"float64 (hbar={hbar!r}); use a smaller hbar")
    # 1/sqrt(2 pi I0(kappa)) from the scaled I0: no overflow at any kappa
    norm = math.exp(-0.5 * abs(kappa)) / math.sqrt(TWO_PI * i0)
    if packet.axis is Axis.X:
        return PacketPrediction(ex=0.0, ey=r, sigma_x2=along2,
                                sigma_y2=across2, sigma_lz2=lz2,
                                norm_const=norm)
    # -cos profile: density concentrates where cos(n phi) = -sign(kappa)
    return PacketPrediction(ex=-r, ey=0.0, sigma_x2=across2,
                            sigma_y2=along2, sigma_lz2=lz2, norm_const=norm)


# per-order phase of the Jacobi-Anger coefficient: (-i)^k for sin, (-1)^k
# for -cos, indexed by k mod 4
_ORDER_PHASE = {Axis.X: np.array([1.0, -1j, -1.0, 1j]),
                Axis.Y: np.array([1.0, -1.0, 1.0, -1.0])}


def _packet(axis: Axis, n: int, m: int,
            kappa: float) -> tuple[VonMisesPacket, CircleState]:
    if n < 1:
        raise ValueError("harmonic index n must be >= 1")
    if not math.isfinite(kappa):
        raise ValueError("concentration must be finite")
    if abs(m) > MAX_MODE:
        raise ResolutionError(
            f"mode index {abs(m)} exceeds the cap {MAX_MODE}")
    # orders up to (MAX_MODE - |m|)//n keep every mode n k + m within the cap
    ik = ik_scaled(0.5 * kappa, (MAX_MODE - abs(m)) // n)
    if ik is None:
        raise ResolutionError(
            f"concentration {kappa} needs modes beyond the cap {MAX_MODE}")
    order = np.arange(1 - ik.size, ik.size)
    amps = ik[np.abs(order)] * _ORDER_PHASE[axis][order % 4]
    state = _build(n * order + m, amps, 0.0)
    return VonMisesPacket(axis=axis, n=n, m=m, kappa=kappa), state


def mwp_x(n: int, m: int, alpha: float) -> tuple[VonMisesPacket, CircleState]:
    """Minimum wave packet for the X_n bound: exp[(alpha/2) sin(n phi) + i m phi].

    Returns the packet's parameters and the normalized state.  alpha = 0
    gives the uniform profile; negative alpha is the positive packet
    rotated by pi/n.  Raises ``ResolutionError`` when the kept
    coefficients need a mode beyond ``state.MAX_MODE``.
    """
    return _packet(Axis.X, n, m, alpha)


def mwp_y(n: int, m: int, beta: float) -> tuple[VonMisesPacket, CircleState]:
    """Minimum wave packet for the Y_n bound: exp[-(beta/2) cos(n phi) + i m phi].

    Equals ``mwp_x(n, m, beta)`` rotated by pi/(2n) up to a global phase.
    """
    return _packet(Axis.Y, n, m, beta)


def verify_packet(packet: VonMisesPacket, state: CircleState,
                  config: Config = DEFAULT_CONFIG) -> PacketVerification:
    """Compare measured moments of the state against the packet's
    closed-form predictions, both in ``config.hbar``.

    Raises ``OverflowError`` naming the sigma_Lz^2 prediction when it
    overflows float64 (a huge hbar).  Measures <Xn>, <Yn>, sigma_Xn^2,
    sigma_Yn^2, sigma_Lz^2 and <Lz> on the state, and checks the
    self-consistency of the concentration (the ratio of the transverse
    mean to the along-axis variance reproduces kappa).
    The measured kappa carries a relative rounding error, so its delta
    passes within tol * max(1, |kappa|); every other delta within tol =
    ``config.cmp_tol``.  A mismatch is reported, not raised.
    """
    n, tol = packet.n, config.cmp_tol
    pred = _predictions(packet, config.hbar)
    ex, ey = expect_xy(state, n)
    sx, sy = sigma_xy(state, n)
    slz = sigma_lz(state, config)
    measured = {"ex": ex, "ey": ey, "sigma_x2": sx * sx, "sigma_y2": sy * sy,
                "sigma_lz2": slz * slz, "lz": expect_lz(state, config)}
    deltas = {key: measured[key] - getattr(pred, key) for key in measured
              if key != "lz"}
    deltas["lz"] = measured["lz"] - packet.m * config.hbar
    if packet.axis is Axis.X:
        deltas["kappa"] = ey / measured["sigma_x2"] - packet.kappa
    else:
        deltas["kappa"] = -ex / measured["sigma_y2"] - packet.kappa
    ok = (all(abs(deltas[key]) <= tol for key in measured)
          and abs(deltas["kappa"]) <= tol * max(1.0, abs(packet.kappa)))
    return PacketVerification(ok=ok, tol=tol, predicted=pred, deltas=deltas,
                              measured=measured)
