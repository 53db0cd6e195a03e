"""Normalized wavefunctions on the circle as finite Fourier sums.

A state is psi(phi) = sum_m c_m exp(i (m + theta/2pi) phi) / sqrt(2 pi)
with sum |c_m|^2 = 1.  The boundary phase theta makes the state
quasi-periodic, psi(phi + 2pi) = exp(i theta) psi(phi); theta = 0 is the
strictly periodic case and theta = pi the anti-periodic one (half-odd
effective angular momenta).  The Fourier representation keeps angular
momentum moments exact diagonal sums and all trigonometric expectation
values exact autocorrelations.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import AliasingError, DegenerateStateError, ResolutionError

__all__ = [
    "Config",
    "DEFAULT_CONFIG",
    "CircleState",
    "from_fourier",
    "from_samples",
    "random_state",
    "uniform_state",
    "superposition_state",
    "sin_half_power_state",
    "cos_harmonic_state",
    "dump_state",
    "load_state",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Config:
    """Numerical policy shared by constructors and observables.

    hbar sets the angular momentum scale, grid_size the default sampling
    grid (power of two, at least 4 * max mode + 4 when sampling),
    trunc_tol the spectral-tail truncation level, cmp_tol the comparison
    tolerance for verdicts, and max_mode the hard cap on mode indices.
    """

    hbar: float = 1.0
    grid_size: int = 4096
    trunc_tol: float = 1e-12
    cmp_tol: float = 1e-9
    max_mode: int = 512

    def __post_init__(self):
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError("hbar must be positive and finite")
        if self.grid_size < 4 or self.grid_size & (self.grid_size - 1):
            raise ValueError("grid_size must be a power of two >= 4")
        if not 0 < self.trunc_tol < 1:
            raise ValueError("trunc_tol must lie in (0, 1)")
        if not 0 < self.cmp_tol < 1:
            raise ValueError("cmp_tol must lie in (0, 1)")
        if self.max_mode < 0:
            raise ValueError("max_mode must be non-negative")


DEFAULT_CONFIG = Config()


@dataclass(frozen=True, eq=False)
class CircleState:
    """Immutable normalized state on the circle.

    Attributes
    ----------
    modes : ndarray of int
        Sorted mode indices m with nonzero amplitude.
    amps : ndarray of complex
        Amplitudes c_m aligned with ``modes``; sum |c_m|^2 = 1.
    theta : float
        Boundary phase in [0, 2pi); the effective mode exponent is
        mu = m + theta/2pi.
    hbar : float
        Angular momentum unit used by all observables of this state.
    """

    modes: np.ndarray
    amps: np.ndarray
    theta: float
    hbar: float

    @property
    def mu(self) -> np.ndarray:
        """Effective (possibly fractional) mode exponents m + theta/2pi."""
        return self.modes + self.theta / TWO_PI

    @property
    def is_periodic(self) -> bool:
        return self.theta == 0.0

    @property
    def max_abs_mode(self) -> int:
        return int(np.max(np.abs(self.modes)))

    @property
    def mode_span(self) -> int:
        """Largest lag with a possibly nonzero coefficient autocorrelation."""
        return int(self.modes[-1] - self.modes[0])

    @cached_property
    def harmonics(self) -> np.ndarray:
        """Density harmonics rho_k = sum_m c_{m+k} conj(c_m), k = 0 .. span.

        rho(phi) = (1/2pi) sum_k rho_k exp(i k phi) with rho_{-k} =
        conj(rho_k), the same for every boundary phase.  Computed once per
        state; ``rotate`` and ``replace`` build a new state, which starts
        without the cache.  Read-only.
        """
        offsets = self.modes - self.modes[0]
        # modes on a stride-g lattice put every harmonic on multiples of g
        stride = int(np.gcd.reduce(offsets)) or 1
        dense = np.zeros(self.mode_span // stride + 1, dtype=complex)
        dense[offsets // stride] = self.amps
        full = np.correlate(dense, dense, mode="full")
        rho = np.zeros(self.mode_span + 1, dtype=complex)
        # np.correlate lags run from -(L-1) to L-1; lag j sits at index L-1+j
        rho[::stride] = full[dense.size - 1 :]
        rho.setflags(write=False)
        return rho

    def coeffs(self) -> dict:
        return {int(m): complex(a) for m, a in zip(self.modes, self.amps)}

    def evaluate(self, phi):
        """psi(phi) for scalar or array phi."""
        phi_arr = np.asarray(phi, dtype=float)
        scalar = phi_arr.ndim == 0
        flat = np.atleast_1d(phi_arr).ravel()
        out = np.empty(flat.shape, dtype=complex)
        mu = self.mu
        # blockwise to bound the phi x mode phase matrix
        block = max(1, 2**22 // max(len(mu), 1))
        for start in range(0, len(flat), block):
            chunk = flat[start : start + block]
            phases = np.exp(1j * np.outer(chunk, mu))
            out[start : start + block] = phases @ self.amps
        out /= math.sqrt(TWO_PI)
        if scalar:
            return complex(out[0])
        return out.reshape(phi_arr.shape)

    def density(self, phi):
        """|psi(phi)|^2; 2pi-periodic for every boundary phase."""
        val = self.evaluate(phi)
        if isinstance(val, complex):
            return abs(val) ** 2
        return np.abs(val) ** 2

    def rotate(self, delta: float) -> "CircleState":
        """State with psi'(phi) = psi(phi - delta); norm preserved."""
        if not math.isfinite(delta):
            raise ValueError("rotation angle must be finite")
        amps = self.amps * np.exp(-1j * self.mu * delta)
        amps.setflags(write=False)
        return replace(self, amps=amps)


def _reduce_theta(theta: float) -> float:
    theta = math.fmod(theta, TWO_PI)
    if theta < 0.0:
        theta += TWO_PI
    if abs(theta) < 1e-15 or abs(theta - TWO_PI) < 1e-15:
        theta = 0.0
    return theta


def _build(modes, amps, theta, config: Config) -> CircleState:
    raw = np.asarray(modes)
    if raw.dtype.kind not in "iu" and not np.all(raw == np.round(raw)):
        raise ValueError("mode indices must be integers")
    modes = np.array(raw, dtype=np.int64)
    amps = np.array(amps, dtype=complex)
    keep = amps != 0
    modes, amps = modes[keep], amps[keep]
    if modes.size == 0:
        raise DegenerateStateError("state has no nonzero coefficient")
    order = np.argsort(modes)
    modes, amps = modes[order], amps[order]
    if np.max(np.abs(modes)) > config.max_mode:
        raise ResolutionError(
            f"mode index {int(np.max(np.abs(modes)))} exceeds the cap "
            f"{config.max_mode}"
        )
    norm2 = float(np.sum(np.abs(amps) ** 2))
    if not math.isfinite(norm2) or norm2 <= 0.0:
        raise DegenerateStateError("state norm is zero or not finite")
    if abs(norm2 - 1.0) > 1e-15:
        amps = amps / math.sqrt(norm2)
    modes.setflags(write=False)
    amps.setflags(write=False)
    return CircleState(modes=modes, amps=amps, theta=_reduce_theta(theta),
                       hbar=config.hbar)


def from_fourier(coeffs, theta: float = 0.0,
                 config: Config = DEFAULT_CONFIG) -> CircleState:
    """Build a state from a mode -> amplitude map.

    Parameters
    ----------
    coeffs : dict or iterable of (mode, amplitude)
        At least one amplitude must be nonzero; the result is normalized
        to unit total weight.
    theta : float
        Boundary phase, reduced mod 2pi.
    """
    if isinstance(coeffs, dict):
        items = sorted(coeffs.items())
    else:
        items = sorted(coeffs)
    if not items:
        raise DegenerateStateError("empty coefficient map")
    modes = [m for m, _ in items]
    amps = [a for _, a in items]
    return _build(modes, amps, theta, config)


def from_samples(values, theta: float = 0.0,
                 config: Config = DEFAULT_CONFIG) -> CircleState:
    """Build a state from equispaced samples of its periodic part.

    ``values[j]`` must hold u(phi_j) = psi(phi_j) exp(-i theta phi_j/2pi)
    at phi_j = 2 pi j / N (the quasi-periodic factor removed, so u is
    strictly 2pi-periodic).  Transform coefficients below ``trunc_tol``
    of the norm are truncated and the rest normalized.

    Raises
    ------
    AliasingError
        If the top decile of representable modes carries more than
        ``trunc_tol`` of the total weight: the function is not resolved
        at this N.
    """
    u = np.asarray(values, dtype=complex)
    if u.ndim != 1 or u.size < 4:
        raise ValueError("need a 1-D array of at least 4 samples")
    n = u.size
    spectrum = np.fft.fft(u) * (math.sqrt(TWO_PI) / n)
    # index k of the FFT bin maps to mode k for k < N/2, k - N otherwise
    modes = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
    weight = np.abs(spectrum) ** 2
    total = float(weight.sum())
    if total <= 0.0:
        raise DegenerateStateError("all samples are zero")
    top_band = np.abs(modes) >= 0.45 * n
    if float(weight[top_band].sum()) > config.trunc_tol * total:
        raise AliasingError(
            f"top modes carry {weight[top_band].sum() / total:.3e} of the "
            f"weight at N={n}; increase the grid"
        )
    # drop coefficients below trunc_tol of the norm; the dropped amplitudes
    # sum to well under the 1e-10 pointwise round-trip budget
    keep = weight > (config.trunc_tol**2) * total
    return _build(modes[keep], spectrum[keep], theta, config)


def random_state(max_mode: int, seed: int,
                 config: Config = DEFAULT_CONFIG) -> CircleState:
    """Reproducible random state on modes |m| <= max_mode, theta = 0."""
    if max_mode < 0:
        raise ValueError("max_mode must be >= 0")
    rng = np.random.default_rng(seed)
    n = 2 * max_mode + 1
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    modes = np.arange(-max_mode, max_mode + 1)
    return _build(modes, amps, 0.0, config)


def uniform_state(config: Config = DEFAULT_CONFIG) -> CircleState:
    """The constant-amplitude state |psi| = 1/sqrt(2 pi)."""
    return from_fourier({0: 1.0}, 0.0, config)


def superposition_state(k: int, m: int,
                        config: Config = DEFAULT_CONFIG) -> CircleState:
    """Equal superposition of two angular momentum eigenmodes k != m."""
    if k == m:
        raise ValueError("the two mode indices must differ")
    return from_fourier({k: 1.0, m: 1.0}, 0.0, config)


def sin_half_power_state(n: int, config: Config = DEFAULT_CONFIG) -> CircleState:
    """Normalized sin(phi/2)**n state, built from its exact binomial modes.

    Odd powers are anti-periodic and carry boundary phase pi
    (half-odd-integer effective modes); even powers are periodic.
    """
    if n < 1:
        raise ValueError("power must be >= 1")
    # sin^n(phi/2) = (2i)^-n sum_j C(n,j) (-1)^(n-j) exp(i (j - n/2) phi)
    scale = (1.0 / 2j) ** n
    coeffs = {}
    if n % 2 == 0:
        theta = 0.0
        offset = n // 2
    else:
        theta = math.pi
        offset = (n + 1) // 2  # mode m has exponent m + 1/2 = j - n/2
    for j in range(n + 1):
        amp = scale * math.comb(n, j) * (-1) ** (n - j)
        coeffs[j - offset] = amp
    return from_fourier(coeffs, theta, config)


def cos_harmonic_state(j: int, config: Config = DEFAULT_CONFIG) -> CircleState:
    """Normalized cos(j phi)/sqrt(pi) state (equal weight on modes +-j)."""
    if j < 1:
        raise ValueError("harmonic index must be >= 1")
    return from_fourier({j: 1.0, -j: 1.0}, 0.0, config)


def dump_state(state: CircleState) -> str:
    """Serialize to the text record: `theta <v>` then `m re im` lines.

    All values use 17 significant digits, enough for exact float64
    round-trips.
    """
    lines = [f"theta {state.theta:.17g}"]
    for m, a in zip(state.modes, state.amps):
        lines.append(f"{int(m)} {a.real:.17g} {a.imag:.17g}")
    return "\n".join(lines) + "\n"


def load_state(text: str, config: Config = DEFAULT_CONFIG) -> CircleState:
    """Parse the text record produced by :func:`dump_state`.

    Raises ``ValueError`` naming the offending line on malformed input and
    ``DegenerateStateError`` when the parsed state cannot be normalized.
    """
    theta = None
    modes, amps = [], []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if theta is None:
            if parts[0] != "theta" or len(parts) != 2:
                raise ValueError(
                    f"line {lineno}: expected header 'theta <value>'")
            try:
                theta = float(parts[1])
            except ValueError:
                raise ValueError(f"line {lineno}: bad theta value") from None
            continue
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'm re im'")
        try:
            m = int(parts[0])
            re, im = float(parts[1]), float(parts[2])
        except ValueError:
            raise ValueError(f"line {lineno}: bad numeric field") from None
        if m in seen:
            raise ValueError(f"line {lineno}: duplicate mode {m}")
        seen.add(m)
        modes.append(m)
        amps.append(complex(re, im))
    if theta is None:
        raise ValueError("line 1: missing 'theta' header")
    if not modes:
        raise DegenerateStateError("state file lists no coefficients")
    return _build(modes, amps, theta, config)
