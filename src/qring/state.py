"""Normalized wavefunctions on the circle as finite Fourier sums.

A state is psi(phi) = sum_m c_m exp(i (m + theta/2pi) phi) / sqrt(2 pi)
with sum |c_m|^2 = 1.  The boundary phase theta makes the state
quasi-periodic, psi(phi + 2pi) = exp(i theta) psi(phi); theta = 0 is the
strictly periodic case and theta = pi the anti-periodic one (half-odd
effective angular momenta).  A state is only this wavefunction: its
modes, amplitudes and theta, with every |m| at most ``MAX_MODE``.  Units
and tolerances live in ``Config``, passed to the measurements that read
them.  The Fourier representation keeps angular momentum moments exact
diagonal sums and all trigonometric expectation values exact
autocorrelations.  Each state computes them once and caches them:
``CircleState.lz_moments`` holds the mean and the centred variance of
the exponents, ``CircleState.harmonics`` the density harmonics and
``CircleState.resultants`` their moduli R_k.  Point values are direct
sums over the modes through the phase tables of ``_phase_sums``: each row
of a table is a running product, exp(i mu_0 phi) times exp(i g phi) for
each gap g between neighbouring modes, so a point costs one exp per
distinct gap rather than one per mode, and a sparse mode set builds one
column per mode, never the lattice between its modes.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import DegenerateStateError, ResolutionError

__all__ = [
    "MAX_MODE",
    "Config",
    "DEFAULT_CONFIG",
    "CircleState",
    "from_fourier",
    "random_state",
    "uniform_state",
    "superposition_state",
    "sin_half_power_state",
    "cos_harmonic_state",
    "dump_state",
    "load_state",
]

TWO_PI = 2.0 * math.pi

_PHASE_BLOCK = 2**16  # entries of one phase table: 1 MiB of complex128

MAX_MODE = 512  # the hard cap on |m| of every state


def _phase_table(x: np.ndarray, ifreqs: np.ndarray,
                 columns: np.ndarray) -> np.ndarray:
    """The table exp(1j * outer(x, f)) of the points x (rows) and the
    frequencies f (columns), as running products along each row.

    ``ifreqs`` holds 1j times f_0 and each distinct step f_j - f_{j-1};
    with e = exp(outer(x, ifreqs)), column j is the product
    e[:, columns[0]] * ... * e[:, columns[j]].  That is one exp per point
    and entry of ifreqs, not one per entry of the table.  A product of j
    rounded factors is off by about j ulp; a direct exp of the rounded
    argument f_j x is off by about |f_j x| ulp.
    """
    # take, not [:, columns], which would lay the table out in F order
    table = np.exp(x[:, None] * ifreqs).take(columns, axis=1)
    return np.multiply.accumulate(table, axis=1, out=table)


def _phase_sums(points: np.ndarray, ifreqs: np.ndarray, columns: np.ndarray,
                weights) -> list:
    """The sums sum_j w[j] exp(1j * points * f_j), one array per weight
    vector w, for the 1-d points and the frequencies f of
    ``_phase_table``, in tables of about ``_PHASE_BLOCK`` entries.

    numpy sends a one-row product to BLAS dot and longer ones to gemv,
    which round differently; so a table has two rows at least (a lone
    last row joins the one before, a single point is summed twice), and
    no value depends on the bound or on the other points.
    """
    x = points.repeat(2) if points.size == 1 else points
    out = [np.empty(x.size, dtype=complex) for _ in weights]
    rows = max(2, _PHASE_BLOCK // max(columns.size, 1))
    stops = [*range(rows, x.size - 1, rows), x.size]
    for start, stop in zip([0, *stops], stops):
        table = _phase_table(x[start:stop], ifreqs, columns)
        for sums, w in zip(out, weights):
            sums[start:stop] = table @ w
    return [sums[:points.size] for sums in out]


@dataclass(frozen=True)
class Config:
    """Units and tolerances, their one home: hbar sets the angular momentum
    scale and cmp_tol the comparison tolerance for verdicts.  Only the
    functions that read one of them take a Config; a state carries none.
    """

    hbar: float = 1.0
    cmp_tol: float = 1e-9

    def __post_init__(self):
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError("hbar must be positive and finite")
        if not 0 < self.cmp_tol < 1:
            raise ValueError("cmp_tol must lie in (0, 1)")


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
        mu = m + theta/2pi, read only by ``evaluate`` (so ``density``),
        ``rotate`` and ``observables.expect_lz``; every other measurement
        equals the periodic twin's (theta = 0) bit for bit.
    """

    modes: np.ndarray
    amps: np.ndarray
    theta: float

    @property
    def mu(self) -> np.ndarray:
        """Effective (possibly fractional) mode exponents m + theta/2pi."""
        return self.modes + self.theta / TWO_PI

    @property
    def is_periodic(self) -> bool:
        return self.theta == 0.0

    @property
    def mode_span(self) -> int:
        """Largest lag with a possibly nonzero coefficient autocorrelation."""
        return int(self.modes[-1] - self.modes[0])

    @cached_property
    def harmonics(self) -> np.ndarray:
        """Density harmonics rho_k = sum_m c_{m+k} conj(c_m), k = 0 .. span.

        rho(phi) = (1/2pi) sum_k rho_k exp(i k phi) with rho_{-k} =
        conj(rho_k), the same for every boundary phase.  A contiguous mode
        set (every m from the lowest to the highest) correlates ``amps``
        as it is; any other is first scattered onto the lattice of the
        gcd of its offsets, so the input holds the same values either way.
        Computed once per state; ``rotate`` and ``replace`` build a new
        state, which starts without the cache.  Read-only.
        """
        if self.modes.size == self.mode_span + 1:
            dense, stride = self.amps, 1
        else:
            offsets = self.modes - self.modes[0]
            # a stride-g lattice puts every harmonic on multiples of g
            stride = int(np.gcd.reduce(offsets))
            dense = np.zeros(self.mode_span // stride + 1, dtype=complex)
            dense[offsets // stride] = self.amps
        full = np.correlate(dense, dense, mode="full")
        rho = np.zeros(self.mode_span + 1, dtype=complex)
        # np.correlate lags run from -(L-1) to L-1; lag j sits at index L-1+j
        rho[::stride] = full[dense.size - 1 :]
        rho.setflags(write=False)
        return rho

    @cached_property
    def resultants(self) -> np.ndarray:
        """R_k = |rho_k|, k = 0 .. span, by C hypot: the bits of
        ``observables.mean_resultant`` (np.abs of a complex array may
        differ from it in the last bit).  Computed once per state, like
        ``harmonics``.  Read-only.
        """
        rho = self.harmonics
        r = np.hypot(rho.real, rho.imag)
        r.setflags(write=False)
        return r

    @cached_property
    def lz_moments(self) -> tuple[float, float]:
        """(<L_z>/hbar, sigma_Lz^2/hbar^2) = (m1 + theta/2pi,
        sum w (m - m1)^2 / sum w) with w = |c|^2 and m1 = sum m w.

        The centred sum over the integer modes is free of the cancellation
        in sum m^2 w - m1^2 (a rotated eigenstate has zero spread to
        rounding) and of theta (a quasi-periodic state has its periodic
        twin's variance bit for bit).  Computed once per state, like
        ``harmonics``; ``rotate`` and ``replace`` build a new state, which
        starts without the cache.
        """
        w = np.abs(self.amps) ** 2
        m1 = float((self.modes * w).sum())
        d = self.modes - m1
        return m1 + self.theta / TWO_PI, float((d * d * w).sum() / w.sum())

    @cached_property
    def _phase_steps(self) -> tuple[np.ndarray, np.ndarray]:
        """(ifreqs, columns) of ``_phase_table`` for the exponents mu:
        1j * (mu_0, then the distinct gaps between neighbouring modes),
        and the index of mu_0 and of each gap in it.  Computed once per
        state, so a point evaluation pays no sort."""
        gaps, index = np.unique(np.diff(self.modes), return_inverse=True)
        ifreqs = 1j * np.concatenate(([self.mu[0]], gaps))
        return ifreqs, np.concatenate(([0], 1 + index))

    def coeffs(self) -> dict:
        return {int(m): complex(a) for m, a in zip(self.modes, self.amps)}

    def evaluate(self, phi):
        """psi(phi) in the shape of phi; a scalar gives an np.complex128."""
        phi = np.asarray(phi, dtype=float)
        (out,) = _phase_sums(phi.ravel(), *self._phase_steps, (self.amps,))
        out /= math.sqrt(TWO_PI)
        return out.reshape(phi.shape)[()]

    def density(self, phi):
        """|psi(phi)|^2; 2pi-periodic for every boundary phase."""
        return np.abs(self.evaluate(phi)) ** 2

    def rotate(self, delta: float) -> "CircleState":
        """State with psi'(phi) = psi(phi - delta); norm preserved."""
        if not math.isfinite(delta):
            raise ValueError("rotation angle must be finite")
        amps = self.amps * np.exp(-1j * self.mu * delta)
        amps.setflags(write=False)
        return replace(self, amps=amps)


def _reduce_theta(theta: float) -> float:
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    theta = math.fmod(theta, TWO_PI)
    if theta < 0.0:
        theta += TWO_PI
    if abs(theta) < 1e-15 or abs(theta - TWO_PI) < 1e-15:
        theta = 0.0
    return theta


def _build(modes, amps, theta) -> CircleState:
    raw = np.asarray(modes)
    if raw.dtype.kind not in "iu":
        # floats, or Python ints past int64 in an object array, which
        # np.round refuses; an infinite mode leaves a nan remainder
        with np.errstate(invalid="ignore"):
            integral = (raw % 1 == 0).all()
        if not integral:
            raise ValueError("mode indices must be integers")
    amps = np.array(amps, dtype=complex)
    keep = amps != 0
    raw, amps = raw[keep], amps[keep]
    if raw.size == 0:
        raise DegenerateStateError("state has no nonzero coefficient")
    order = raw.argsort()
    raw, amps = raw[order], amps[order]
    # the cap is checked on the input values, which int64 could wrap
    low, high = raw[0], raw[-1]
    if low < -MAX_MODE or high > MAX_MODE:
        raise ResolutionError(f"mode index {max(-int(low), int(high))} "
                              f"exceeds the cap {MAX_MODE}")
    modes = raw.astype(np.int64, copy=False)
    parts = amps.view(np.float64)  # real and imaginary parts, interleaved
    peak = float(np.abs(parts).max())
    if not math.isfinite(peak):
        raise DegenerateStateError("state has a non-finite amplitude")
    # divide by a power of two near the largest part before squaring, so
    # |a|^2 neither overflows nor underflows; a power of two scales
    # exactly, so where the unscaled sum would not overflow or underflow
    # the result is the same to the bit
    scale = math.ldexp(1.0, math.frexp(peak)[1] - 1)
    scaled = (parts / scale).view(complex)
    norm2 = float((np.abs(scaled) ** 2).sum())
    if abs(norm2 * scale * scale - 1.0) > 1e-15:
        amps = scaled / math.sqrt(norm2)
    modes.setflags(write=False)
    amps.setflags(write=False)
    return CircleState(modes=modes, amps=amps, theta=_reduce_theta(theta))


def from_fourier(coeffs, theta: float = 0.0) -> CircleState:
    """Build a state from a mode -> amplitude map.

    Parameters
    ----------
    coeffs : dict or iterable of (mode, amplitude)
        At least one amplitude must be nonzero; the result is normalized
        to unit total weight.  A mode listed twice raises ValueError.
    theta : float
        Boundary phase, reduced mod 2pi.
    """
    pairs = coeffs.items() if isinstance(coeffs, dict) else coeffs
    items = sorted(pairs, key=lambda item: item[0])
    if not items:
        raise DegenerateStateError("empty coefficient map")
    modes = [m for m, _ in items]
    amps = [a for _, a in items]
    for m, following in zip(modes, modes[1:]):
        if m == following:
            raise ValueError(f"duplicate mode {m}")
    return _build(modes, amps, theta)


def random_state(max_mode: int, seed: int) -> CircleState:
    """Reproducible random state on modes |m| <= max_mode, theta = 0."""
    if max_mode < 0:
        raise ValueError("max_mode must be >= 0")
    rng = np.random.default_rng(seed)
    n = 2 * max_mode + 1
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    modes = np.arange(-max_mode, max_mode + 1)
    return _build(modes, amps, 0.0)


def uniform_state() -> CircleState:
    """The constant-amplitude state |psi| = 1/sqrt(2 pi)."""
    return from_fourier({0: 1.0}, 0.0)


def superposition_state(k: int, m: int) -> CircleState:
    """Equal superposition of two angular momentum eigenmodes k != m."""
    if k == m:
        raise ValueError("the two mode indices must differ")
    return from_fourier({k: 1.0, m: 1.0}, 0.0)


def sin_half_power_state(n: int) -> CircleState:
    """Normalized sin(phi/2)**n state, built from its exact binomial modes.

    Odd powers are anti-periodic and carry boundary phase pi
    (half-odd-integer effective modes); even powers are periodic.
    Raises ``ResolutionError`` past the mode cap, n > 2 MAX_MODE.
    """
    if n < 1:
        raise ValueError("power must be >= 1")
    # the widest mode, before any binomial overflows float64 (n >= 1030)
    if (n + 1) // 2 > MAX_MODE:
        raise ResolutionError(
            f"mode index {(n + 1) // 2} exceeds the cap {MAX_MODE}")
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
    return from_fourier(coeffs, theta)


def cos_harmonic_state(j: int) -> CircleState:
    """Normalized cos(j phi)/sqrt(pi) state (equal weight on modes +-j)."""
    if j < 1:
        raise ValueError("harmonic index must be >= 1")
    return from_fourier({j: 1.0, -j: 1.0}, 0.0)


def dump_state(state: CircleState) -> str:
    """Serialize to the text record: `theta <v>` then `m re im` lines.

    All values use 17 significant digits, enough for exact float64
    round-trips.  The rows are formatted from the columns as Python
    scalars, one format call per row.
    """
    rows = zip(state.modes.tolist(), state.amps.real.tolist(),
               state.amps.imag.tolist())
    return (f"theta {state.theta:.17g}\n"
            + "".join(["%d %.17g %.17g\n" % row for row in rows]))


def _parse_columns(fields) -> tuple | None:
    """(modes, amps) of the split data lines, converted as columns by
    ``int`` and ``float``: the modes into a list, the (re, im) pairs into
    one float64 array read as complex128.  None when any line is
    malformed or repeats a mode."""
    if set(map(len, fields)) != {3}:
        return None
    flat = list(chain.from_iterable(fields))  # m, re, im, m, re, im, ...
    try:
        modes = list(map(int, flat[::3]))
        del flat[::3]
        parts = np.fromiter(map(float, flat), float, len(flat))
    except ValueError:
        return None
    if len(set(modes)) < len(modes):
        return None
    return modes, parts.view(complex)


def _first_fault(rows) -> ValueError:
    """The error naming the first malformed line among the (line number,
    fields) data lines, walked in file order.  It repeats each check of
    ``_parse_columns`` per line, so it finds a fault wherever that returns
    None."""
    seen = set()
    for lineno, fields in rows:
        if len(fields) != 3:
            return ValueError(f"line {lineno}: expected 'm re im'")
        try:
            m = int(fields[0])
            float(fields[1]), float(fields[2])
        except ValueError:
            return ValueError(f"line {lineno}: bad numeric field")
        if m in seen:
            return ValueError(f"line {lineno}: duplicate mode {m}")
        seen.add(m)


def load_state(text: str) -> CircleState:
    """Parse the text record produced by :func:`dump_state`.

    Raises ``ValueError`` naming the offending line on malformed input and
    ``DegenerateStateError`` when the parsed state cannot be normalized.
    Blank lines and lines starting with ``#`` are skipped.  The data lines
    are converted as columns; only a file that fails a check is walked
    line by line, to name its first bad line.
    """
    rows = [(lineno, fields) for lineno, fields in
            enumerate(map(str.split, text.splitlines()), start=1)
            if fields and fields[0][0] != "#"]
    if not rows:
        raise ValueError("line 1: missing 'theta' header")
    (lineno, header), data = rows[0], rows[1:]
    if header[0] != "theta" or len(header) != 2:
        raise ValueError(f"line {lineno}: expected header 'theta <value>'")
    try:
        theta = float(header[1])
    except ValueError:
        raise ValueError(f"line {lineno}: bad theta value") from None
    if not data:
        raise DegenerateStateError("state file lists no coefficients")
    columns = _parse_columns([fields for _, fields in data])
    if columns is None:
        raise _first_fault(data)
    modes, amps = columns
    return _build(modes, amps, theta)
