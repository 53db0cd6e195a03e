"""Independent checks of the outputs the workloads recorded.

Every oracle works from the Fourier coefficients the benchmark generated and
from the text qring printed; none calls qring.  scipy is imported on first
use, after the timed loop.
"""

import json
import math

import numpy as np

TWO_PI = 2.0 * math.pi
QUAD = {"limit": 200, "epsabs": 1e-13, "epsrel": 1e-12}


def density(modes, amps):
    """rho(phi) = |sum_m c_m exp(i m phi)|^2 / (2 pi sum |c_m|^2)."""
    modes = np.asarray(modes, dtype=float)
    amps = np.asarray(amps, dtype=complex)
    scale = 1.0 / (TWO_PI * float(np.sum(np.abs(amps) ** 2)))

    def rho(phi):
        return abs(np.dot(amps, np.exp(1j * modes * phi))) ** 2 * scale

    return rho


def quad(f, a, b):
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(f, a, b, **QUAD)[0]


def window_moments(modes, amps, beta):
    """(<phi>, sigma_phi) over [beta, beta + 2 pi] by adaptive quadrature."""
    rho = density(modes, amps)
    m1 = quad(lambda p: p * rho(p), beta, beta + TWO_PI)
    m2 = quad(lambda p: p * p * rho(p), beta, beta + TWO_PI)
    return m1, math.sqrt(max(m2 - m1 * m1, 0.0))


def sigma_lz(modes, amps):
    w = np.abs(np.asarray(amps)) ** 2
    w /= w.sum()
    mu = np.asarray(modes, dtype=float)
    m1 = float(np.dot(mu, w))
    return math.sqrt(max(float(np.dot(mu * mu, w)) - m1 * m1, 0.0))


def sweep_sample_ok(modes, amps, reports, tol=1e-8):
    """Each (kind, n, lhs, rhs) of a periodic state matches an independent
    evaluation: moments from the sampled density, sigma_phi by quadrature."""
    h = harmonics(modes, amps)
    slz = sigma_lz(modes, amps)

    def at(k):
        return h[k - 1] if k <= h.size else 0j

    for kind, n, lhs, rhs in reports:
        hn, h2n = at(n), at(2 * n)
        if kind == "X_AXIS":
            var = 0.5 * (1.0 + h2n.real) - hn.real ** 2
            want = (math.sqrt(max(var, 0.0)) * slz, 0.5 * n * abs(hn.imag))
        elif kind == "Y_AXIS":
            var = 0.5 * (1.0 - h2n.real) - hn.imag ** 2
            want = (math.sqrt(max(var, 0.0)) * slz, 0.5 * n * abs(hn.real))
        elif kind == "TOTAL":
            r = abs(hn)
            want = (math.sqrt(1.0 - r * r) / (n * r) * slz, 0.5)
        else:
            _, s_phi = window_moments(modes, amps, -math.pi)
            rho_pi = density(modes, amps)(math.pi)
            want = (s_phi * slz, 0.5 * (1.0 - TWO_PI * rho_pi))
        if max(abs(lhs - want[0]), abs(rhs - want[1])) > tol * max(
                1.0, abs(want[0])):
            return False
    return True


def check_scan(text, kind, modes, amps):
    """63 rows; uniform mean is beta + pi, else the shift identity holds.

    Moving the window start from b to b' moves the weight on [b, b') by
    2 pi, so <phi>_b' - <phi>_b = 2 pi int_b^b' rho.
    """
    lines = text.splitlines()
    if lines[0] != "beta,mean_phi_beta,sigma_phi_beta" or len(lines) != 64:
        return False
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    beta, mean, sigma = rows.T
    if kind == "uniform":
        tol = 1e-12 * (1.0 + np.abs(beta))
        return bool(np.all(np.abs(mean - (beta + math.pi)) <= tol)
                    and np.all(np.abs(sigma - math.pi / math.sqrt(3)) <= 1e-12))
    m0, s0 = window_moments(modes, amps, beta[0])
    if abs(mean[0] - m0) > 1e-8 or abs(sigma[0] - s0) > 1e-8:
        return False
    rho = density(modes, amps)
    for j in range(len(beta) - 1):
        moved = TWO_PI * quad(rho, beta[j], beta[j + 1])
        if abs(mean[j + 1] - mean[j] - moved) > 1e-8:
            return False
    return True


def harmonics(modes, amps):
    """<exp(i n phi)> for n = 1 .. mode span, from the density sampled on a
    grid fine enough that no harmonic aliases."""
    modes = np.asarray(modes)
    span = int(modes[-1] - modes[0])
    size = 4
    while size < 4 * (span + 1):
        size *= 2
    coef = np.zeros(size, dtype=complex)
    coef[modes - modes[0]] = amps
    dens = np.abs(np.fft.ifft(coef) * size) ** 2
    dens /= dens.mean()
    return np.fft.ifft(dens)[1:span + 1]


def check_report(text, theta, modes, amps, fold, r_threshold=0.1, tol=1e-9):
    """Bounds hold; <X_n>, <Y_n>, R_n and the mean direction match the
    sampled density; fold symmetry is the constructed n; recommended n is
    the smallest n with R_n >= r_threshold."""
    payload = json.loads(text)
    checks = payload["uncertainty"]
    if len(checks) != 24 + (theta == 0.0) or not all(c["holds"] for c in checks):
        return False
    h = harmonics(modes, amps)
    for obs in payload["observables"]:
        hn = h[obs["n"] - 1] if obs["n"] <= h.size else 0j
        if max(abs(obs["ex"] - hn.real), abs(obs["ey"] - hn.imag),
               abs(obs["r_n"] - abs(hn))) > tol:
            return False
        if abs(h[0]) >= tol and abs(math.remainder(
                obs["mean_phi"] - np.angle(h[0]), TWO_PI)) > 1e-6:
            return False
    if payload["fold_symmetry"]["n"] != fold:
        return False
    big = np.flatnonzero(np.abs(h) >= r_threshold)
    expected = int(big[0]) + 1 if big.size else None
    return payload["recommended_n"] == expected


def check_packet_json(text, axis, n, m, kappa):
    payload = json.loads(text)
    return (payload["verification"]["ok"] is True and payload["axis"] == axis
            and payload["n"] == n and payload["m"] == m
            and payload["kappa"] == kappa)


def parse_state(text):
    lines = text.splitlines()
    head = lines[0].split()
    coeffs = {}
    for ln in lines[1:]:
        m, re, im = ln.split()
        coeffs[int(m)] = complex(float(re), float(im))
    return float(head[1]), coeffs


def jacobi_anger(axis, n, m, kappa, kmax=200):
    """Normalized coefficients of exp[(kappa/2) sin(n phi) + i m phi] (X) or
    exp[-(kappa/2) cos(n phi) + i m phi] (Y), by
    exp(z sin t) = sum_k I_k(z) (-i)^k e^{ikt} and
    exp(-z cos t) = sum_k (-1)^k I_k(z) e^{ikt}."""
    from scipy.special import ive
    k = np.arange(-kmax, kmax + 1)
    phase = (-1j) ** k if axis == "X" else (-1.0) ** k
    amps = ive(k, 0.5 * kappa) * phase
    amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2)))
    return dict(zip((n * k + m).tolist(), amps.tolist()))


def check_packet_state(text, axis, n, m, kappa, tol=1e-10):
    theta, emitted = parse_state(text)
    if theta != 0.0:
        return False
    exact = jacobi_anger(axis, n, m, kappa)
    err = max(abs(emitted.get(mode, 0j) - exact.get(mode, 0j))
              for mode in emitted.keys() | exact.keys())
    return err <= tol
