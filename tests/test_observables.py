"""Tests for qring.observables against quadrature and closed-form oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from qring.errors import UnsupportedStateError
from qring.observables import (
    angle_moments_beta,
    autocorrelation,
    compute_report,
    density_integral,
    density_spectrum,
    expect_lz,
    expect_xy,
    mean_angle,
    mean_resultant,
    sigma_lz,
    sigma_total,
    sigma_xy,
)
from qring.state import (
    cos_harmonic_state,
    from_fourier,
    random_state,
    sin_half_power_state,
    superposition_state,
    uniform_state,
)

TWO_PI = 2.0 * math.pi


def lz_moments_quadrature(state, nodes=8192):
    """Oracle: trapezoid quadrature of psi* (-i hbar d/dphi) psi.

    The derivative is taken spectrally (term by term), the integral by the
    trapezoid rule on a periodic integrand, independent of the diagonal-sum
    production path.
    """
    phi = TWO_PI * np.arange(nodes) / nodes
    mu = state.mu
    basis = np.exp(1j * np.outer(phi, mu)) / math.sqrt(TWO_PI)
    psi = basis @ state.amps
    dpsi = basis @ (1j * mu * state.amps)
    h = TWO_PI / nodes
    m1 = np.sum(np.conj(psi) * (-1j * state.hbar) * dpsi).real * h
    m2 = np.sum(np.abs(dpsi) ** 2) * state.hbar**2 * h
    return m1, m2


class TestExpectXY:
    def test_uniform(self):
        assert expect_xy(uniform_state(), 1) == pytest.approx((0.0, 0.0))

    def test_superposition_adjacent(self):
        assert expect_xy(superposition_state(3, 2), 1) == pytest.approx(
            (0.5, 0.0), abs=1e-15)

    def test_superposition_distant(self):
        assert expect_xy(superposition_state(5, 2), 1) == pytest.approx(
            (0.0, 0.0), abs=1e-15)

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    def test_sin_half_power_mean(self, p):
        ex, ey = expect_xy(sin_half_power_state(p), 1)
        assert ex == pytest.approx(-p / (p + 1), abs=1e-12)
        assert ey == pytest.approx(0.0, abs=1e-12)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            expect_xy(uniform_state(), 0)


class TestAngularMomentum:
    def test_eigenmode(self):
        s = from_fourier({3: 1.0})
        assert expect_lz(s) == pytest.approx(3.0)
        assert sigma_lz(s) == 0.0

    def test_cos_phi_mean(self):
        assert expect_lz(cos_harmonic_state(1)) == pytest.approx(0.0, abs=1e-15)

    def test_superposition_spread(self):
        for k, m in [(3, 2), (5, 2), (0, -4)]:
            assert sigma_lz(superposition_state(k, m)) == pytest.approx(
                abs(k - m) / 2, rel=1e-14)

    def test_cos_2phi_spread(self):
        assert sigma_lz(cos_harmonic_state(2)) == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_against_quadrature(self, seed):
        s = random_state(8, seed)
        m1, m2 = lz_moments_quadrature(s)
        assert expect_lz(s) == pytest.approx(m1, abs=1e-9)
        assert sigma_lz(s) == pytest.approx(math.sqrt(m2 - m1 * m1), abs=1e-9)

    def test_quasi_periodic_against_quadrature(self):
        s = sin_half_power_state(3)
        m1, m2 = lz_moments_quadrature(s)
        assert expect_lz(s) == pytest.approx(m1, abs=1e-9)
        assert sigma_lz(s) == pytest.approx(math.sqrt(m2 - m1 * m1), abs=1e-9)
        # closed form for sin^n(phi/2): (1/2) n / sqrt(2n - 1)
        assert sigma_lz(s) == pytest.approx(1.5 / math.sqrt(5), rel=1e-12)


class TestSigmaXY:
    def test_uniform(self):
        sx, sy = sigma_xy(uniform_state(), 1)
        assert sx == pytest.approx(1 / math.sqrt(2), rel=1e-14)
        assert sy == pytest.approx(1 / math.sqrt(2), rel=1e-14)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_variance_sum_identity(self, seed, n):
        # sigma_Xn^2 + sigma_Yn^2 = 1 - R_n^2, exact for Xn^2 + Yn^2 = 1
        s = random_state(8, seed)
        sx, sy = sigma_xy(s, n)
        r = mean_resultant(s, n)
        assert sx * sx + sy * sy == pytest.approx(1 - r * r, abs=1e-12)


class TestMeanResultant:
    def test_cos_phi(self):
        s = cos_harmonic_state(1)
        assert mean_resultant(s, 1) == pytest.approx(0.0, abs=1e-15)
        assert mean_resultant(s, 2) == pytest.approx(0.5, abs=1e-15)

    def test_cos_2phi(self):
        s = cos_harmonic_state(2)
        for k in (1, 2, 3):
            assert mean_resultant(s, k) == pytest.approx(0.0, abs=1e-15)
        assert mean_resultant(s, 4) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_bounds(self, seed):
        s = random_state(8, seed)
        for n in range(1, 9):
            r = mean_resultant(s, n)
            assert 0.0 <= r < 1.0


class TestMeanAngle:
    def test_uniform_undefined(self):
        assert mean_angle(uniform_state()) is None

    def test_sin_half(self):
        # <X> = -1/2 < 0, <Y> = 0: mean direction pi
        assert mean_angle(sin_half_power_state(1)) == pytest.approx(math.pi)

    def test_range_is_half_open(self):
        val = mean_angle(sin_half_power_state(1))
        assert -math.pi < val <= math.pi

    @pytest.mark.parametrize("delta", [0.4, 2.0, -1.3, 5.9])
    def test_equivariance(self, delta):
        s = sin_half_power_state(2)
        base = mean_angle(s)
        rotated = mean_angle(s.rotate(delta))
        diff = (rotated - base - delta) % TWO_PI
        assert min(diff, TWO_PI - diff) == pytest.approx(0.0, abs=1e-12)


class TestSigmaTotal:
    def test_superposition(self):
        assert sigma_total(superposition_state(3, 2), 1) == pytest.approx(
            math.sqrt(3), rel=1e-14)

    def test_cos_2phi_n4(self):
        assert sigma_total(cos_harmonic_state(2), 4) == pytest.approx(
            math.sqrt(3) / 4, rel=1e-14)

    def test_infinite_marker(self):
        assert sigma_total(cos_harmonic_state(1), 1) == math.inf
        assert sigma_total(superposition_state(5, 2), 1) == math.inf


class TestAngleMomentsBeta:
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.7, math.pi, 5.5, -3.0])
    def test_uniform_affine(self, beta):
        m1, _, sg = angle_moments_beta(uniform_state(), beta)
        assert m1 == pytest.approx(beta + math.pi, abs=1e-12)
        assert sg == pytest.approx(math.pi / math.sqrt(3), abs=1e-12)

    def test_uniform_slope_one(self):
        betas = np.linspace(0, TWO_PI, 9)
        means = [angle_moments_beta(uniform_state(), float(b))[0] for b in betas]
        slopes = np.diff(means) / np.diff(betas)
        np.testing.assert_allclose(slopes, 1.0, atol=1e-10)

    @pytest.mark.parametrize("seed", [0, 4, 9])
    def test_against_adaptive_quadrature(self, seed):
        s = random_state(5, seed)
        beta = 0.9
        m1, m2, _ = angle_moments_beta(s, beta)
        q1 = quad(lambda p: p * s.density(p), beta, beta + TWO_PI, limit=200)[0]
        q2 = quad(lambda p: p * p * s.density(p), beta, beta + TWO_PI,
                  limit=200)[0]
        assert m1 == pytest.approx(q1, abs=1e-9)
        assert m2 == pytest.approx(q2, abs=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_shift_identity(self, seed):
        s = random_state(6, seed)
        beta = 1.3
        m1_b = angle_moments_beta(s, beta)[0]
        m1_0 = angle_moments_beta(s, 0.0)[0]
        mass = quad(s.density, 0.0, beta, limit=200)[0]
        assert m1_b == pytest.approx(m1_0 + TWO_PI * mass, abs=1e-7)

    def test_far_window(self):
        # moments stay accurate when the window sits far from the origin
        s = random_state(4, 2)
        beta = 50.0
        m1, m2, sigma = angle_moments_beta(s, beta)
        q1 = quad(lambda p: p * s.density(p), beta, beta + TWO_PI,
                  limit=200)[0]
        assert m1 == pytest.approx(q1, abs=1e-8)
        assert beta < m1 < beta + TWO_PI
        assert 0 < sigma < TWO_PI

    def test_quasi_periodic_rejected(self):
        with pytest.raises(UnsupportedStateError):
            angle_moments_beta(sin_half_power_state(1), 0.0)


def simpson_window_moments(state, beta, intervals=2**16):
    """Oracle: (<phi>_beta, <phi^2>_beta) by composite Simpson on the
    density synthesized from its harmonics by an inverse FFT."""
    lags, rho = density_spectrum(state)
    spectrum = np.zeros(intervals, dtype=complex)
    shifted = rho * np.exp(1j * lags * beta)
    spectrum[lags] = shifted
    spectrum[-lags[1:]] = np.conj(shifted[1:])
    dens = np.fft.ifft(spectrum).real * (intervals / TWO_PI)
    dens = np.append(dens, dens[0])
    h = TWO_PI / intervals
    phi = beta + h * np.arange(intervals + 1)

    def simpson(v):
        return float((v[0] + v[-1] + 4.0 * v[1:-1:2].sum()
                      + 2.0 * v[2:-1:2].sum()) * h / 3.0)

    return simpson(phi * dens), simpson(phi * phi * dens)


def quad_window_moments(state, beta, pieces):
    """Oracle: (<phi>_beta, <phi^2>_beta) by adaptive quadrature of the
    density evaluated from the amplitudes, over ``pieces`` subintervals."""
    modes = state.modes.astype(float)

    def rho(p):
        return abs(np.dot(state.amps, np.exp(1j * modes * p))) ** 2 / TWO_PI

    edges = beta + TWO_PI * np.arange(pieces + 1) / pieces
    return tuple(
        math.fsum(quad(lambda p: p**j * rho(p), a, b, epsabs=1e-12,
                       epsrel=1e-12)[0]
                  for a, b in zip(edges[:-1], edges[1:]))
        for j in (1, 2))


class TestWindowClosedForm:
    @pytest.mark.parametrize("max_mode", [1, 4, 32, 128, 512])
    @pytest.mark.parametrize("beta", [-math.pi, 0.9, 50.0])
    def test_against_simpson(self, max_mode, beta):
        s = random_state(max_mode, max_mode + 7)
        m1, m2, _ = angle_moments_beta(s, beta)
        s1, s2 = simpson_window_moments(s, beta)
        assert m1 == pytest.approx(s1, abs=1e-10)
        assert m2 == pytest.approx(s2, abs=1e-8)

    @pytest.mark.parametrize("max_mode", [2, 16, 64])
    @pytest.mark.parametrize("beta", [-math.pi, 50.0])
    def test_against_quad(self, max_mode, beta):
        s = random_state(max_mode, 3)
        m1, m2, _ = angle_moments_beta(s, beta)
        q1, q2 = quad_window_moments(s, beta, max_mode)
        assert m1 == pytest.approx(q1, abs=1e-12)
        assert m2 == pytest.approx(q2, abs=1e-13 * q2)

    def test_span_1024_far_window(self):
        # at the widest span and a far window the closed form sits closer
        # to quad than the 2^16-interval Simpson rule does
        s = random_state(512, 3)
        beta = 50.0
        m1, m2, _ = angle_moments_beta(s, beta)
        q1, q2 = quad_window_moments(s, beta, 512)
        s1, s2 = simpson_window_moments(s, beta)
        assert m1 == pytest.approx(q1, abs=1e-11)
        assert m2 == pytest.approx(q2, abs=1e-13 * q2)
        assert abs(m1 - q1) <= abs(s1 - q1)
        assert abs(m2 - q2) <= abs(s2 - q2)

    @pytest.mark.parametrize("max_mode", [0, 3, 40])
    def test_array_matches_scalar(self, max_mode):
        s = random_state(max_mode, 5)
        betas = np.linspace(-7.0, 60.0, 12).reshape(3, 4)
        m1, m2, sigma = angle_moments_beta(s, betas)
        assert m1.shape == m2.shape == sigma.shape == (3, 4)
        for idx in np.ndindex(betas.shape):
            one = angle_moments_beta(s, float(betas[idx]))
            assert all(isinstance(v, float) for v in one)
            np.testing.assert_allclose(
                (m1[idx], m2[idx], sigma[idx]), one, rtol=1e-15, atol=1e-13)

    def test_many_betas_span_blocks(self):
        # more betas than one block of the phase matrix holds
        s = random_state(512, 1)
        betas = np.linspace(0.0, TWO_PI, 1200)
        m1, _, sigma = angle_moments_beta(s, betas)
        for j in (0, 1023, 1024, 1199):
            one = angle_moments_beta(s, float(betas[j]))
            assert m1[j] == pytest.approx(one[0], abs=1e-13)
            assert sigma[j] == pytest.approx(one[2], abs=1e-13)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta_in_array_rejected(self, bad):
        with pytest.raises(ValueError):
            angle_moments_beta(random_state(3, 0), np.array([0.0, bad]))

    def test_quasi_periodic_rejected_even_with_periodic_density(self):
        # the density of a quasi-periodic state is 2pi-periodic, but the
        # window moments stay defined for strictly periodic states only
        s = from_fourier({0: 1.0, 1: 0.5j, 3: -0.2}, theta=0.3)
        np.testing.assert_allclose(s.density(0.4), s.density(0.4 + TWO_PI),
                                   rtol=1e-12)
        with pytest.raises(UnsupportedStateError):
            angle_moments_beta(s, np.array([0.0, 1.0]))


class TestSpectrumCache:
    def test_computed_once_and_read_only(self):
        s = random_state(6, 2)
        first = density_spectrum(s)[1]
        assert density_spectrum(s)[1] is first
        assert not first.flags.writeable

    @pytest.mark.parametrize("s", [
        random_state(5, 8),
        from_fourier({-6: 0.3, 3: 1.0, 12: 0.5j, 21: -0.2}),
        from_fourier({4: 1.0, 12: 0.5 - 0.1j}),
        from_fourier({7: 1.0}),
    ])
    def test_autocorrelation_against_dense_vdot(self, s):
        # <exp(i k phi)> = sum_m conj(c_{m+k}) c_m = conj(rho_k)
        dense = np.zeros(s.mode_span + 1, dtype=complex)
        dense[s.modes - s.modes[0]] = s.amps
        for k in range(1, s.mode_span + 1):
            want = np.vdot(dense[k:], dense[:-k])
            assert autocorrelation(s, k) == pytest.approx(want, abs=1e-15)
            assert autocorrelation(s, -k) == pytest.approx(
                np.conj(want), abs=1e-15)
        assert autocorrelation(s, 0) == pytest.approx(1.0, abs=1e-15)
        assert autocorrelation(s, s.mode_span + 1) == 0j

    @pytest.mark.parametrize("delta", [0.4, -2.1])
    def test_not_stale_after_rotate(self, delta):
        s = random_state(6, 4)
        before = s.harmonics.copy()
        r = s.rotate(delta)
        fresh = from_fourier(r.coeffs())
        np.testing.assert_allclose(r.harmonics, fresh.harmonics, atol=1e-15)
        k = np.arange(before.size)
        np.testing.assert_allclose(r.harmonics,
                                   before * np.exp(-1j * k * delta),
                                   atol=1e-14)
        assert expect_xy(r, 1) != pytest.approx(expect_xy(s, 1))


class TestDensityIntegral:
    @pytest.mark.parametrize("seed", range(4))
    def test_against_quad(self, seed):
        s = random_state(6, seed)
        val = density_integral(s, 0.2, 1.9)
        ref = quad(s.density, 0.2, 1.9, limit=200)[0]
        assert val == pytest.approx(ref, abs=1e-10)

    def test_full_period_is_one(self):
        s = random_state(7, 3)
        assert density_integral(s, -1.0, -1.0 + TWO_PI) == pytest.approx(
            1.0, abs=1e-13)


class TestReport:
    def test_fields_consistent(self):
        s = cos_harmonic_state(2)
        rep = compute_report(s, 4)
        assert rep.n == 4
        assert rep.r_n == pytest.approx(0.5, abs=1e-14)
        assert rep.mean_phi is None
        assert rep.sigma_lz == pytest.approx(2.0, rel=1e-14)
        assert rep.sigma_n == pytest.approx(math.sqrt(3) / 4, rel=1e-13)
        assert rep.sigma_tilde**2 == pytest.approx(1 - rep.r_n**2, abs=1e-12)

    def test_sigma_tilde_identity_n1(self):
        for seed in range(5):
            s = random_state(6, seed)
            rep = compute_report(s, 1)
            assert rep.sigma_tilde**2 == pytest.approx(1 - rep.r_n**2,
                                                       abs=1e-12)
