"""Tests for qring.observables against quadrature and closed-form oracles."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

import qring.cli
import qring.state
from qring.mwp import mwp_x
from qring.observables import (
    angle_moments_beta,
    expect_lz,
    expect_xy,
    mean_angle,
    mean_resultant,
    sigma_lz,
    sigma_total,
    sigma_xy,
)
from qring.state import (
    MAX_MODE,
    cos_harmonic_state,
    from_fourier,
    random_state,
    sin_half_power_state,
    superposition_state,
    uniform_state,
)

TWO_PI = 2.0 * math.pi
EPS = np.finfo(float).eps


def lz_moments_quadrature(state, nodes=8192):
    """Oracle: trapezoid quadrature of psi* (-i d/dphi) psi, hbar = 1.

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
    m1 = np.sum(np.conj(psi) * -1j * dpsi).real * h
    m2 = np.sum(np.abs(dpsi) ** 2) * h
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

    def test_rotated_far_eigenmode_has_no_spread(self):
        # sum mu^2 w - (sum mu w)^2 cancels 2.5e5 down to its rounding and
        # gave 7.6e-6 here; the centred sum leaves an ulp of mu
        s = from_fourier({500: 1.0}).rotate(2.5)
        assert sigma_lz(s) <= 8.0 * EPS * 500.0

    def test_superposition_spread_is_exact(self):
        # weights 1/2 on modes 2 and 3: the centred sum is exact
        assert sigma_lz(superposition_state(3, 2)) == 0.5

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

    def test_minus_pi_reads_pi(self, capsys, tmp_path):
        # <Y> = -5e-18 beside a negative <X>: atan2 gives -pi, outside the
        # range, and the mean direction is pi, in report too
        s = from_fourier({0: 1, 1: -1 + 1e-17j})
        ex, ey = expect_xy(s, 1)
        assert math.atan2(ey, ex) == -math.pi
        assert mean_angle(s) == math.pi
        path = tmp_path / "state.txt"
        path.write_text(qring.state.dump_state(s))
        assert qring.cli.main(["report", str(path), "--nmax", "1"]) == 0
        assert '"mean_phi": 3.141592653589793,' in capsys.readouterr().out

    def test_threshold_at_r1_reads_the_resultant(self):
        # R_1 against its rounding bound sqrt(2) gamma_{L+2}, L = 2 here, by
        # the bits of mean_resultant: at R_1 = the bound the state is
        # anisotropic, as sigma_total says, and below it isotropic
        u = 2.0**-53
        zero = math.sqrt(2.0) * 4 * u / (1 - 4 * u)
        for scale in (0.5, 0.99, 1.0, 1.01, 2.0, 1e6):
            s = from_fourier({0: 1.0, 1: scale * zero})
            r1 = mean_resultant(s, 1)
            assert r1 == scale * zero  # the norm rounds to 1
            ex, ey = expect_xy(s, 1)
            assert (mean_angle(s) == math.atan2(ey, ex)) is (scale >= 1.0)
            assert (mean_angle(s) is None) is (scale < 1.0)
            assert math.isfinite(sigma_total(s, 1)) is (scale >= 1.0)

    def test_rounding_bound_of_the_widest_span(self):
        # L = 1025 harmonics: sqrt(2) gamma_1027 = 1.61e-13; far below the
        # verdict tolerance, which no longer gates R_n
        s = from_fourier({-512: 1.0, 512: 1e-13})
        assert s.harmonics.size == 1025
        assert mean_resultant(s, 1024) == pytest.approx(1e-13, rel=1e-12)
        assert math.isinf(sigma_total(s, 1024))
        s = from_fourier({-512: 1.0, 512: 2e-13})
        assert math.isfinite(sigma_total(s, 1024))

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

    @pytest.mark.parametrize(
        "fn", [sigma_total, mean_resultant, expect_xy, sigma_xy])
    @pytest.mark.parametrize("n", [0, -2])
    def test_harmonic_index_below_one_rejected(self, fn, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            fn(random_state(3, 1), n)


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

    @pytest.mark.parametrize("state", [
        sin_half_power_state(1),
        dataclasses.replace(random_state(6, 4), theta=2.2),
    ], ids=["anti-periodic", "theta 2.2"])
    def test_quasi_periodic_matches_periodic_twin(self, state):
        # |psi|^2 does not depend on theta: the same coefficients at
        # theta = 0 give the same harmonics, and so the same bits
        twin = dataclasses.replace(state, theta=0.0)
        betas = np.linspace(-10.0, 10.0, 41)
        moments = angle_moments_beta(state, betas)
        assert all(a.tobytes() == b.tobytes() for a, b in
                   zip(moments, angle_moments_beta(twin, betas)))

    @pytest.mark.parametrize("state", [random_state(1, 5),
                                       random_state(20, 1)],
                             ids=["span 2", "span 40"])
    def test_block_size_invariance(self, state, monkeypatch):
        # an odd count leaves a lone last row at the two-row bounds
        betas = np.linspace(-30.0, 30.0, 5001)
        results = []
        for bound in (1, 7, 2**16):
            monkeypatch.setattr(qring.state, "_PHASE_BLOCK", bound)
            results.append(b"".join(
                a.tobytes() for a in angle_moments_beta(state, betas)))
        assert results[0] == results[1] == results[2]


def mp_window_moments(state, betas):
    """(<phi>_beta, sigma_phi^beta, u1) from the state's own harmonics by
    the closed-form sums of the module docstring in 40-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    means, sigmas, u1s = [], [], []
    with mpmath.workdps(40):
        rho = [mpmath.mpc(complex(r)) for r in state.harmonics]
        for beta in betas:
            b = mpmath.mpf(beta)
            terms = [(rho[k] * mpmath.expj(k * b), k)
                     for k in range(1, len(rho))]
            u1 = 2 * mpmath.fsum(t / k for t, k in terms).imag
            u2 = (mpmath.pi**2 / 3
                  + 4 * mpmath.fsum(t / k**2 for t, k in terms).real)
            means.append(float(b + mpmath.pi + u1))
            sigmas.append(float(mpmath.sqrt(u2 - u1 * u1)))
            u1s.append(float(u1))
    return np.array(means), np.array(sigmas), np.array(u1s)


class TestFarWindowStarts:
    @pytest.mark.parametrize("state", [
        random_state(512, 1), random_state(512, 2), mwp_x(1, 0, 5000.0)[1]],
        ids=["random-1", "random-2", "kappa-5000"])
    def test_against_mpmath(self, state):
        betas = np.array([-1000.0, -987.654321, -333.3, -40.0, -1.0, 0.3,
                          2.5, 77.7, 512.25, 999.9])
        means, sigmas, u1 = mp_window_moments(state, betas)
        m1, _, sigma = angle_moments_beta(state, betas)
        # a running product of k rounded phase steps is off by about k
        # ulp, so each harmonic sum stays within one ulp per harmonic of
        # its sum of |terms|; the mean adds the rounding of beta + pi
        rho = np.abs(state.harmonics[1:])
        k = np.arange(1, rho.size + 1)
        d1 = 2.0 * rho.size * EPS * np.sum(rho / k)
        d2 = 4.0 * rho.size * EPS * np.sum(rho / (k * k))
        assert np.all(np.abs(m1 - means) <= d1 + EPS * np.abs(means))
        # sigma^2 = u2 - u1^2
        tol = (d2 + 2.0 * np.abs(u1) * d1) / (2.0 * sigmas) + EPS * sigmas
        assert np.all(np.abs(sigma - sigmas) <= tol)


def simpson_window_moments(state, beta, intervals=2**16):
    """Oracle: (<phi>_beta, <phi^2>_beta) by composite Simpson on the
    density synthesized from its harmonics by an inverse FFT."""
    rho = state.harmonics
    lags = np.arange(rho.size)
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

    @pytest.mark.parametrize("beta", [-10.0, -math.pi, 1.0, 7.5])
    def test_quasi_periodic_against_quad(self, beta):
        # the density of a quasi-periodic state is 2pi-periodic, so the
        # closed form holds for it: quad of its own density agrees
        s = from_fourier({0: 1.0, 1: 0.5j, 3: -0.2}, theta=0.3)
        np.testing.assert_allclose(s.density(0.4), s.density(0.4 + TWO_PI),
                                   rtol=1e-12)
        m1, m2, _ = angle_moments_beta(s, beta)
        q1, q2 = (quad(lambda p: p**j * s.density(p), beta, beta + TWO_PI,
                       epsabs=1e-13, epsrel=1e-13, limit=200)[0]
                  for j in (1, 2))
        assert m1 == pytest.approx(q1, abs=1e-12)
        assert m2 == pytest.approx(q2, abs=1e-13 * q2)


class TestSpectrumCache:
    def test_computed_once_and_read_only(self):
        s = random_state(6, 2)
        first = s.harmonics
        assert s.harmonics is first
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
            assert s.harmonics[k] == pytest.approx(np.conj(want), abs=1e-15)
            ex, ey = expect_xy(s, k)
            assert ex == pytest.approx(want.real, abs=1e-15)
            assert ey == pytest.approx(want.imag, abs=1e-15)
        assert s.harmonics[0] == pytest.approx(1.0, abs=1e-15)
        assert expect_xy(s, s.mode_span + 1) == (0.0, 0.0)

    @pytest.mark.parametrize("s", [
        random_state(5, 8), random_state(512, 3), mwp_x(3, 0, 4.0)[1],
        from_fourier({4: 1.0, 12: 0.5 - 0.1j})])
    def test_resultants_cached_with_mean_resultant_bits(self, s):
        assert "resultants" not in s.__dict__
        r = s.resultants
        assert s.resultants is r
        assert not r.flags.writeable
        assert r.size == s.mode_span + 1
        bits = [mean_resultant(s, n) for n in range(1, s.mode_span + 1)]
        assert repr(r[1:].tolist()) == repr(bits)

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


def lz_diagonal_sums(state):
    """Oracle: (<L_z>, sigma_Lz) from the diagonal sums over the integer
    modes centred on the heaviest mode m0, each divided by the total
    weight, the mean shifted by theta/2pi, recomputed on every call; the
    cached moments use the same arithmetic, so they match bit for bit."""
    w = np.abs(state.amps) ** 2
    m0 = int(state.modes[np.argmax(w)])
    shift = float(np.sum((state.modes - m0) * w) / np.sum(w))
    var = float(np.sum((state.modes - m0 - shift) ** 2 * w) / np.sum(w))
    return m0 + shift + state.theta / TWO_PI, math.sqrt(var)


class TestLzMomentsCache:
    def test_cached_after_first_sigma_lz(self):
        s = random_state(6, 3)
        assert "lz_moments" not in s.__dict__
        sigma_lz(s)
        assert "lz_moments" in s.__dict__
        assert s.lz_moments is s.__dict__["lz_moments"]

    @pytest.mark.parametrize("s", [
        *(random_state(mm, seed) for mm, seed in [(0, 1), (3, 2), (8, 3),
                                                  (40, 4), (200, 5)]),
        from_fourier({-4: 0.3 + 0.2j, 1: 1.0, 5: -0.7j}, theta=1.3),
        from_fourier({0: 1.0, 1: 0.5, 2: 0.25j}, theta=math.pi),
        sin_half_power_state(5),
        random_state(12, 6),
        from_fourier({-2: 1.0, 3: 0.4 - 0.9j}, theta=4.0),
    ])
    def test_bit_identical_to_diagonal_sums(self, s):
        # in units of hbar; the first call fills the cache, the second
        # reads it
        for _ in range(2):
            assert (expect_lz(s), sigma_lz(s)) == lz_diagonal_sums(s)

    @pytest.mark.parametrize("theta", [0.0, 1.3])
    def test_eigenstate_moments_are_exact(self, theta):
        # centred on its one mode, an eigenstate's sums have nothing to
        # round: <L_z> is m + theta/2pi and the spread 0.0 at every m, as
        # the total weight |c|^2 rounds away from 1
        for m in range(-MAX_MODE, MAX_MODE + 1):
            for amp in (1.0, 9 - 4j, 3e-7j, -2.5e5 + 1j):
                s = from_fourier({m: amp}, theta)
                assert s.lz_moments == (m + theta / TWO_PI, 0.0), (m, amp)

    @pytest.mark.parametrize("delta", [0.7, -2.9])
    def test_rotated_state_starts_without_cache(self, delta):
        s = from_fourier({-3: 0.5, 0: 1.0, 4: 0.2 + 0.6j}, theta=0.8)
        before = sigma_lz(s)
        r = s.rotate(delta)
        assert "lz_moments" not in r.__dict__
        assert sigma_lz(r) == lz_diagonal_sums(r)[1]
        assert sigma_lz(r) == pytest.approx(before, rel=1e-14)

    def test_replaced_state_starts_without_cache(self):
        s = random_state(5, 7)
        before = expect_lz(s)
        r = dataclasses.replace(s, theta=1.0)
        assert "lz_moments" not in r.__dict__
        assert (expect_lz(r), sigma_lz(r)) == lz_diagonal_sums(r)
        assert expect_lz(r) == pytest.approx(before + 1.0 / TWO_PI,
                                             rel=1e-14)


class TestReport:
    """The ``report`` observables at one n, from the scalar functions."""

    def test_fields_consistent(self):
        s = cos_harmonic_state(2)
        sx, sy = sigma_xy(s, 4)
        r = mean_resultant(s, 4)
        assert r == pytest.approx(0.5, abs=1e-14)
        assert mean_angle(s) is None
        assert sigma_lz(s) == pytest.approx(2.0, rel=1e-14)
        assert sigma_total(s, 4) == pytest.approx(math.sqrt(3) / 4, rel=1e-13)
        assert sx * sx + sy * sy == pytest.approx(1 - r**2, abs=1e-12)

    def test_sigma_tilde_identity_n1(self):
        for seed in range(5):
            s = random_state(6, seed)
            sx, sy = sigma_xy(s, 1)
            assert sx * sx + sy * sy == pytest.approx(
                1 - mean_resultant(s, 1)**2, abs=1e-12)
