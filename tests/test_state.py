"""Tests for qring.state: construction, evaluation, rotation, serialization."""

import math

import numpy as np
import pytest

from qring.errors import DegenerateStateError, ResolutionError
from qring.state import (
    Config,
    cos_harmonic_state,
    dump_state,
    from_fourier,
    load_state,
    random_state,
    sin_half_power_state,
    superposition_state,
    uniform_state,
)

TWO_PI = 2.0 * math.pi


def norm2(state):
    return float(np.sum(np.abs(state.amps) ** 2))


class TestFromFourier:
    def test_uniform_modulus(self):
        s = uniform_state()
        for phi in [0.0, 1.0, -2.5, 17.0]:
            assert abs(s.evaluate(phi)) == pytest.approx(1 / math.sqrt(TWO_PI),
                                                         rel=1e-14)

    def test_superposition_at_zero(self):
        s = superposition_state(3, 2)
        assert s.evaluate(0.0) == pytest.approx(2 / math.sqrt(4 * math.pi),
                                                rel=1e-14)

    def test_sin_half_density(self):
        # modes {0, -1} with theta = pi reproduce sin(phi/2)/sqrt(pi)
        s = sin_half_power_state(1)
        assert s.theta == pytest.approx(math.pi)
        for phi in np.linspace(0.1, 6.0, 7):
            assert s.density(float(phi)) == pytest.approx(
                math.sin(phi / 2) ** 2 / math.pi, abs=1e-14)

    def test_normalizes_input(self):
        s = from_fourier({0: 3.0, 5: 4.0j})
        assert norm2(s) == pytest.approx(1.0, abs=1e-15)
        assert abs(s.coeffs()[0]) == pytest.approx(0.6)
        assert abs(s.coeffs()[5]) == pytest.approx(0.8)

    def test_zero_input_raises(self):
        with pytest.raises(DegenerateStateError):
            from_fourier({0: 0.0, 1: 0.0})
        with pytest.raises(DegenerateStateError):
            from_fourier({})

    def test_mode_cap(self):
        with pytest.raises(ResolutionError):
            from_fourier({600: 1.0})
        cfg = Config(max_mode=1024)
        assert from_fourier({600: 1.0}, config=cfg).max_abs_mode == 600

    def test_theta_reduced(self):
        s = from_fourier({0: 1.0}, theta=2 * TWO_PI + 1.0)
        assert s.theta == pytest.approx(1.0)
        assert from_fourier({0: 1.0}, theta=TWO_PI).theta == 0.0

    @pytest.mark.parametrize("amp", [1e300, 1e-200, 1.7e308, 5e-324])
    def test_extreme_amplitudes_normalize(self, amp):
        # |a|^2 would overflow (1e300) or underflow (1e-200) unscaled
        s = from_fourier({0: amp, 1: amp})
        want = from_fourier({0: 1.0, 1: 1.0})
        np.testing.assert_allclose(s.amps, want.amps, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("amp", [math.inf, math.nan,
                                     complex(1.0, math.inf)])
    def test_non_finite_amplitude_rejected(self, amp):
        with pytest.raises(DegenerateStateError):
            from_fourier({0: 1.0, 1: amp})

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_non_finite_theta_rejected(self, theta):
        with pytest.raises(ValueError, match="theta must be finite"):
            from_fourier({0: 1.0}, theta=theta)

    def test_non_integer_mode_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            from_fourier({0.5: 1.0})

    def test_amplitudes_immutable(self):
        s = from_fourier({0: 1.0, 2: 1.0j})
        with pytest.raises(ValueError):
            s.amps[0] = 0.0
        with pytest.raises(ValueError):
            s.rotate(0.3).amps[0] = 0.0


class TestEvaluateAndDensity:
    def test_quasi_periodicity(self):
        s = sin_half_power_state(3)
        for phi in [0.3, 1.7, 4.0]:
            lhs = s.evaluate(phi + TWO_PI)
            rhs = np.exp(1j * s.theta) * s.evaluate(phi)
            assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_density_periodic_for_quasi_periodic_state(self):
        s = sin_half_power_state(1)
        assert s.density(TWO_PI + 1.0) == pytest.approx(s.density(1.0), abs=1e-13)

    def test_array_evaluation_matches_scalar(self):
        s = random_state(8, 3)
        phi = np.linspace(0, 7, 11)
        arr = s.evaluate(phi)
        for p, v in zip(phi, arr):
            assert s.evaluate(float(p)) == pytest.approx(v, abs=1e-14)

    def test_uniform_density(self):
        s = uniform_state()
        np.testing.assert_allclose(s.density(np.linspace(-5, 5, 17)),
                                   1 / TWO_PI, atol=1e-15)

    def test_cos_phi_density_at_zero(self):
        s = cos_harmonic_state(1)
        assert s.density(0.0) == pytest.approx(1 / math.pi, rel=1e-13)


class TestRotate:
    def test_identity(self):
        s = random_state(6, 11)
        r = s.rotate(0.0)
        np.testing.assert_array_equal(r.amps, s.amps)

    def test_full_turn_is_global_phase(self):
        s = sin_half_power_state(3)
        r = s.rotate(TWO_PI)
        np.testing.assert_allclose(r.amps, s.amps * np.exp(-1j * s.theta),
                                   atol=1e-14)
        p = random_state(5, 2)  # theta = 0: full turn is the identity
        np.testing.assert_allclose(p.rotate(TWO_PI).amps, p.amps, atol=1e-14)

    def test_pointwise_shift(self):
        s = random_state(7, 19)
        delta = 0.83
        for phi in [0.0, 1.1, 5.2]:
            assert s.rotate(delta).evaluate(phi) == pytest.approx(
                s.evaluate(phi - delta), abs=1e-13)

    def test_norm_preserved(self):
        s = random_state(9, 23)
        assert norm2(s.rotate(1.234)) == pytest.approx(1.0, abs=1e-14)


class TestRandomState:
    def test_deterministic(self):
        a = random_state(8, 42)
        b = random_state(8, 42)
        np.testing.assert_array_equal(a.amps, b.amps)
        np.testing.assert_array_equal(a.modes, b.modes)

    def test_normalized(self):
        assert norm2(random_state(8, 42)) == pytest.approx(1.0, abs=1e-12)

    def test_single_mode_is_uniform(self):
        s = random_state(0, 5)
        assert list(s.modes) == [0]
        assert abs(s.amps[0]) == pytest.approx(1.0, abs=1e-15)


class TestSerialization:
    def test_round_trip_exact(self):
        s = random_state(12, 99)
        t = dump_state(s)
        r = load_state(t)
        assert r.theta == s.theta
        np.testing.assert_array_equal(r.modes, s.modes)
        np.testing.assert_array_equal(r.amps, s.amps)

    def test_round_trip_quasi_periodic(self):
        s = sin_half_power_state(5)
        r = load_state(dump_state(s))
        assert r.theta == s.theta
        np.testing.assert_array_equal(r.amps, s.amps)

    def test_unnormalized_file_is_normalized(self):
        r = load_state("theta 0\n0 3 0\n1 0 4\n")
        assert norm2(r) == pytest.approx(1.0, abs=1e-15)

    def test_missing_header(self):
        with pytest.raises(ValueError, match="line 1"):
            load_state("0 1 0\n")

    def test_bad_field_reports_line(self):
        with pytest.raises(ValueError, match="line 3"):
            load_state("theta 0\n0 1 0\n1 xyz 0\n")

    def test_duplicate_mode(self):
        with pytest.raises(ValueError, match="duplicate"):
            load_state("theta 0\n0 1 0\n0 0 1\n")

    def test_zero_norm_file(self):
        with pytest.raises(DegenerateStateError):
            load_state("theta 0\n0 0 0\n")

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_theta_rejected(self, value):
        with pytest.raises(ValueError, match="theta must be finite"):
            load_state(f"theta {value}\n0 1 0\n")

    def test_comments_and_blanks_ignored(self):
        r = load_state("# comment\n\ntheta 0\n0 1 0\n")
        assert list(r.modes) == [0]


class TestConfigValidation:
    def test_bad_hbar(self):
        with pytest.raises(ValueError):
            Config(hbar=0.0)

    @pytest.mark.parametrize("hbar", [math.inf, math.nan, -math.inf])
    def test_non_finite_hbar(self, hbar):
        with pytest.raises(ValueError):
            Config(hbar=hbar)
