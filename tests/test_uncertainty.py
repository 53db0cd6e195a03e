"""Tests for qring.uncertainty: verdicts, symmetry detection, sweeps."""

import math

import numpy as np
import pytest

from qring.errors import UnsupportedStateError
from qring.observables import mean_resultant, sigma_lz, sigma_total
from qring.state import (
    DEFAULT_CONFIG,
    cos_harmonic_state,
    from_fourier,
    random_state,
    sin_half_power_state,
    superposition_state,
    uniform_state,
)
from qring.uncertainty import (
    URKind,
    check_fujikawa,
    check_total_ur,
    check_ur_x,
    check_ur_y,
    detect_fold_symmetry,
    is_fully_symmetric,
    recommend_n,
)

TWO_PI = 2.0 * math.pi


class TestAxisChecks:
    def test_eigenmode_saturates_x(self):
        rep = check_ur_x(from_fourier({4: 1.0}), 1)
        assert rep.lhs == 0.0 and rep.rhs == 0.0
        assert rep.holds and rep.saturated

    def test_uniform_saturates_y(self):
        rep = check_ur_y(uniform_state(), 1)
        assert rep.lhs == 0.0 and rep.rhs == 0.0
        assert rep.saturated

    def test_kind_and_slack_fields(self):
        rep = check_ur_x(cos_harmonic_state(1), 2)
        assert rep.kind is URKind.X_AXIS
        assert rep.slack == pytest.approx(rep.lhs - rep.rhs)

    @pytest.mark.parametrize("seed", range(25))
    def test_theorem_sweep(self, seed):
        s = random_state(8, seed)
        for n in range(1, 9):
            assert check_ur_x(s, n).holds
            assert check_ur_y(s, n).holds


class TestTotalCheck:
    def test_superposition_adjacent(self):
        rep = check_total_ur(superposition_state(3, 2), 1)
        assert rep.lhs == pytest.approx(math.sqrt(3) / 2, rel=1e-13)
        assert rep.rhs == 0.5
        assert rep.holds and not rep.saturated

    def test_superposition_distant_is_trivial(self):
        rep = check_total_ur(superposition_state(5, 2), 1)
        assert math.isinf(rep.lhs)
        assert rep.holds and not rep.saturated

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 7])
    def test_sin_half_power(self, p):
        rep = check_total_ur(sin_half_power_state(p), 1)
        expected = 0.5 * math.sqrt((2 * p + 1) / (2 * p - 1))
        assert rep.lhs == pytest.approx(expected, rel=1e-12)

    def test_cos_2phi_n4(self):
        rep = check_total_ur(cos_harmonic_state(2), 4)
        assert rep.lhs == pytest.approx(math.sqrt(3) / 2, rel=1e-13)

    @pytest.mark.parametrize("seed", range(25))
    def test_theorem_sweep(self, seed):
        s = random_state(8, seed)
        for n in range(1, 9):
            assert check_total_ur(s, n).holds


class TestFujikawa:
    def test_uniform_saturates(self):
        rep = check_fujikawa(uniform_state())
        assert rep.kind is URKind.FUJIKAWA
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.rhs == pytest.approx(0.0, abs=1e-12)
        assert rep.saturated

    def test_negative_rhs_is_trivial(self):
        # density peaked at the seam phi = pi makes the bound negative
        s = sin_half_power_state(2)
        rep = check_fujikawa(s)
        assert rep.rhs < 0
        assert rep.holds

    @pytest.mark.parametrize("seed", range(20))
    def test_holds_for_random_states(self, seed):
        assert check_fujikawa(random_state(6, seed)).holds

    def test_holds_for_concentrated_packet(self):
        from qring.mwp import mwp_x
        rep = check_fujikawa(mwp_x(1, 0, 1.0)[1])
        assert rep.holds and rep.slack > 0

    def test_quasi_periodic_rejected(self):
        with pytest.raises(UnsupportedStateError):
            check_fujikawa(sin_half_power_state(1))

    @pytest.mark.parametrize("state", [
        uniform_state(), sin_half_power_state(2), cos_harmonic_state(3),
        random_state(6, 1), random_state(40, 2)])
    def test_seam_density_from_harmonics(self, state):
        # oracle: the density at the seam evaluated from the wavefunction
        rhs = 0.5 * state.hbar * (1.0 - TWO_PI * state.density(math.pi))
        assert check_fujikawa(state).rhs == pytest.approx(rhs, abs=1e-13)


class TestRotationBehaviour:
    @pytest.mark.parametrize("delta", [0.7, 2.9, -1.2])
    def test_rotation_invariant_quantities(self, delta):
        s = random_state(7, 13)
        r = s.rotate(delta)
        assert sigma_lz(r) == pytest.approx(sigma_lz(s), abs=1e-12)
        for n in range(1, 6):
            assert mean_resultant(r, n) == pytest.approx(
                mean_resultant(s, n), abs=1e-12)
            assert sigma_total(r, n) == pytest.approx(sigma_total(s, n),
                                                      abs=1e-10)
            a, b = check_total_ur(s, n), check_total_ur(r, n)
            assert b.lhs == pytest.approx(a.lhs, abs=1e-10)
            assert b.rhs == a.rhs

    @pytest.mark.parametrize("delta", [0.7, 2.9])
    def test_axis_verdicts_survive_rotation(self, delta):
        s = random_state(7, 13)
        r = s.rotate(delta)
        for n in range(1, 6):
            assert check_ur_x(r, n).holds
            assert check_ur_y(r, n).holds


class TestFoldSymmetry:
    def test_cos_phi(self):
        assert detect_fold_symmetry(cos_harmonic_state(1)) == 2

    def test_cos_2phi(self):
        assert detect_fold_symmetry(cos_harmonic_state(2)) == 4

    def test_uniform_convention(self):
        s = uniform_state()
        assert detect_fold_symmetry(s) == DEFAULT_CONFIG.max_mode
        assert is_fully_symmetric(s)
        assert not is_fully_symmetric(cos_harmonic_state(1))

    def test_eigenmode_is_fully_symmetric(self):
        assert is_fully_symmetric(from_fourier({5: 1.0}))

    def test_no_symmetry(self):
        s = from_fourier({0: 1.0, 1: 0.5, 2: 0.25})
        assert detect_fold_symmetry(s) == 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_constructed_n_fold(self, n):
        # equal combs on the n-lattice have n-fold symmetric density
        s = from_fourier({0: 1.0, n: 0.6, 2 * n: 0.3})
        assert detect_fold_symmetry(s) == n

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_off_lattice_resultants_vanish(self, n):
        s = from_fourier({0: 1.0, n: 0.6, 2 * n: 0.3})
        assert detect_fold_symmetry(s) == n
        for k in range(1, 9):
            if k % n:
                assert mean_resultant(s, k) <= 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_off_lattice_against_quadrature(self, n):
        # independent check: R_k by direct quadrature of the density
        s = from_fourier({0: 1.0, n: 0.5j, 2 * n: -0.2})
        phi = TWO_PI * np.arange(8192) / 8192
        dens = s.density(phi)
        for k in range(1, 2 * n):
            if k % n:
                r_quad = abs(np.mean(dens * np.exp(1j * k * phi))) * TWO_PI
                assert r_quad <= 1e-9

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            detect_fold_symmetry(uniform_state(), tol=0.0)

    def test_no_single_harmonic_above_tol(self):
        # each harmonic is about 1e-10, their sum 3e-10 exceeds tol
        s = from_fourier({0: 1, 1: 1e-10, 2: 1e-10, 3: 1e-10})
        assert detect_fold_symmetry(s, tol=2e-10) == 1

    def test_sub_tol_harmonics_on_a_lattice(self):
        # rho_3 and rho_6 are each below tol; only rho_3 is off the 6-lattice
        s = from_fourier({0: 1, 3: 1e-10, 6: 1e-10})
        assert detect_fold_symmetry(s, tol=1.5e-10) == 6

    @pytest.mark.parametrize("coeffs", [
        {0: 1.0, 6: 0.6, 12: 0.3, 18: 0.1},
        {0: 1.0, 4: 0.5, 10: 0.2},
        {-8: 0.3, 0: 1.0, 16: 0.2j},
        {0: 1.0, 5: 1e-6, 10: 0.4},
    ])
    def test_matches_scan_over_every_n(self, coeffs):
        # oracle: try every n from the mode span down and keep the first
        # whose off-lattice harmonics sum to at most tol
        s = from_fourier(coeffs)
        mags = np.array([mean_resultant(s, k)
                         for k in range(1, s.mode_span + 1)])
        k = np.arange(1, mags.size + 1)
        for tol in (1e-9, 1e-5):
            want = next((n for n in range(mags.size, 1, -1)
                         if mags[k % n != 0].sum() <= tol), 1)
            assert detect_fold_symmetry(s, tol) == want


class TestRecommendN:
    def test_cos_phi(self):
        assert recommend_n(cos_harmonic_state(1), 0.1) == 2

    def test_cos_2phi(self):
        assert recommend_n(cos_harmonic_state(2), 0.1) == 4

    def test_uniform_absent(self):
        assert recommend_n(uniform_state(), 0.1) is None

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("threshold", [0.05, 0.3, 0.9])
    def test_first_resultant_above_threshold(self, seed, threshold):
        s = random_state(12, seed)
        want = next((n for n in range(1, s.mode_span + 1)
                     if mean_resultant(s, n) >= threshold), None)
        assert recommend_n(s, threshold) == want

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            recommend_n(uniform_state(), 0.0)
        with pytest.raises(ValueError):
            recommend_n(uniform_state(), 1.0)
