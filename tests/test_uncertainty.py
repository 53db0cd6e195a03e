"""Tests for qring.uncertainty: verdicts, symmetry detection, sweeps."""

import dataclasses
import math
import pickle

import numpy as np
import pytest

import qring.uncertainty
from qring.mwp import mwp_x, mwp_y
from qring.observables import (
    expect_xy,
    mean_resultant,
    sigma_lz,
    sigma_total,
    sigma_xy,
)
from qring.state import (
    MAX_MODE,
    Config,
    cos_harmonic_state,
    from_fourier,
    random_state,
    sin_half_power_state,
    superposition_state,
    uniform_state,
)
from qring.uncertainty import (
    URKind,
    URReport,
    check_fujikawa,
    check_total_ur,
    check_ur_x,
    check_ur_y,
    detect_fold_symmetry,
    is_fully_symmetric,
    recommend_n,
    series_columns,
)

TWO_PI = 2.0 * math.pi
EPS = np.finfo(float).eps


class TestReportFields:
    TYPES = [URKind, int, float, float, float, bool, bool]

    @pytest.mark.parametrize("state", [random_state(8, 3), uniform_state(),
                                       mwp_y(3, 1, 4.0)[1]])
    def test_exact_types_of_every_kind(self, state):
        # numpy scalars would print alike but are not the documented types;
        # n = 1 of the 3-fold packet has an infinite TOTAL lhs, and
        # n = 1025 lies past every mode span
        reports = [check(state, n) for n in (1, 2, 1025)
                   for check in (check_ur_x, check_ur_y, check_total_ur)]
        reports.append(check_fujikawa(state))
        assert {r.kind for r in reports} == set(URKind)
        names = [field.name for field in dataclasses.fields(URReport)]
        for rep in reports:
            assert [type(getattr(rep, name)) for name in names] == self.TYPES


class TestReportDataclass:
    """``URReport`` stores its fields into its dict one by one; everything
    else is the frozen dataclass."""

    NAMES = ["kind", "n", "lhs", "rhs", "slack", "holds", "saturated"]
    REP = URReport(URKind.TOTAL, 3, 0.75, 0.5, 0.25, True, False)

    def test_field_order(self):
        assert [f.name for f in dataclasses.fields(URReport)] == self.NAMES
        assert dataclasses.is_dataclass(self.REP)

    def test_keywords_and_positions_agree(self):
        values = [URKind.TOTAL, 3, 0.75, 0.5, 0.25, True, False]
        assert URReport(**dict(zip(self.NAMES, values))) == self.REP
        assert list(vars(self.REP)) == self.NAMES

    def test_asdict(self):
        assert dataclasses.asdict(self.REP) == {
            "kind": URKind.TOTAL, "n": 3, "lhs": 0.75, "rhs": 0.5,
            "slack": 0.25, "holds": True, "saturated": False}
        assert list(dataclasses.asdict(self.REP)) == self.NAMES

    def test_replace(self):
        other = dataclasses.replace(self.REP, lhs=2.0, slack=1.5)
        assert type(other) is URReport
        assert (other.lhs, other.slack) == (2.0, 1.5)
        assert (other.kind, other.n, other.rhs) == (URKind.TOTAL, 3, 0.5)
        assert self.REP.lhs == 0.75

    def test_eq_and_hash(self):
        same = URReport(URKind.TOTAL, 3, 0.75, 0.5, 0.25, True, False)
        assert same == self.REP and hash(same) == hash(self.REP)
        assert dataclasses.replace(self.REP, n=4) != self.REP
        assert self.REP != (URKind.TOTAL, 3, 0.75, 0.5, 0.25, True, False)
        assert len({same, self.REP}) == 1

    def test_repr(self):
        assert repr(self.REP) == (
            "URReport(kind=<URKind.TOTAL: 'TOTAL'>, n=3, lhs=0.75, rhs=0.5, "
            "slack=0.25, holds=True, saturated=False)")

    def test_pickle_round_trip(self):
        rep = check_fujikawa(random_state(4, 2))
        back = pickle.loads(pickle.dumps(rep))
        assert back == rep and type(back) is URReport
        assert back.kind is URKind.FUJIKAWA

    @pytest.mark.parametrize("name", NAMES)
    def test_frozen(self, name):
        rep = URReport(URKind.X_AXIS, 1, 0.0, 0.0, 0.0, True, True)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rep, name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(rep, name)
        assert rep == URReport(URKind.X_AXIS, 1, 0.0, 0.0, 0.0, True, True)


@pytest.mark.parametrize("n", [0, -3])
@pytest.mark.parametrize("check", [check_ur_x, check_ur_y, check_total_ur])
def test_harmonic_index_below_one_rejected(check, n):
    with pytest.raises(ValueError) as info:
        check(random_state(4, 1), n)
    assert str(info.value) == "harmonic index n must be >= 1"


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
        rep = check_fujikawa(mwp_x(1, 0, 1.0)[1])
        assert rep.holds and rep.slack > 0

    @pytest.mark.parametrize("theta", [math.pi, 2.2])
    def test_quasi_periodic_matches_periodic_twin(self, theta):
        # both sides read the density, the same at every theta, and
        # sigma_Lz, the centred variance of the integer modes
        twin = random_state(6, 4)
        rep = check_fujikawa(dataclasses.replace(twin, theta=theta))
        ref = check_fujikawa(twin)
        assert rep.rhs == ref.rhs
        assert rep.lhs == ref.lhs
        assert rep.holds and ref.holds

    @pytest.mark.parametrize("p", [1, 3, 5, 7])
    def test_sin_half_power_holds(self, p):
        # the paper's sin^p(phi/2), anti-periodic for odd p, peaks at the
        # seam, so the right side is negative and the bound trivial
        state = sin_half_power_state(p)
        rep = check_fujikawa(state)
        assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs)
        rhs = 0.5 * (1.0 - TWO_PI * float(state.density(math.pi)))
        assert rep.rhs == pytest.approx(rhs, abs=1e-13)
        assert rep.rhs < 0.0 < rep.lhs
        assert rep.holds and not rep.saturated

    @staticmethod
    def mp_window_bound(state):
        """(lhs, rhs, u2 / sigma_phi^2) of the window bound from the state's
        own harmonics and amplitudes in 40-digit arithmetic."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            alt = [(-1) ** k * mpmath.mpc(complex(r))
                   for k, r in enumerate(state.harmonics)]
            u1 = 2 * mpmath.fsum(a.imag / k for k, a in enumerate(alt) if k)
            u2 = mpmath.pi**2 / 3 + 4 * mpmath.fsum(
                a.real / k**2 for k, a in enumerate(alt) if k)
            w = [abs(mpmath.mpc(complex(a))) ** 2 for a in state.amps]
            total = mpmath.fsum(w)
            m1 = mpmath.fsum(int(m) * x
                             for m, x in zip(state.modes, w)) / total
            var = mpmath.fsum(x * (int(m) - m1) ** 2
                              for m, x in zip(state.modes, w)) / total
            lhs = mpmath.sqrt(u2 - u1 * u1) * mpmath.sqrt(var)
            two_pi_rho = alt[0].real + 2 * mpmath.fsum(a.real for a in alt[1:])
            rhs = (1 - two_pi_rho) / 2
            return float(lhs), float(rhs), float(u2 / (u2 - u1 * u1))

    @pytest.mark.parametrize("span", [16, 64, 256, 1024])
    def test_seam_sums_match_mpmath(self, span):
        # spread-out random states: the float sums stay within an ulp or two
        state = random_state(span // 2, span)
        rep = check_fujikawa(state)
        lhs, rhs, _ = self.mp_window_bound(state)
        assert abs(rep.lhs - lhs) <= 4.0 * EPS * lhs
        assert abs(rep.rhs - rhs) <= 8.0 * EPS

    @pytest.mark.parametrize("kappa", [50.0, 500.0, 5000.0])
    def test_concentrated_packet_matches_mpmath(self, kappa):
        # a packet at phi = pi/2 has sigma_phi^2 = u2 - u1^2 far below u2,
        # which magnifies the few ulp of u2 in the float sums by u2 / sigma^2
        state = mwp_x(1, 0, kappa)[1]
        rep = check_fujikawa(state)
        lhs, rhs, condition = self.mp_window_bound(state)
        assert abs(rep.lhs - lhs) <= 8.0 * EPS * condition * lhs
        assert abs(rep.rhs - rhs) <= 8.0 * EPS

    @pytest.mark.parametrize("state", [
        uniform_state(), sin_half_power_state(2), cos_harmonic_state(3),
        random_state(6, 1), random_state(40, 2)])
    def test_seam_density_from_harmonics(self, state):
        # oracle: the density at the seam evaluated from the wavefunction
        rhs = 0.5 * (1.0 - TWO_PI * state.density(math.pi))
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
        assert detect_fold_symmetry(s) == MAX_MODE
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

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("fn", [detect_fold_symmetry,
                                    is_fully_symmetric])
    def test_tol_validation_of_both(self, fn, tol):
        for state in (uniform_state(), random_state(3, 1)):
            with pytest.raises(ValueError, match="tol must be positive"):
                fn(state, tol)

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

    def test_threshold_equal_to_a_reported_resultant(self):
        # the report's r_n = 0.3951983655112775 at n = 2 is a hit
        assert recommend_n(random_state(4, 8), 0.3951983655112775) == 2
        for seed in range(200):
            s = random_state(4, seed)
            r = series_columns(s, s.mode_span).r_n.tolist()
            for threshold in r:
                if 0 < threshold < 1:
                    want = next(n for n, v in enumerate(r, 1)
                                if v >= threshold)
                    assert recommend_n(s, threshold) == want, (seed, r)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            recommend_n(uniform_state(), 0.0)
        with pytest.raises(ValueError):
            recommend_n(uniform_state(), 1.0)


def same_float(a, b):
    """a and b are the same float: equal, zero signs included."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _spread_states():
    states = [random_state(mm, seed) for mm, seed in
              [(0, 1), (1, 2), (2, 3), (5, 4), (17, 5), (60, 6), (200, 7)]]
    states += [from_fourier({3: 1j}),
               from_fourier(random_state(6, 8).coeffs(), theta=2.2),
               from_fourier(random_state(40, 9).coeffs(), theta=math.pi),
               # R_1 ~ 1e-11 and R_2 = 0 lie below cmp_tol: sigma_n = inf
               from_fourier({0: 1.0, 1: 1e-11}),
               mwp_y(3, 1, 4.0)[1],
               cos_harmonic_state(2)]
    return states


class TestSeriesColumns:
    OBSERVABLES = ["ex", "ey", "r_n", "sigma_x", "sigma_y", "sigma_tilde",
                   "sigma_n"]
    BOUND_FIELDS = ["lhs", "rhs", "slack", "holds", "saturated"]

    @pytest.mark.parametrize("hbar", [1.0, 0.37, 2.5])
    @pytest.mark.parametrize("state", _spread_states(),
                             ids=lambda s: f"span{s.mode_span}-"
                                           f"theta{s.theta:.3g}")
    def test_bit_identical_to_scalar_api(self, state, hbar):
        cfg = Config(hbar=hbar)
        nmax = 2 * state.mode_span + 3
        cols = series_columns(state, nmax, cfg)
        checks = [(check_ur_x, cols.x_axis), (check_ur_y, cols.y_axis),
                  (check_total_ur, cols.total)]
        assert cols.n.tolist() == list(range(1, nmax + 1))
        for i, n in enumerate(range(1, nmax + 1)):
            (ex, ey), (sx, sy) = expect_xy(state, n), sigma_xy(state, n)
            want = {"ex": ex, "ey": ey, "r_n": mean_resultant(state, n),
                    "sigma_x": sx, "sigma_y": sy,
                    "sigma_tilde": math.sqrt(sx * sx + sy * sy),
                    "sigma_n": sigma_total(state, n, cfg)}
            for name in self.OBSERVABLES:
                assert same_float(getattr(cols, name)[i].item(),
                                  want[name]), (n, name)
            for check, bounds in checks:
                ref = check(state, n, cfg)
                for name in self.BOUND_FIELDS:
                    got = getattr(bounds, name)[i].item()
                    want = getattr(ref, name)
                    assert type(got) is type(want), (n, name)
                    assert same_float(got, want), (ref.kind, n, name)

    @pytest.mark.parametrize("state", [random_state(8, 3), random_state(3, 7),
                                       mwp_y(2, 1, 3.0)[1]])
    def test_right_sides_scale_with_config_hbar(self, state):
        # hbar comes from the Config alone: doubling it doubles every right
        # side, of the scalar checks and of the columns alike
        one, two = Config(), Config(hbar=2.0)
        for n in range(1, 6):
            for check in (check_ur_x, check_ur_y, check_total_ur):
                assert (check(state, n, two).rhs
                        == 2.0 * check(state, n, one).rhs)
        assert (check_fujikawa(state, two).rhs
                == 2.0 * check_fujikawa(state, one).rhs)
        cols_one = series_columns(state, 6, one)
        cols_two = series_columns(state, 6, two)
        for family in ("x_axis", "y_axis", "total"):
            np.testing.assert_array_equal(
                getattr(cols_two, family).rhs,
                2.0 * getattr(cols_one, family).rhs)

    def test_zero_past_the_span_is_positive(self):
        # -Im of the zero pad would print as -0.0
        cols = series_columns(random_state(2, 3), 10)
        assert all(math.copysign(1.0, v) == 1.0 for v in cols.ey[5:])
        assert all(math.isinf(v) for v in cols.sigma_n[4:])

    def test_nmax_validation(self):
        with pytest.raises(ValueError):
            series_columns(random_state(2, 3), 0)


class TestOverflow:
    # random_state(6, 11) has sigma_Lz / hbar = 3.51 and sigma_1 = 19.5,
    # so the n = 1 total lhs passes float64's 1.8e308 above hbar ~ 2.6e306
    STATE = random_state(6, 11)

    @pytest.mark.parametrize("hbar", [1e307, 1e308, 1.7e308])
    def test_overflowing_side_raises(self, hbar):
        cfg, state = Config(hbar=hbar), self.STATE
        with pytest.raises(OverflowError, match="overflows float64") as exc:
            for n in range(1, 9):
                for check in (check_ur_x, check_ur_y, check_total_ur):
                    check(state, n, cfg)
        with pytest.raises(OverflowError) as col_exc:
            series_columns(state, 8, cfg)
        assert str(col_exc.value) == str(exc.value)

    def test_finite_columns_run_no_scalar_check(self, monkeypatch):
        # the scalar checks only name an overflow the columns found
        def fail(*args):
            raise AssertionError("scalar check called")
        for name in ("check_ur_x", "check_ur_y", "check_total_ur"):
            monkeypatch.setattr(qring.uncertainty, name, fail)
        cols = series_columns(self.STATE, 8, Config(hbar=1e306))
        assert np.all(np.isfinite(cols.total.lhs))

    def test_largest_finite_hbar_holds(self):
        cfg, state = Config(hbar=1e306), self.STATE
        cols = series_columns(state, 8, cfg)
        for bounds in (cols.x_axis, cols.y_axis, cols.total):
            assert np.all(np.isfinite(bounds.lhs)) and bounds.holds.all()
        assert check_fujikawa(state, cfg).holds

    def test_fujikawa_overflow_raises(self):
        cfg, state = Config(hbar=1e308), self.STATE
        with pytest.raises(OverflowError, match="FUJIKAWA"):
            check_fujikawa(state, cfg)

    def test_infinite_sigma_n_still_allowed(self):
        # R_1 = 0 on a 3-fold density: the TOTAL lhs is infinite by definition
        state = mwp_y(3, 1, 4.0)[1]
        rep = check_total_ur(state, 1)
        assert math.isinf(rep.lhs) and rep.holds and not rep.saturated
        assert math.isinf(series_columns(state, 1).total.lhs[0])
