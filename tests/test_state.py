"""Tests for qring.state: construction, evaluation, rotation, serialization."""

import dataclasses
import math
import random
import struct
import sys

import numpy as np
import pytest

import qring.cli
import qring.state
from qring.errors import DegenerateStateError, ResolutionError
from conftest import PACKET_GRID
from qring.mwp import mwp_x, mwp_y, verify_packet
from qring.state import (
    MAX_MODE,
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
EPS = np.finfo(float).eps
# phases far from the origin, where a direct exp of the rounded argument
# mu phi is off by up to 5e5 ulp at |mu| = 512
FAR_PHIS = [-1000.0, -987.654321, -333.3, -40.0, -1.0, 0.3, 2.5, 77.7,
            512.25, 999.9]


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
        assert MAX_MODE == 512
        with pytest.raises(ResolutionError):
            from_fourier({600: 1.0})
        with pytest.raises(ResolutionError, match="exceeds the cap 512"):
            from_fourier({0: 1.0, -MAX_MODE - 1: 1.0})
        assert from_fourier({-MAX_MODE: 1.0}).modes.tolist() == [-MAX_MODE]

    @pytest.mark.parametrize("n", [1025, 1030, 1100, 10**6])
    def test_sin_power_past_the_cap(self, n):
        # checked before any binomial, which overflows float64 from
        # n = 1030 on
        with pytest.raises(ResolutionError) as exc:
            sin_half_power_state(n)
        assert str(exc.value) == (f"mode index {(n + 1) // 2} exceeds the "
                                  f"cap 512")

    def test_sin_power_at_the_cap(self):
        modes = sin_half_power_state(1024).modes
        assert (modes[0], modes[-1]) == (-MAX_MODE, MAX_MODE)

    @pytest.mark.parametrize("n", [*range(1, 65), 100, 127, 128, 255, 333,
                                   511, 512, 513, 700, 1000, 1023, 1024])
    def test_sin_power_coefficients_match_comb(self, n, monkeypatch):
        # oracle: one math.comb per term; the row built from its
        # neighbours gives every coefficient bit for bit, signed zeros
        # included
        monkeypatch.setattr(qring.state, "from_fourier",
                            lambda coeffs, theta: coeffs)
        got = sin_half_power_state(n)
        scale = (1.0 / 2j) ** n
        offset = (n + 1) // 2
        want = {j - offset: scale * math.comb(n, j) * (-1) ** (n - j)
                for j in range(n + 1)}
        assert list(got) == list(want)
        assert all(same_bits(got[m].real, want[m].real)
                   and same_bits(got[m].imag, want[m].imag) for m in want)

    @pytest.mark.parametrize("mode,shown", [
        (2**63, 2**63), (-2**63, 2**63), (2**64, 2**64),
        (-2**64 - 1, 2**64 + 1), (1e30, int(1e30)), (-600.0, 600)])
    def test_mode_cap_on_the_input_values(self, mode, shown):
        # the cap is checked before int64 could wrap a mode or a float
        # could be cast out of range, which only warned
        with pytest.raises(ResolutionError) as exc:
            from_fourier({0: 1.0, mode: 1.0})
        assert str(exc.value) == f"mode index {shown} exceeds the cap 512"

    @pytest.mark.parametrize("mode", [math.inf, -math.inf, math.nan, 0.5])
    def test_mode_that_is_no_integer(self, mode):
        with pytest.raises(ValueError, match="must be integers"):
            from_fourier({mode: 1.0})

    def test_zero_amplitude_past_the_cap_is_dropped(self):
        assert from_fourier({2**63: 0.0, 3: 1.0}).modes.tolist() == [3]

    def test_config_is_not_an_argument(self):
        # a state is only its wavefunction, in units of hbar, and carries
        # no tolerance
        with pytest.raises(TypeError):
            random_state(8, 3, 1e-6)
        assert [f.name for f in dataclasses.fields(random_state(1, 0))] == [
            "modes", "amps", "theta"]

    @pytest.mark.parametrize("build, args", [
        (random_state, (-1, 0)),
        (superposition_state, (2, 2)),
        (sin_half_power_state, (0,)),
        (cos_harmonic_state, (0,)),
    ])
    def test_bad_constructor_arguments_rejected(self, build, args):
        with pytest.raises(ValueError):
            build(*args)

    def test_theta_reduced(self):
        s = from_fourier({0: 1.0}, theta=2 * TWO_PI + 1.0)
        assert s.theta == pytest.approx(1.0)
        assert from_fourier({0: 1.0}, theta=TWO_PI).theta == 0.0
        assert from_fourier({0: 1.0}, theta=-1.0).theta == TWO_PI - 1.0

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

    def test_repeated_mode_rejected(self):
        # the pairs would otherwise build a state of weight 2/3 on mode 1
        with pytest.raises(ValueError, match="duplicate mode 1"):
            from_fourier([(1, 1), (1, 1), (2, 1)])
        with pytest.raises(ValueError, match="duplicate mode -3"):
            from_fourier([(-3, 1j), (0, 1.0), (-3, 2j)])

    def test_build_refuses_a_repeated_mode(self):
        # the one constructor of every state holds the check itself
        with pytest.raises(ValueError) as exc:
            qring.state._build(np.array([1, 1]), [1.0, 1.0], 0.0)
        assert type(exc.value) is ValueError
        assert str(exc.value) == "duplicate mode 1"
        # a copy of amplitude 0 repeats the mode too, and the smallest
        # repeated mode is named
        with pytest.raises(ValueError, match="^duplicate mode 2$"):
            qring.state._build([5, 2, 7, 5, 2], [1, 0, 1, 1, 1], 0.0)
        with pytest.raises(ValueError, match="^duplicate mode 1$"):
            from_fourier([(1, 0), (1, 0.5)])

    @pytest.mark.parametrize("coeffs, error, message", [
        ({}, DegenerateStateError, "empty coefficient map"),
        ([], DegenerateStateError, "empty coefficient map"),
        ([(3, 1), (-2, 1), (3, 0)], ValueError, "duplicate mode 3"),
        ({0.5: 1.0, 1: 1.0}, ValueError, "mode indices must be integers"),
        ({1: 0.0, 2: -0.0}, DegenerateStateError,
         "state has no nonzero coefficient"),
        ({-600: 1.0, 1: 1.0}, ResolutionError,
         "mode index 600 exceeds the cap 512"),
        ({0: 1.0, 1: complex(0, math.nan)}, DegenerateStateError,
         "state has a non-finite amplitude"),
        # a repeated mode comes before every other fault
        ([(700, 0), (0.5, math.inf), (700, 0)], ValueError,
         "duplicate mode 700"),
        # a non-integer mode before zero amplitudes, and a zero amplitude
        # past the cap counts for nothing
        ([(0.5, 0), (1, 0)], ValueError, "mode indices must be integers"),
        ([(600, 0), (1, math.inf)], DegenerateStateError,
         "state has a non-finite amplitude"),
        # a repeated mode is named as given: of equal modes the first
        # listed, and an int as an int where numpy holds it as a float
        ([(2, 1), (2.0, 1), (-1, 1)], ValueError, "duplicate mode 2"),
        ([(2.0, 1), (2, 1)], ValueError, "duplicate mode 2.0"),
        ([(-3, 1), (2**63, 1), (-3, 1)], ValueError, "duplicate mode -3"),
    ], ids=["empty-map", "empty-pairs", "repeated", "non-integer", "zero",
            "cap", "non-finite", "repeated-first", "non-integer-first",
            "zero-past-cap", "first-listed", "first-listed-float",
            "int-as-float"])
    def test_refusals_keep_their_order(self, coeffs, error, message):
        with pytest.raises(ValueError) as exc:
            from_fourier(coeffs)
        assert type(exc.value) is error
        assert str(exc.value) == message

    def test_modes_beyond_float64_are_refused(self):
        # with a negative mode numpy holds ints in [2**63, 2**64) as
        # float64, where 2**63 and 2**63 + 1 are one value; refused either
        # way, as a repeated mode or as past the cap
        with pytest.raises(ValueError):
            from_fourier([(-1, 1), (2**63, 1), (2**63 + 1, 1)])
        with pytest.raises(ResolutionError):
            from_fourier([(-1, 1), (2**63, 1)])

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

    def test_shape_preserved(self):
        s = random_state(3, 2)
        assert s.evaluate(np.zeros((3, 4))).shape == (3, 4)
        assert s.evaluate(np.zeros((2, 0))).shape == (2, 0)
        assert s.density(np.zeros((5, 1))).shape == (5, 1)
        assert isinstance(s.evaluate(np.float64(0.3)), complex)
        assert isinstance(s.evaluate(np.array(0.3)), complex)
        assert isinstance(s.density(0.3), float)

    @pytest.mark.parametrize("state", [
        random_state(8, 3), sin_half_power_state(3), mwp_x(1, 0, 5000.0)[1]],
        ids=["random", "anti-periodic", "kappa-5000"])
    def test_scalar_is_one_row_sum(self, state):
        # a scalar phi gives a complex with the bits of its own row in a
        # two-point array call
        for phi in np.linspace(-20.0, 20.0, 301).tolist():
            value = state.evaluate(phi)
            assert isinstance(value, complex)
            assert value == state.evaluate(np.array([phi, 1.0]))[0]

    @pytest.mark.parametrize("state", [random_state(1, 5),
                                       mwp_x(2, 1, 5.0)[1]],
                             ids=["3 modes", "packet"])
    def test_block_size_invariance(self, state, monkeypatch):
        # an odd count leaves a lone last row at the two-row bounds, and
        # 21 847 is the least odd count past one block of the 3-mode state
        # at 2**16 (21 845 rows); the packet's blocks are shorter
        phi = np.linspace(-40.0, 40.0, 21_847)
        results = []
        for bound in (1, 7, 2**16):
            monkeypatch.setattr(qring.state, "_PHASE_BLOCK", bound)
            results.append(state.evaluate(phi).tobytes())
        assert results[0] == results[1] == results[2]

    def test_sparse_modes_build_narrow_tables(self, monkeypatch):
        # modes {-512, 0, 511}: one column per mode, not the 1024-wide
        # lattice between them
        widths = []
        phase_table = qring.state._phase_table

        def spy(*args):
            table = phase_table(*args)
            widths.append(table.shape[1])
            return table

        monkeypatch.setattr(qring.state, "_phase_table", spy)
        state = from_fourier({-512: 1.0, 0: 2.0, 511: 1j})
        phi = np.linspace(-3.0, 3.0, 101)
        values = state.evaluate(phi)
        assert widths == [3]
        direct = np.exp(1j * np.outer(phi, state.mu)) @ state.amps
        np.testing.assert_allclose(values, direct / math.sqrt(TWO_PI),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("state", [
        random_state(512, 1), random_state(512, 2), mwp_x(1, 0, 5000.0)[1]],
        ids=["random-1", "random-2", "kappa-5000"])
    def test_far_phases_against_mpmath(self, state):
        # a running product of j rounded phase steps is off by about j ulp,
        # so the sum stays within one ulp per mode of sum |c| / sqrt(2 pi)
        exact = mp_psi(state, FAR_PHIS)
        tol = (state.modes.size * EPS * np.sum(np.abs(state.amps))
               / math.sqrt(TWO_PI))
        error = np.abs(state.evaluate(np.array(FAR_PHIS)) - exact)
        assert np.max(error) <= tol


def mp_psi(state, phis):
    """psi(phi) of the state's own coefficients by a direct sum in 40-digit
    arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        shift = mpmath.mpf(state.theta) / (2 * mpmath.pi)
        mu = [int(m) + shift for m in state.modes]
        amps = [mpmath.mpc(complex(a)) for a in state.amps]
        scale = 1 / mpmath.sqrt(2 * mpmath.pi)
        values = []
        for phi in phis:
            x = mpmath.mpf(phi)
            total = mpmath.fsum(a * mpmath.expj(f * x)
                                for a, f in zip(amps, mu))
            values.append(complex(total * scale))
    return np.array(values)


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

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_non_finite_angle_rejected(self, delta):
        with pytest.raises(ValueError, match="finite"):
            random_state(3, 1).rotate(delta)


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

    @pytest.mark.parametrize("text, error, match", [
        ("theta x\n0 1 0\n", ValueError, "line 1: bad theta value"),
        ("theta 0\n0 1\n", ValueError, "line 2: expected 'm re im'"),
        ("# only a comment\n", ValueError, "missing 'theta' header"),
        ("theta 0\n", DegenerateStateError, "no coefficients"),
        # the first bad line is named, whatever its fault and the faults
        # of the lines after it
        ("theta 0\n1.5 1 0\n0 1 0 0\n", ValueError,
         "line 2: bad numeric field"),
        ("theta 0\n0 1 0\n0 0 1\n1 x 0\n", ValueError,
         "line 3: duplicate mode 0"),
    ])
    def test_malformed_file_rejected(self, text, error, match):
        with pytest.raises(error, match=match):
            load_state(text)


def interleave(lines):
    """The file of the given lines with comment and blank lines before the
    first, between every two and after the last, and the line number of
    each given line in it."""
    noise = ["# note", "", "\t# 1 2 3", "   ", "#", "  # 0 1 0"]
    out, numbers = [], []
    for k, line in enumerate(lines):
        out += noise[k % 3 : k % 3 + 1 + k % 2]  # one or two noise lines
        out.append(line)
        numbers.append(len(out))
    out += ["", "# end"]
    return "\n".join(out) + "\n", numbers


class TestCommentsAndBlanks:
    @pytest.mark.parametrize("state", [
        random_state(6, 5), sin_half_power_state(5),
        from_fourier(random_state(9, 2).coeffs(), theta=2.2)])
    def test_same_state_bit_for_bit(self, state):
        text = dump_state(state)
        noisy, _ = interleave(text.splitlines())
        assert noisy.count("\n") > 2 * text.count("\n")
        for back in (load_state(noisy), load_state(text)):
            assert back.modes.tobytes() == state.modes.tobytes()
            assert back.amps.tobytes() == state.amps.tobytes()
            assert back.theta == state.theta

    @pytest.mark.parametrize("lines, bad, message", [
        (["thet 0", "0 1 0"], 0, "expected header 'theta <value>'"),
        (["theta 0 1", "0 1 0"], 0, "expected header 'theta <value>'"),
        (["theta x", "0 1 0"], 0, "bad theta value"),
        (["theta 0", "0 1 0", "1 1", "2 1 0"], 2, "expected 'm re im'"),
        (["theta 0", "0 1 0", "1 1 0", "2 1 0 0"], 3, "expected 'm re im'"),
        (["theta 0", "0 1 0", "1 x 0", "2 1 0"], 2, "bad numeric field"),
        (["theta 0", "0 1 0", "1.5 1 0"], 2, "bad numeric field"),
        (["theta 0", "0 1 0", "1 1 0", "0 0 1", "1 x 0"], 3,
         "duplicate mode 0"),
    ], ids=["header", "header-width", "theta", "fields", "fields-last",
            "numeric", "mode", "duplicate"])
    def test_fault_names_its_true_line(self, lines, bad, message):
        noisy, numbers = interleave(lines)
        with pytest.raises(ValueError) as exc:
            load_state(noisy)
        assert str(exc.value) == f"line {numbers[bad]}: {message}"
        with pytest.raises(ValueError) as exc:
            load_state("\n".join(lines) + "\n")
        assert str(exc.value) == f"line {bad + 1}: {message}"


def same_bits(a, b):
    """a and b are the same float64, bit for bit: zero signs included, and
    a NaN the same NaN."""
    return struct.pack("<d", a) == struct.pack("<d", b)


class TestInHbar:
    """``cli._in_hbar``, the one place a value of the package, in units of
    hbar, is multiplied by the --hbar of the CLI."""

    VALUES = [(-0.0, math.inf, math.nan), (1.7e308, -0.0, 1.7e308),
              (math.nan, 1.7e308, -math.inf), (0.37, -1e-320, 2.0**-1074)]

    @pytest.mark.parametrize("power", [0, 1, 2])
    @pytest.mark.parametrize("values", VALUES)
    def test_unit_hbar_returns_its_inputs(self, values, power):
        # x * 1.0 is x to the bit and cannot overflow; 1.7e308 squared
        # would, if hbar were applied as a power
        for hbar in (1.0, 1):
            out = qring.cli._in_hbar(hbar, power, "value", *values)
            assert len(out) == 3
            assert all(map(same_bits, out, values)), (values, power)

    @pytest.mark.parametrize("hbar", [1.0 + 2.0**-52, 2.0, 1e308])
    def test_other_hbar_names_an_overflow(self, hbar):
        with pytest.raises(OverflowError) as exc:
            qring.cli._in_hbar(hbar, 1, "X at n=3", 0.5, sys.float_info.max)
        assert str(exc.value) == (f"X at n=3 overflows float64 "
                                  f"(hbar={hbar!r}); use a smaller hbar")

    @pytest.mark.parametrize("hbar,power,values", [
        (0.5, 1, (0.5, sys.float_info.min, 1.0)),
        (1e-300, 1, (1.0, -1e-10, 1e-300)),
        (5e-324, 1, (0.0, -0.275, 2.0)),
        (1e-200, 2, (1e-100, 1.0, 1.0))])
    def test_other_hbar_names_an_underflow(self, hbar, power, values):
        # the first normal value that comes out zero or subnormal, in
        # order: -0.275 at 5e-324 would print as -0.0
        with pytest.raises(ValueError) as exc:
            qring.cli._in_hbar(hbar, power, "X at n=3", *values)
        assert str(exc.value) == (f"X at n=3 underflows float64 "
                                  f"(hbar={hbar!r}); use a larger hbar")

    def test_other_hbar_keeps_a_zero_or_subnormal_value(self):
        # zero and subnormal before the unit, so no underflow
        out = qring.cli._in_hbar(0.5, 1, "value",
                                 -0.0, 2.0**-1074, 2.0**-1060)
        assert all(map(same_bits, out, (-0.0, 0.0, 2.0**-1061)))
        out = qring.cli._in_hbar(1e-300, 2, "value", 0.0, 1e-310, math.inf)
        assert all(map(same_bits, out, (0.0, 0.0, math.inf)))

    @pytest.mark.parametrize("values", [(0.37,), (0.37, -2.0, 1e-300, 5.0)])
    def test_any_number_of_values(self, values):
        # one name for all of them: report's four values of a verdict, or
        # one alone
        assert qring.cli._in_hbar(1.0, 1, "value", *values) == values
        assert qring.cli._in_hbar(0.5, 2, "value", *values) == tuple(
            v * 0.5 * 0.5 for v in values)
        with pytest.raises(ValueError, match="^value underflows"):
            qring.cli._in_hbar(1e-308, 1, "value", *values)

    def test_other_hbar_keeps_an_infinite_value(self):
        # an isotropic sigma_n: infinite before the unit, so no overflow
        x, y, z = qring.cli._in_hbar(2.0, 1, "value",
                                     math.inf, 0.5, math.inf)
        assert (x, y, z) == (math.inf, 1.0, math.inf)


def reference_dump_state(state):
    """Oracle: the writer that formatted each mode with an f-string."""
    lines = [f"theta {state.theta:.17g}"]
    for m, a in zip(state.modes, state.amps):
        lines.append(f"{int(m)} {a.real:.17g} {a.imag:.17g}")
    return "\n".join(lines) + "\n"


def reference_load_state(text):
    """Oracle: the parser that split, converted and checked one line at a
    time, building a complex per mode."""
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
    return qring.state._build(modes, amps, theta)


def load_outcome(load, text):
    """(modes bytes, amps bytes, theta) of the parsed file, or the type and
    message of what the parse raised."""
    try:
        state = load(text)
    except Exception as exc:
        return type(exc), str(exc)
    return state.modes.tobytes(), state.amps.tobytes(), state.theta


# files that the parsers must reject, or accept, alike: each fault on
# its own, several faults in different orders, and spellings that Python's
# int and float accept or refuse
CORPUS = [
    "", "\n\n", "# only a comment\n", "theta\n", "thet 0\n0 1 0\n",
    "theta 0 1\n0 1 0\n", "theta x\n0 1 0\n", "theta 0\n",
    "theta inf\n0 1 0\n", "0 1 0\ntheta 0\n", "theta 0\n0 1\n",
    "theta 0\n0 1 0 0\n", "theta 0\n0 1 0\ntheta 0\n",
    "theta 0\n0 x 0\n", "theta 0\n0 1 y\n", "theta 0\nz 1 0\n",
    "theta 0\n0.0 1 0\n", "theta 0\n0 1 0\n0 1 0\n",
    "theta 0\n1.5 1 0\n0 1 0 0\n", "theta 0\n0 1 0 0\n1.5 1 0\n",
    "theta 0\n0 1 0\n0 0 1\n1 x 0\n", "theta 0\n0 x 0\n1 1 0\n1 1 0\n",
    "theta 0\n1 1 0\n2 1 0 #note\n", "theta 0\r\n0 1 0\r\n1 x 0\r\n",
    "theta 0\n# c\n\t\n0\t1\n", "theta 0\n0 1\x00 0\n",
    "theta 0\n" + "9" * 5000 + " 1 0\n", "theta 0\n0 0 0\n",
    "theta 0\n0 0 0\n1 -0.0 0.0\n", "theta 0\n600 1 0\n",
    "theta 0\n99999999999999999999 1 0\n", "theta 0\n0 nan 0\n",
    "theta 0\n0 1e400 0\n1 1 0\n", "theta 1_0.5\n1_0 1_0.5 -0\n",
    "theta 0\n\uff11 \uff12.5 -inFinity\n",
    "theta 0\n-3 Infinity 0\n", "theta 0\n+2 -0.0 5e-324\n1 1 0\n",
    "theta 0\n0\u20031\u20030\n", "theta 0\n0x1 1 0\n", "theta 0\n0 0x1p3 0\n",
    "theta 0\n0 1_ 0\n", "theta 0\n0 1 0\x1c1 1 0\n",
    "#note\ntheta 0\n#0 1 0\n1 1 0\n",
]


class TestColumnIO:
    """The column writer and parser against the per-line ones they
    replaced: the same bytes, states and errors."""

    @pytest.mark.parametrize("text", CORPUS)
    def test_corpus_matches_reference(self, text):
        assert (load_outcome(load_state, text)
                == load_outcome(reference_load_state, text))

    @pytest.mark.parametrize("axis,n,m,kappa", PACKET_GRID)
    def test_packets_match_reference(self, axis, n, m, kappa):
        # the odd orders of an X packet have exact zero real parts, which
        # the generated states rarely do
        _, state = (mwp_x if axis == "X" else mwp_y)(n, m, kappa)
        assert dump_state(state) == reference_dump_state(state)

    def test_generated_files_match_reference(self):
        hypothesis = pytest.importorskip("hypothesis")
        from conftest import states
        st = hypothesis.strategies
        noise = st.sampled_from(["", "   ", "#note", "\t#1 2 3", "# 4", "#"])
        inserts = st.lists(st.tuples(st.integers(0, 2048), noise),
                           max_size=4)

        @hypothesis.given(states(), inserts, st.sampled_from([" ", "\t"]),
                          st.sampled_from(["\n", "\r\n"]))
        def check(state, insert, sep, end):
            text = reference_dump_state(state)
            assert dump_state(state) == text
            lines = [sep.join(line.split(" ")) for line in text.splitlines()]
            for at, line in insert:
                lines.insert(at % (len(lines) + 1), line)
            file = end.join(lines) + end
            assert (load_outcome(load_state, file)
                    == load_outcome(reference_load_state, file))

        check()

    @pytest.mark.parametrize("other", ["cap", "zeros", "malformed"])
    def test_repeated_mode_with_another_fault(self, other):
        # a repeated mode together with a mode past the cap, with all-zero
        # amplitudes, or with a malformed line before or after it: a line
        # fault comes before every fault of the state, and the first
        # faulty line is named
        rng = random.Random(other)
        for _ in range(200):
            modes = [rng.randint(-3, 3) for _ in range(rng.randint(1, 6))]
            modes.insert(rng.randint(0, len(modes)), rng.choice(modes))
            if other == "cap":
                modes.insert(rng.randint(0, len(modes)),
                             rng.choice([513, -513, 600, 10**20]))
            amps = (["0"] if other == "zeros" else ["0", "1", "-0.5"],
                    ["0", "-0.0"] if other == "zeros" else ["0", "2"])
            lines = [f"{m} {rng.choice(amps[0])} {rng.choice(amps[1])}"
                     for m in modes]
            if other == "malformed":
                lines.insert(rng.randint(0, len(lines)),
                             rng.choice(["1 1", "x 1 0", "1 y 0", "1 1 0 0"]))
            text = "\n".join([f"theta {rng.choice(['0', '2', 'inf'])}",
                              *lines]) + "\n"
            outcome = load_outcome(reference_load_state, text)
            assert outcome[0] is ValueError and outcome[1].startswith("line ")
            assert load_outcome(load_state, text) == outcome


def refuses_hbar(capsys, hbar) -> bool:
    """Whether ``qring`` refuses --hbar with its usage error, before it
    reads a --tol that is bad too: hbar is the CLI's unit, and main checks
    it first."""
    code = qring.cli.main([f"--hbar={hbar!r}", "--tol", "2", "examples"])
    return capsys.readouterr() == (
        "", "error: hbar must be positive and finite\n") and code == 2


class TestConfigValidation:
    def test_bad_hbar(self, capsys):
        assert refuses_hbar(capsys, 0.0) and refuses_hbar(capsys, -1.0)

    @pytest.mark.parametrize("hbar", [math.inf, math.nan, -math.inf])
    def test_non_finite_hbar(self, capsys, hbar):
        assert refuses_hbar(capsys, hbar)

    @pytest.mark.parametrize("cmp_tol", [0.0, 1.0, -1e-9, 2.0, math.nan])
    def test_cmp_tol_outside_open_unit_interval(self, capsys, cmp_tol):
        # the comparison tolerance is verify_packet's float and --tol,
        # each refused outside (0, 1) before any comparison
        with pytest.raises(ValueError, match=r"^tol must lie in \(0, 1\)$"):
            verify_packet(*mwp_x(1, 0, 2.0), cmp_tol)
        code = qring.cli.main(["--tol", repr(cmp_tol), "examples"])
        assert code == 2 and capsys.readouterr() == (
            "", "error: --tol must lie in (0, 1)\n")
