"""Tests for qring.bessel against quadrature and finite-difference oracles."""

import math

import numpy as np
import pytest
from scipy import special

from qring.bessel import (
    OVERFLOW_THRESHOLD,
    _series,
    f_alpha,
    h_alpha,
    i0,
    i0_scaled,
    i1,
    i1_scaled,
    ik_scaled,
    ratio,
)


def i0_quadrature(x, nodes=1024):
    """Oracle: trapezoid rule on (1/2pi) int exp(x sin t) dt.

    The integrand is smooth and 2pi-periodic, so the trapezoid rule
    converges spectrally; 1024 nodes give full double precision for
    |x| <= 20.
    """
    t = 2.0 * np.pi * np.arange(nodes) / nodes
    return float(np.mean(np.exp(x * np.sin(t))))


def i1_quadrature(x, nodes=1024):
    """Oracle: trapezoid rule on (1/2pi) int sin(t) exp(x sin t) dt."""
    t = 2.0 * np.pi * np.arange(nodes) / nodes
    return float(np.mean(np.sin(t) * np.exp(x * np.sin(t))))


class TestValues:
    def test_i0_at_zero(self):
        assert i0(0.0) == 1.0

    def test_i1_at_zero(self):
        assert i1(0.0) == 0.0

    def test_i0_at_one_frozen(self):
        # frozen from the 1024-node quadrature oracle
        assert i0(1.0) == pytest.approx(1.2660658777520082, rel=1e-12)

    def test_i1_at_one_frozen(self):
        assert i1(1.0) == pytest.approx(0.5651591039924851, rel=1e-12)

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 5.0, 8.0, 12.0, 20.0])
    def test_quadrature_agreement(self, x):
        assert i0(x) == pytest.approx(i0_quadrature(x), rel=1e-10)
        assert i1(x) == pytest.approx(i1_quadrature(x), rel=1e-10)

    @pytest.mark.parametrize("x", [0.3, 1.0, 7.0, 14.9, 15.1, 40.0, 100.0, 650.0])
    def test_scipy_agreement(self, x):
        assert i0(x) == pytest.approx(float(special.i0(x)), rel=1e-12)
        assert i1(x) == pytest.approx(float(special.i1(x)), rel=1e-12)

    # 1.7e308: 2 pi x overflows, the prefactor must not
    @pytest.mark.parametrize("x", [0.5, 15.0, 120.0, 800.0, 5000.0, 1.7e308])
    def test_scaled_agreement(self, x):
        assert i0_scaled(x) == pytest.approx(float(special.i0e(x)), rel=1e-12)
        assert i1_scaled(x) == pytest.approx(float(special.i1e(x)), rel=1e-12)

    def test_i0_lower_bound(self):
        for x in np.linspace(-100, 100, 101):
            assert i0(float(x)) >= 1.0


class TestScaledSequence:
    """ik_scaled: exp(-|x|) I_k(x) for every order up to the truncation."""

    XS = np.geomspace(1e-3, 1e4, 29)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_matches_scipy(self, sign):
        # scipy's ive drifts by up to 1.3e-13 above x ~ 3e3 (measured
        # against 40-digit mpmath); test_matches_mpmath covers that range
        for x in sign * self.XS[self.XS <= 1e3]:
            seq = ik_scaled(float(x))
            ref = special.ive(np.arange(seq.size), x)
            assert np.max(np.abs(seq / ref - 1.0)) <= 1e-13, x

    @pytest.mark.parametrize("x", [1e-3, 0.7, 30.0, 1e3, -3e3, 1e4])
    def test_matches_mpmath(self, x):
        mpmath = pytest.importorskip("mpmath")
        seq = ik_scaled(x)
        with mpmath.workdps(40):
            ref = [float(mpmath.besseli(k, x) * mpmath.exp(-abs(x)))
                   for k in range(seq.size)]
        assert np.max(np.abs(seq / np.array(ref) - 1.0)) <= 1e-14

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_first_orders_match_i0_i1(self, sign):
        for x in sign * self.XS:
            seq = ik_scaled(float(x))
            assert seq[0] == pytest.approx(i0_scaled(float(x)), rel=1e-13)
            assert seq[1] == pytest.approx(i1_scaled(float(x)), rel=1e-13)

    @pytest.mark.parametrize("x", [1e-3, 0.5, 7.0, -40.0, 900.0])
    @pytest.mark.parametrize("tol", [1e-12, 1e-6])
    def test_truncation_is_first_light_tail(self, x, tol):
        # sum_k I_k(x)^2 = I_0(2x); the tail beyond K is below tol^2 of it,
        # the tail beyond K - 1 is not
        seq = ik_scaled(x, tol)
        big_k = seq.size - 1
        weights = special.ive(np.arange(big_k, big_k + 400), x) ** 2
        total = special.ive(0, 2 * x)
        assert 2 * weights[1:].sum() < tol**2 * total
        assert 2 * weights.sum() >= tol**2 * total

    def test_zero_argument(self):
        assert ik_scaled(0.0).tolist() == [1.0]

    @pytest.mark.parametrize("x,tol", [(math.nan, 1e-12), (math.inf, 1e-12),
                                       (1.0, 0.0), (1.0, 1.0)])
    def test_invalid_arguments(self, x, tol):
        with pytest.raises(ValueError):
            ik_scaled(x, tol)

    @pytest.mark.parametrize("x", [1e300, 1e14, -1e14, 1.7e308])
    def test_huge_argument_rejected_before_allocating(self, x):
        # the recurrence would start beyond 2**20 orders; this must fail
        # at once, not after building a list of ~sqrt(|x|) ratios
        with pytest.raises(ValueError, match="ik_scaled argument"):
            ik_scaled(x)

    def test_below_limit_unchanged(self):
        # x = 1e8 needs about 1e5 orders, well inside the limit
        seq = ik_scaled(1e8)
        assert seq[0] == pytest.approx(i0_scaled(1e8), rel=1e-13)
        assert seq[1] == pytest.approx(i1_scaled(1e8), rel=1e-13)


class TestParityAndIdentities:
    # fixed pseudo-random grid for parity checks
    GRID = np.concatenate([[0.7, 3.1], np.linspace(0.05, 50.0, 37)])

    @pytest.mark.parametrize("x", GRID)
    def test_parity(self, x):
        x = float(x)
        assert i0(-x) == pytest.approx(i0(x), rel=1e-14)
        assert i1(-x) == pytest.approx(-i1(x), rel=1e-14)
        assert ratio(-x) == pytest.approx(-ratio(x), rel=1e-14)
        assert f_alpha(-x) == pytest.approx(f_alpha(x), rel=1e-14)
        assert h_alpha(-x) == pytest.approx(h_alpha(x), rel=1e-14)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0, 10.0])
    def test_derivative_identity(self, x):
        # I1 = dI0/dx, central finite difference with step 1e-5
        h = 1e-5
        fd = (i0(x + h) - i0(x - h)) / (2 * h)
        assert i1(x) == pytest.approx(fd, rel=1e-6)

    def test_i1_at_two_matches_finite_difference(self):
        h = 1e-5
        fd = (i0(2.0 + h) - i0(2.0 - h)) / (2 * h)
        assert abs(i1(2.0) - fd) < 1e-6

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0, 10.0])
    def test_recurrence(self, x):
        # x I1'(x) + I1(x) = x I0(x), with I1' by central difference
        h = 1e-5
        i1p = (i1(x + h) - i1(x - h)) / (2 * h)
        assert x * i1p + i1(x) == pytest.approx(x * i0(x), rel=1e-6)


class TestRatio:
    def test_zero(self):
        assert ratio(0.0) == 0.0

    def test_small_x_expansion(self):
        # ratio ~ x/2 near zero
        assert ratio(0.01) == pytest.approx(0.005, abs=1e-5)

    def test_large_x_expansion(self):
        # ratio ~ 1 - 1/(2x) - 1/(8x^2)
        x = 50.0
        assert ratio(x) == pytest.approx(1 - 1 / (2 * x) - 1 / (8 * x * x), abs=1e-4)

    def test_bounds_and_monotone(self):
        grid = np.linspace(0.01, 200.0, 400)
        vals = [ratio(float(x)) for x in grid]
        assert all(0 < v < 1 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_no_overflow_for_huge_argument(self):
        # both factors overflow individually; the ratio path must not
        assert ratio(5000.0) == pytest.approx(1.0, abs=1e-3)


class TestDerivedFunctions:
    def test_f_limit_at_zero(self):
        assert f_alpha(0.0) == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_f_large_x(self):
        assert 1.0 < f_alpha(50.0) < 1.02

    def test_f_composition(self):
        r = ratio(2.0)
        expected = math.sqrt(2.0 * (1.0 / r - r))
        assert f_alpha(2.0) == pytest.approx(expected, rel=1e-10)

    def test_h_limit_at_zero(self):
        assert h_alpha(0.0) == 0.0

    def test_h_small_x(self):
        # h ~ x^2/4 near zero
        assert h_alpha(0.1) == pytest.approx(0.0025, abs=5e-5)

    def test_h_large_x(self):
        # h ~ 1/(2x) for large x
        assert h_alpha(20.0) == pytest.approx(1.0 / 40.0, abs=1e-3)

    def test_f_and_h_sign_on_grid(self):
        for x in np.linspace(-50.0, 50.0, 201):
            x = float(x)
            assert f_alpha(x) >= 1.0
            assert h_alpha(x) >= 0.0
            if x != 0.0:
                assert h_alpha(x) > 0.0


class TestErrorsAndConfig:
    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            i0(OVERFLOW_THRESHOLD + 10.0)
        with pytest.raises(OverflowError):
            i1(-(OVERFLOW_THRESHOLD + 10.0))

    def test_scaled_variants_survive_overflow_range(self):
        assert math.isfinite(i0_scaled(OVERFLOW_THRESHOLD + 10.0))
        assert math.isfinite(i1_scaled(OVERFLOW_THRESHOLD + 10.0))

    @pytest.mark.parametrize("x", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, x):
        with pytest.raises(ValueError):
            i0(x)

    def test_alternate_cutoff_consistent(self):
        # the power series summed past the fixed cutoff of 15 agrees with
        # the asymptotic branch i0/i1 take there
        for x in [20.0, 24.9, 25.1, 60.0]:
            assert _series(0, x) == pytest.approx(i0(x), rel=1e-12)
            assert _series(1, x) == pytest.approx(i1(x), rel=1e-12)
