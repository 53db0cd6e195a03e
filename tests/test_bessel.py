"""Tests for qring.bessel against quadrature, finite-difference, scipy and
mpmath oracles."""

import math

import numpy as np
import pytest
from scipy import special

from qring import bessel
from qring.bessel import (
    _asymptotic,
    _power,
    f_alpha,
    h_alpha,
    i0_scaled,
    i1_scaled,
    ik_scaled,
    ratio,
    von_mises,
)

EPS = np.finfo(float).eps
# points on both sides of the series cutoff at |x| = 20 and of the old one
# at 15, where the asymptotic series left up to 140 ulp
CUTOFF_POINTS = [14.9, 15.05, 16.3, 19.99, 20.0, 20.01, 25.0]


def mp_scaled(x):
    """Oracle: (i0_scaled, i1_scaled, ratio) of x in 40-digit mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        i0e = mpmath.besseli(0, x) * mpmath.exp(-abs(x))
        i1e = mpmath.besseli(1, x) * mpmath.exp(-abs(x))
        return float(i0e), float(i1e), float(i1e / i0e)


def mp_spread(x):
    """Oracle: (f_alpha, h_alpha) of x in 60-digit mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        x = mpmath.mpf(x)
        r = mpmath.besseli(1, x) / mpmath.besseli(0, x)
        return (float(mpmath.sqrt(x * (1 / r - r))),
                float(x * r * (1 - r / x - r * r)))


def per_order_series(nu, x):
    """Oracle: the ascending series of I_nu(x), nu in {0, 1}, one order at
    a time, each stopping at its first term below 1e-16 of its sum."""
    q = 0.25 * x * x
    term = 1.0 if nu == 0 else 0.5 * abs(x)
    total = term
    for k in range(1, 500):
        term *= q / (k * (k + nu))
        total += term
        if term < 1e-16 * total:
            break
    return total


def per_order_values(x):
    """Oracle: (i0_scaled, i1_scaled, ratio, f_alpha, h_alpha) of x != 0,
    |x| < 20, from the per-order series and, for f and h, from r."""
    scale = math.exp(-abs(x))
    i0 = per_order_series(0, x) * scale
    i1 = math.copysign(per_order_series(1, x) * scale, x)
    r = i1 / i0
    return (i0, i1, r, math.sqrt(x * (1.0 - r * r) / r),
            x * r * (1.0 - r / x - r * r))


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
        assert i0_scaled(0.0) == 1.0

    def test_i1_at_zero(self):
        assert i1_scaled(0.0) == 0.0

    def test_i0_at_one_frozen(self):
        # I0(1) frozen from the 1024-node quadrature oracle
        assert i0_scaled(1.0) == pytest.approx(
            1.2660658777520082 * math.exp(-1.0), rel=1e-12)

    def test_i1_at_one_frozen(self):
        assert i1_scaled(1.0) == pytest.approx(
            0.5651591039924851 * math.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 5.0, 8.0, 12.0, 20.0])
    def test_quadrature_agreement(self, x):
        scale = math.exp(-x)
        assert i0_scaled(x) == pytest.approx(i0_quadrature(x) * scale,
                                             rel=1e-10)
        assert i1_scaled(x) == pytest.approx(i1_quadrature(x) * scale,
                                             rel=1e-10)

    @pytest.mark.parametrize("x", [0.3, 1.0, 7.0, 14.9, 15.1, 40.0, 100.0, 650.0])
    def test_scipy_agreement(self, x):
        assert i0_scaled(x) == pytest.approx(float(special.i0e(x)), rel=1e-12)
        assert i1_scaled(x) == pytest.approx(float(special.i1e(x)), rel=1e-12)

    @pytest.mark.parametrize("x", [*CUTOFF_POINTS,
                                   *(-x for x in CUTOFF_POINTS)])
    def test_mpmath_across_cutoff(self, x):
        got = (i0_scaled(x), i1_scaled(x), ratio(x))
        for value, ref in zip(got, mp_scaled(x)):
            assert abs(value / ref - 1.0) <= 8 * EPS, (x, value, ref)

    # 1.7e308: 2 pi x overflows, the prefactor must not
    @pytest.mark.parametrize("x", [0.5, 15.0, 120.0, 800.0, 5000.0, 1.7e308])
    def test_scaled_agreement(self, x):
        assert i0_scaled(x) == pytest.approx(float(special.i0e(x)), rel=1e-12)
        assert i1_scaled(x) == pytest.approx(float(special.i1e(x)), rel=1e-12)

    def test_i0_lower_bound(self):
        # I0 >= 1 and |I1| < I0, scaled by exp(-|x|)
        for x in np.linspace(-100, 100, 101):
            x = float(x)
            assert math.exp(-abs(x)) <= i0_scaled(x) <= 1.0
            assert abs(i1_scaled(x)) < i0_scaled(x)


class TestScaledSequence:
    """ik_scaled: exp(-|x|) I_k(x) for exactly the orders a packet keeps."""

    XS = np.geomspace(1e-3, 1e4, 29)
    # a max_order no argument here needs: the cap proof never fires
    WIDE = bessel._MAX_ORDER

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_matches_scipy(self, sign):
        # scipy's ive drifts by up to 1.3e-13 above x ~ 3e3 (measured
        # against 40-digit mpmath); test_matches_mpmath covers that range
        for x in sign * self.XS[self.XS <= 1e3]:
            seq = ik_scaled(float(x), self.WIDE)
            ref = special.ive(np.arange(seq.size), x)
            assert np.max(np.abs(seq / ref - 1.0)) <= 1e-13, x

    @pytest.mark.parametrize("x", [1e-3, 0.7, 30.0, 1e3, -3e3, 1e4])
    def test_matches_mpmath(self, x):
        mpmath = pytest.importorskip("mpmath")
        seq = ik_scaled(x, self.WIDE)
        with mpmath.workdps(40):
            ref = [float(mpmath.besseli(k, x) * mpmath.exp(-abs(x)))
                   for k in range(seq.size)]
        assert np.max(np.abs(seq / np.array(ref) - 1.0)) <= 1e-14

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_first_orders_match_i0_i1(self, sign):
        for x in sign * self.XS:
            seq = ik_scaled(float(x), self.WIDE)
            assert seq[0] == pytest.approx(i0_scaled(float(x)), rel=1e-13)
            assert seq[1] == pytest.approx(i1_scaled(float(x)), rel=1e-13)

    @pytest.mark.parametrize("x", [1e-3, 0.5, 7.0, -40.0, 900.0])
    def test_keeps_exactly_the_heavy_orders(self, x):
        # sum_k I_k(x)^2 = I_0(2x); the last kept order weighs more than
        # 1e-24 of it, the next one does not
        seq = ik_scaled(x, self.WIDE)
        big_k = seq.size - 1
        last, past = special.ive([big_k, big_k + 1], x) ** 2
        total = special.ive(0, 2 * x)
        assert last > 1e-24 * total
        assert past <= 1e-24 * total

    def test_zero_argument(self):
        assert ik_scaled(0.0, 0).tolist() == [1.0]

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_invalid_arguments(self, x):
        with pytest.raises(ValueError):
            ik_scaled(x, 512)

    def test_negative_max_order(self):
        with pytest.raises(ValueError, match="max_order"):
            ik_scaled(1.0, -1)

    @pytest.mark.parametrize("x", [1e300, -1e300, 1e14, -1e14, 1.7e308])
    def test_huge_argument_rejected_before_allocating(self, x):
        # both answers come at once, not after building a list of
        # ~sqrt(|x|) ratios: at max_order 512 the cap proof returns None;
        # at 2**40 it passes below |x| ~ 1e47 and the recurrence, which
        # would start beyond 2**20 orders, is refused, while above it
        # every single order weighs too little and the proof still answers
        assert ik_scaled(x, 512) is None
        if abs(x) < 1e47:
            with pytest.raises(ValueError, match="ik_scaled argument"):
                ik_scaled(x, 2**40)
        else:
            assert ik_scaled(x, 2**40) is None

    def test_rejected_within_max_order_limit(self):
        # max_order 2**20 allows |x| up to about 5e10, the recurrence only
        # about 1e10
        with pytest.raises(ValueError, match="ik_scaled argument"):
            ik_scaled(2e10, 2**20)

    def test_below_limit_unchanged(self):
        # x = 1e8 needs about 7e4 orders, well inside the limit
        seq = ik_scaled(1e8, self.WIDE)
        assert seq[0] == pytest.approx(i0_scaled(1e8), rel=1e-13)
        assert seq[1] == pytest.approx(i1_scaled(1e8), rel=1e-13)


class TestParityAndIdentities:
    # fixed pseudo-random grid for parity checks
    GRID = np.concatenate([[0.7, 3.1], np.linspace(0.05, 50.0, 37)])

    @pytest.mark.parametrize("x", GRID)
    def test_parity(self, x):
        # exact: each function evaluates |x| and sets the sign
        x = float(x)
        assert i0_scaled(-x) == i0_scaled(x)
        assert i1_scaled(-x) == -i1_scaled(x)
        assert ratio(-x) == -ratio(x)
        assert f_alpha(-x) == f_alpha(x)
        assert h_alpha(-x) == h_alpha(x)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0, 10.0])
    def test_derivative_identity(self, x):
        # I1 = dI0/dx, scaled: d/dx i0_scaled = i1_scaled - i0_scaled for
        # x > 0; central finite difference with step 1e-5
        h = 1e-5
        fd = (i0_scaled(x + h) - i0_scaled(x - h)) / (2 * h)
        assert i1_scaled(x) - i0_scaled(x) == pytest.approx(fd, rel=1e-6)

    def test_i1_at_two_matches_finite_difference(self):
        h = 1e-5
        fd = (i0_scaled(2.0 + h) - i0_scaled(2.0 - h)) / (2 * h)
        assert abs(i1_scaled(2.0) - (fd + i0_scaled(2.0))) < 1e-6

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0, 10.0])
    def test_recurrence(self, x):
        # x I1'(x) + I1(x) = x I0(x); scaled, exp(-x) I1' = g1' + g1 with
        # g1 = i1_scaled, and g1' by central difference
        h = 1e-5
        g1p = (i1_scaled(x + h) - i1_scaled(x - h)) / (2 * h)
        lhs = x * (g1p + i1_scaled(x)) + i1_scaled(x)
        assert lhs == pytest.approx(x * i0_scaled(x), rel=1e-6)


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
        # I0 and I1 both overflow float64 here; their scaled forms do not
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

    @pytest.mark.parametrize("x", [20.0, 20.5, 1e3, 1e4, 1e6, 1e8, 1e12])
    def test_asymptotic_spread_against_mpmath(self, x):
        # 1 - r^2 and 1 - r/x - r^2 cancel as r -> 1; the asymptotic sums
        # do not, so both keep their digits where r rounds to 1
        for value, ref in zip((f_alpha(x), h_alpha(x)), mp_spread(x)):
            assert abs(value / ref - 1.0) <= 8 * EPS, (x, value, ref)

    @pytest.mark.parametrize("x", [1e17, 1e300, 1.7e308])
    def test_spread_bounds_at_huge_argument(self, x):
        # h ~ 1/(2x) is subnormal at 1.7e308, but still positive
        for sx in (x, -x):
            assert f_alpha(sx) >= 1.0
            assert h_alpha(sx) > 0.0
        assert f_alpha(x) == pytest.approx(1.0 + 1.0 / (4.0 * x), rel=1e-15)
        assert h_alpha(x) == pytest.approx(0.5 / x, rel=1e-6)

    def test_f_and_h_sign_on_grid(self):
        for x in np.linspace(-50.0, 50.0, 201):
            x = float(x)
            assert f_alpha(x) >= 1.0
            assert h_alpha(x) >= 0.0
            if x != 0.0:
                assert h_alpha(x) > 0.0


class TestErrorsAndConfig:
    def test_scaled_variants_survive_overflow_range(self):
        # I0 and I1 overflow float64 near x = 713
        for x in (720.0, -720.0, 1e300):
            assert math.isfinite(i0_scaled(x))
            assert math.isfinite(i1_scaled(x))

    @pytest.mark.parametrize("x", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, x):
        for fn in (i0_scaled, i1_scaled, ratio, f_alpha, h_alpha):
            for sx in (x, -x):
                with pytest.raises(ValueError):
                    fn(sx)

    def test_alternate_cutoff_consistent(self):
        # above the cutoff at 20 both series lie within 8 eps of the true
        # value, so within 16 eps of each other, and the switch is seamless;
        # at the old cutoff of 15 the asymptotic terms turn near term 30
        # before they reach the tolerance (they do only above about 17.4),
        # and the sums are off by over 40 eps, so the cutoff cannot sit
        # that low
        def gap(nu, x):
            series = _power(x)[nu] * math.exp(-x)
            sums = 1.0 + _asymptotic(x)[nu] / x
            return abs(sums / math.sqrt(2.0 * math.pi * x) / series - 1.0)

        for nu in (0, 1):
            for x in np.linspace(20.01, 25.0, 12):
                assert gap(nu, float(x)) <= 16 * EPS, (nu, x)
            assert gap(nu, 15.05) > 16 * EPS

    @pytest.mark.parametrize("x", [20.0, -20.0, np.nextafter(20.0, 0.0),
                                   -np.nextafter(20.0, 0.0)])
    def test_one_rule_at_the_cutoff(self, x, monkeypatch):
        # every function is its von_mises projection, and all of them take
        # the asymptotic sums from |x| = 20 on and the power series below
        x = float(x)
        i0, i1, f, h = von_mises(x)
        assert (i0_scaled(x), i1_scaled(x), ratio(x), f_alpha(x),
                h_alpha(x)) == (i0, i1, i1 / i0, f, h)

        def unused(_x):
            raise AssertionError("wrong branch")

        monkeypatch.setattr(bessel, "_power" if abs(x) == 20.0
                            else "_asymptotic", unused)
        for fn in (i0_scaled, i1_scaled, ratio, f_alpha, h_alpha, von_mises):
            fn(x)


class TestOneEvaluation:
    # 3604 points of (-20, 20), both signs, the ends included
    XS = np.random.default_rng(18).uniform(0.0, 20.0, 1800).tolist()
    XS += [np.nextafter(20.0, 0.0), 1e-300]
    XS += [-x for x in XS]

    def test_bits_below_cutoff_match_per_order_series(self):
        # the joint loop stops each order where the per-order loop did
        for x in self.XS:
            got = (i0_scaled(x), i1_scaled(x), ratio(x), f_alpha(x),
                   h_alpha(x))
            assert got == per_order_values(x), x

    @pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, -5e-324])
    def test_limits_at_zero_and_least_subnormal(self, x):
        # at the least subnormal I1 ~ x/2 rounds to 0, where r = 0 would
        # divide f by zero; both take the analytic limits
        assert von_mises(x) == (1.0, 0.0, math.sqrt(2.0), 0.0)
        assert ratio(x) == 0.0
