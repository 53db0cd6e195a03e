"""Tests for qring.mwp: packet construction, closed forms, saturation."""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import qring.bessel
import qring.mwp
from qring.bessel import f_alpha, h_alpha, ratio
from qring.errors import ResolutionError
from qring.mwp import (Axis, VonMisesPacket, _predictions, mwp_x, mwp_y,
                       verify_packet)
from qring.observables import (
    expect_lz,
    expect_xy,
    mean_angle,
    sigma_lz,
    sigma_total,
    sigma_xy,
)
from qring.state import MAX_MODE, Config, from_fourier, uniform_state
from qring.uncertainty import check_ur_x, check_ur_y, detect_fold_symmetry

TWO_PI = 2.0 * math.pi


def max_phase_aligned_deviation(a, b):
    """Max coefficientwise |a - e^(i gamma) b| over the best global phase."""
    ca, cb = a.coeffs(), b.coeffs()
    anchor = max(ca, key=lambda m: abs(ca[m]))
    phase = ca[anchor] / cb[anchor]
    assert abs(abs(phase) - 1.0) < 1e-9
    return max(abs(ca.get(m, 0.0) - phase * cb.get(m, 0.0))
               for m in set(ca) | set(cb))


def jacobi_anger_packet(n, m, alpha, jmax=80):
    """Oracle: X-axis packet coefficients from the plane-wave expansion.

    exp(z sin t) = sum_j I_j(z) (-i)^j exp(i j t) gives mode jn + m the
    amplitude I_j(alpha/2) (-i)^j / sqrt(I0(alpha)); scipy supplies the
    Bessel values, independent of the sampling construction.
    """
    coeffs = {}
    for j in range(-jmax, jmax + 1):
        amp = special.iv(j, alpha / 2) * (-1j) ** (j % 4)
        if abs(amp) > 1e-18:
            coeffs[j * n + m] = amp
    return from_fourier(coeffs)


def jacobi_anger_coeffs(axis, n, m, kappa, trunc_tol=1e-12, kmax=800):
    """Oracle: normalized {mode: amplitude} of either packet from scipy's ive.

    exp(z sin t) = sum_k I_k(z) (-i)^k e^{ikt} (X) and exp(-z cos t) =
    sum_k (-1)^k I_k(z) e^{ikt} (Y), z = kappa/2, order k at mode k n + m;
    weights at most trunc_tol^2 of the total are dropped, as in the library.
    """
    k = np.arange(-kmax, kmax + 1)
    if axis is Axis.X:
        phase = np.exp(-0.5j * np.pi * (k % 4))
    else:
        phase = np.where(k % 2, -1.0, 1.0)
    amps = special.ive(k, 0.5 * kappa) * phase
    weight = np.abs(amps) ** 2
    keep = weight > trunc_tol**2 * weight.sum()
    amps = amps[keep] / math.sqrt(weight[keep].sum())
    return dict(zip((k[keep] * n + m).tolist(), amps.tolist()))


class TestConstruction:
    def test_zero_concentration_is_uniform(self):
        _, s = mwp_x(1, 0, 0.0)
        assert list(s.modes) == [0]
        _, sy = mwp_y(1, 0, 0.0)
        assert list(sy.modes) == [0]

    def test_mean_y_matches_ratio(self):
        _, s = mwp_x(1, 0, 2.0)
        _, ey = expect_xy(s, 1)
        assert ey == pytest.approx(ratio(2.0), abs=1e-9)

    def test_predicted_mean_above_old_cutoff(self):
        # kappa = 16.3 lies between the old series cutoff of 15 and the new
        # one of 20, where the asymptotic series left up to 140 ulp
        mpmath = pytest.importorskip("mpmath")
        ey = verify_packet(*mwp_x(1, 0, 16.3)).predicted.ey
        with mpmath.workdps(40):
            ref = float(mpmath.besseli(1, 16.3) / mpmath.besseli(0, 16.3))
        assert abs(ey / ref - 1.0) <= 8 * np.finfo(float).eps

    @pytest.mark.parametrize("kappa", [20.0, 25.0, 50.0, 1e3, 1e4])
    @pytest.mark.parametrize("axis", list(Axis))
    def test_predicted_conjugate_variance_against_mpmath(self, axis, kappa):
        # 1 - r/kappa - r^2 cancels as r nears 1: it was off by 3.5e-8
        # relative at kappa 1e4; the prediction needs no state
        mpmath = pytest.importorskip("mpmath")
        pred = _predictions(VonMisesPacket(axis, 1, 0, kappa), 1.0)
        across2 = pred.sigma_y2 if axis is Axis.X else pred.sigma_x2
        with mpmath.workdps(60):
            k = mpmath.mpf(kappa)
            r = mpmath.besseli(1, k) / mpmath.besseli(0, k)
            ref = float(1 - r / k - r * r)
        assert abs(across2 / ref - 1.0) <= 8 * np.finfo(float).eps

    def test_mean_y_against_quadrature(self):
        _, s = mwp_x(1, 0, 2.0)
        phi = TWO_PI * np.arange(16384) / 16384
        dens = s.density(phi)
        ey = float(np.mean(dens * np.sin(phi)) * TWO_PI)
        assert expect_xy(s, 1)[1] == pytest.approx(ey, abs=1e-11)

    @pytest.mark.parametrize("n,m,alpha", [(1, 0, 1.0), (2, 1, 3.0),
                                           (3, -2, 5.0), (1, 0, 0.5),
                                           (1, 0, 2.0)])
    def test_against_jacobi_anger(self, n, m, alpha):
        _, s = mwp_x(n, m, alpha)
        ref = jacobi_anger_packet(n, m, alpha)
        assert max_phase_aligned_deviation(ref, s) < 1e-10

    @pytest.mark.parametrize("axis", [Axis.X, Axis.Y])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_exact_coefficients(self, axis, n):
        # no global phase freedom: the coefficients themselves must match;
        # a packet whose oracle modes pass the cap must raise instead
        build = mwp_x if axis is Axis.X else mwp_y
        for m in range(-3, 4):
            for kappa in (0.5, 3.0, 40.0, 1000.0, 5000.0):
                for signed in (kappa, -kappa):
                    ref = jacobi_anger_coeffs(axis, n, m, signed)
                    if max(map(abs, ref)) > MAX_MODE:
                        assert n > 1  # n = 1 fits every kappa here
                        with pytest.raises(ResolutionError):
                            build(n, m, signed)
                        continue
                    got = build(n, m, signed)[1].coeffs()
                    assert got.keys() == ref.keys()
                    assert max(abs(got[k] - ref[k]) for k in ref) <= 1e-13

    def test_three_peaks(self):
        _, s = mwp_x(3, 0, 2.0)
        phi = TWO_PI * np.arange(1, 2049) / 2048  # avoid duplicate endpoint
        mag = np.abs(s.evaluate(phi))
        peaks = [p for i, p in enumerate(phi)
                 if mag[i] > mag[i - 1] and mag[i] > mag[(i + 1) % 2048]]
        assert len(peaks) == 3
        expected = [math.pi / 6 + TWO_PI * k / 3 for k in range(3)]
        for p, e in zip(sorted(peaks), expected):
            assert p == pytest.approx(e, abs=TWO_PI / 2048 + 1e-12)

    def test_norm_const_matches_peak(self):
        # |psi(pi/2)| = exp(alpha/2) * norm_const for the n=1 X packet
        pk, s = mwp_x(1, 0, 2.0)
        assert abs(s.evaluate(math.pi / 2)) == pytest.approx(
            math.e * verify_packet(pk, s).predicted.norm_const, rel=1e-12)

    def test_mean_angle_points_up(self):
        _, s = mwp_x(1, 0, 2.0)
        assert mean_angle(s) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_unresolvable_concentration(self):
        # order 707 of the kappa = 2e4 packet keeps weight past the cap 512
        with pytest.raises(ResolutionError):
            mwp_x(1, 0, 2e4)

    @pytest.mark.parametrize("kappa", [1e7, -1e300, 1.7e308])
    def test_far_beyond_cap_raises_early(self, kappa):
        with pytest.raises(ResolutionError, match="cap"):
            mwp_y(1, 0, kappa)

    @pytest.mark.parametrize("m", [600, -513])
    def test_mode_alone_breaks_cap(self, m, monkeypatch):
        # rejected before any Bessel work, at every concentration
        def fail(*args):
            raise AssertionError("ik_scaled called")
        monkeypatch.setattr(qring.mwp, "ik_scaled", fail)
        monkeypatch.setattr(qring.bessel, "ik_scaled", fail)
        message = f"mode index {abs(m)} exceeds the cap 512"
        for kappa in (1.0, 1e7, 1e300):
            with pytest.raises(ResolutionError, match=message):
                mwp_x(1, m, kappa)

    @pytest.mark.parametrize("n,m", [(1, 0), (1, 3), (2, -1), (5, 2)])
    def test_cap_boundary_matches_oracle(self, n, m):
        # bisect the largest kappa that fits the cap; in exact arithmetic
        # the first order past the cap must be dropped there and kept at
        # the next float.  scipy's ive is no oracle this close: at order 513
        # it is 7e-14 off, and keeps the order at the (1, 0) boundary.
        mpmath = pytest.importorskip("mpmath")
        lo, hi = 1.0, 1e5
        for _ in range(60):
            mid = math.sqrt(lo * hi)
            try:
                mwp_x(n, m, mid)
                lo = mid
            except ResolutionError:
                hi = mid
        assert hi == math.nextafter(lo, math.inf)
        k = (MAX_MODE - abs(m)) // n + 1
        for kappa, fits in ((lo, True), (hi, False)):
            with mpmath.workdps(40):
                z = mpmath.mpf(kappa) / 2
                # the weights I_k(z)^2 of all orders sum to I_0(2z)
                kept = (mpmath.besseli(k, z) ** 2
                        > mpmath.mpf("1e-24") * mpmath.besseli(0, 2 * z))
            assert kept is not fits

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            mwp_x(0, 0, 1.0)
        with pytest.raises(ValueError):
            mwp_y(1, 0, math.inf)

    @pytest.mark.parametrize("build", [mwp_x, mwp_y])
    @pytest.mark.parametrize("hbar,n,kappa", [
        (1e308, 2, 5.0),      # (n hbar/2)^2 raises
        (1e154, 1, 5000.0),   # kappa r (n hbar/2)^2 rounds to inf
        (1e154, 1, -5000.0)])
    def test_overflowing_lz_prediction_is_named(self, build, hbar, n, kappa):
        # building the packet reads no hbar; its verification does
        pk, s = build(n, 0, kappa)
        with pytest.raises(OverflowError,
                           match=r"sigma_Lz\^2 prediction.*smaller hbar"):
            verify_packet(pk, s, Config(hbar=hbar))

    def test_large_finite_lz_prediction(self):
        pk, s = mwp_x(1, 0, 5000.0)
        v = verify_packet(pk, s, Config(hbar=1e150))
        assert math.isfinite(v.predicted.sigma_lz2)

    def test_packet_is_only_its_parameters(self):
        # no builder takes a Config; the predictions come from verify_packet
        pk, _ = mwp_y(2, 1, 5.0)
        assert dataclasses.astuple(pk) == (Axis.Y, 2, 1, 5.0)
        with pytest.raises(TypeError):
            mwp_x(1, 0, 2.0, Config(hbar=2.0))


class TestCapReach:
    """The README's figures for the reach of the mode cap at m = 0."""

    # floor of the largest |kappa| that fits the cap, by n; the reach is
    # 10433.77, 2577.14, 1127.57 and 634.89
    FLOORS = {1: 10433, 2: 2577, 3: 1127, 4: 634}

    def test_readme_figures(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = " ".join(readme.read_text().split())
        found = re.search(r"allows `\|kappa\|` up to about (\d+) "
                          r"\(`kappa = (\d+)` keeps (\d+) modes\); the "
                          r"reach shrinks roughly as `1/n\^2`", text)
        about, kappa, modes = map(int, found.groups())
        assert about == self.FLOORS[1] + 1
        assert mwp_x(1, 0, float(kappa))[1].modes.size == modes

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_floor_builds_and_ceiling_raises(self, n):
        floor = self.FLOORS[n]
        for kappa in (floor, -floor):
            mwp_x(n, 0, float(kappa))
            with pytest.raises(ResolutionError):
                mwp_x(n, 0, math.copysign(floor + 1.0, kappa))
        # roughly 1/n^2
        assert floor * n * n == pytest.approx(self.FLOORS[1], rel=0.05)


class TestVerifyPacket:
    @pytest.mark.parametrize("n,m,kappa", [(1, 0, 2.0), (1, 0, 0.0),
                                           (2, 1, 5.0), (3, -1, 1.5)])
    def test_x_packets_verify(self, n, m, kappa):
        pk, s = mwp_x(n, m, kappa)
        v = verify_packet(pk, s)
        assert v.ok, v.deltas

    @pytest.mark.parametrize("n,m,kappa", [(1, 0, 2.0), (2, 0, 4.0),
                                           (1, 2, 1.0)])
    def test_y_packets_verify(self, n, m, kappa):
        pk, s = mwp_y(n, m, kappa)
        v = verify_packet(pk, s)
        assert v.ok, v.deltas

    def test_specific_lz_closed_form(self):
        pk, s = mwp_x(2, 1, 5.0)
        assert expect_lz(s) == pytest.approx(1.0, abs=1e-10)
        assert sigma_lz(s) ** 2 == pytest.approx(5.0 * ratio(5.0), abs=1e-9)

    def test_zero_concentration_variance(self):
        pk, s = mwp_x(1, 0, 0.0)
        v = verify_packet(pk, s)
        assert v.predicted.sigma_x2 == 0.5
        assert v.ok

    @pytest.mark.parametrize("kappa", [1e-158, -1e-200, 5e-324])
    @pytest.mark.parametrize("build", [mwp_x, mwp_y])
    def test_tiny_concentration_variances(self, build, kappa):
        # h_alpha ~ kappa^2/4 underflows and I1 ~ kappa/2 rounds to 0 at the
        # least subnormal; both variances stay at their limit 1/2
        pk, s = build(1, 0, kappa)
        v = verify_packet(pk, s)
        assert (v.predicted.sigma_x2, v.predicted.sigma_y2) == (0.5, 0.5)
        assert v.ok, v.deltas

    def test_mismatch_reported_not_raised(self):
        pk, _ = mwp_x(1, 0, 2.0)
        _, other = mwp_x(1, 0, 3.0)
        v = verify_packet(pk, other)
        assert not v.ok
        assert max(abs(d) for d in v.deltas.values()) > 1e-3

    def test_negative_concentration(self):
        pk, s = mwp_x(1, 0, -2.0)
        assert verify_packet(pk, s).ok

    def test_mwp_y_lz_eigenvalue(self):
        _, s = mwp_y(1, 2, 1.0)
        assert expect_lz(s) == pytest.approx(2.0, abs=1e-10)

    def test_variance_closed_forms(self):
        alpha = 4.0
        _, s = mwp_x(1, 0, alpha)
        sx, sy = sigma_xy(s, 1)
        r = ratio(alpha)
        assert sx * sx == pytest.approx(r / alpha, abs=1e-10)
        assert sy * sy == pytest.approx(1 - r / alpha - r * r, abs=1e-10)

    @pytest.mark.parametrize("kappa", [1000.0, -1400.0])
    def test_mid_range_concentration(self, kappa):
        # past the float64 range of exp(kappa/2) and of the unscaled I0
        pk, s = mwp_x(1, 0, kappa)
        v = verify_packet(pk, s)
        assert v.ok, v.deltas
        assert v.predicted.norm_const == pytest.approx(
            1.0 / math.sqrt(TWO_PI * special.ive(0, kappa))
            * math.exp(-0.5 * abs(kappa)), rel=1e-13)

    @pytest.mark.parametrize("kappa", [3000.0, 6000.0, 7000.0, 8000.0,
                                       10000.0])
    @pytest.mark.parametrize("build", [mwp_x, mwp_y])
    def test_large_concentration_verifies(self, build, kappa):
        # kappa_measured = ey / sigma_x^2 carries ~1e-13 relative error, so
        # its delta is judged relative to |kappa|
        pk, s = build(1, 0, kappa)
        v = verify_packet(pk, s)
        assert v.ok, v.deltas
        assert abs(v.deltas["kappa"]) <= 1e-9 * kappa

    @pytest.mark.parametrize("kappa", [2.0, -40.0, 8000.0])
    def test_kappa_off_by_relative_1e6_fails(self, kappa):
        pk, s = mwp_x(1, 0, kappa)
        shifted = dataclasses.replace(pk, kappa=kappa * (1.0 + 1e-6))
        v = verify_packet(shifted, s)
        assert not v.ok
        assert abs(v.deltas["kappa"]) == pytest.approx(1e-6 * abs(kappa),
                                                       rel=1e-3)

    @pytest.mark.parametrize("build", [mwp_x, mwp_y])
    def test_hbar_and_tolerance_from_config(self, build):
        cfg = Config(hbar=2.0, cmp_tol=1e-7)
        pk, s = build(2, 1, 5.0)
        v = verify_packet(pk, s, cfg)
        assert v.ok and v.tol == 1e-7
        assert v.measured["lz"] == 2.0 * expect_lz(s)
        assert v.measured["sigma_lz2"] == (2.0 * sigma_lz(s)) ** 2
        # the predictions scale with config.hbar
        unit = verify_packet(pk, s).predicted
        assert v.predicted.sigma_lz2 == pytest.approx(4.0 * unit.sigma_lz2,
                                                      rel=1e-15)
        assert dataclasses.replace(v.predicted, sigma_lz2=0.0) == (
            dataclasses.replace(unit, sigma_lz2=0.0))

    def test_measured_moments_reported(self):
        pk, s = mwp_y(2, 1, 5.0)
        v = verify_packet(pk, s)
        assert list(v.measured) == ["ex", "ey", "sigma_x2", "sigma_y2",
                                    "sigma_lz2", "lz"]
        ex, ey = expect_xy(s, 2)
        sx, sy = sigma_xy(s, 2)
        assert v.measured == {"ex": ex, "ey": ey, "sigma_x2": sx * sx,
                              "sigma_y2": sy * sy,
                              "sigma_lz2": sigma_lz(s) ** 2,
                              "lz": expect_lz(s)}

    def test_high_concentration(self):
        # 50 is the top of the intended concentration range (~200 modes)
        pk, s = mwp_x(1, 0, 50.0)
        assert int(np.abs(s.modes).max()) < 512
        v = verify_packet(pk, s, Config(cmp_tol=1e-8))
        assert v.ok, v.deltas
        assert check_ur_x(s, 1).saturated


class TestPhaseRelations:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_y_is_shifted_x(self, n):
        kappa = 2.0
        _, sy = mwp_y(n, 0, kappa)
        _, sx = mwp_x(n, 0, kappa)
        shifted = sx.rotate(math.pi / (2 * n))
        assert max_phase_aligned_deviation(sy, shifted) < 1e-9

    @pytest.mark.parametrize("n,m", [(1, 0), (2, 1), (3, -1)])
    def test_negated_concentration_is_half_shift(self, n, m):
        _, plus = mwp_x(n, m, 2.5)
        _, minus = mwp_x(n, m, -2.5)
        shifted = plus.rotate(math.pi / n)
        assert max_phase_aligned_deviation(minus, shifted) < 1e-9


class TestSaturation:
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0, 5.0, 10.0])
    def test_x_bound_saturated(self, kappa):
        _, s = mwp_x(1, 0, kappa)
        assert abs(check_ur_x(s, 1).slack) < 1e-9
        assert check_ur_x(s, 1).saturated

    @pytest.mark.parametrize("kappa", [0.5, 2.0, 5.0])
    def test_y_bound_not_saturated(self, kappa):
        _, s = mwp_x(1, 0, kappa)
        rep = check_ur_y(s, 1)
        assert rep.holds and not rep.saturated
        assert rep.slack > 1e-3

    def test_y_gap_closed_form(self):
        _, s = mwp_x(1, 0, 3.0)
        assert check_ur_x(s, 1).slack == pytest.approx(0.0, abs=1e-9)
        assert check_ur_y(s, 1).slack == pytest.approx(
            0.5 * math.sqrt(h_alpha(3.0)), abs=1e-8)

    def test_uniform_gap_zero(self):
        assert check_ur_x(uniform_state(), 1).slack == 0.0

    @pytest.mark.parametrize("kappa", [0.5, 2.0, 5.0])
    def test_y_packet_saturates_y_bound(self, kappa):
        _, s = mwp_y(1, 0, kappa)
        assert check_ur_y(s, 1).saturated

    def test_periodicity_gate(self):
        for n, m, kappa in [(1, 0, 2.0), (2, -1, 4.0), (4, 2, 1.0)]:
            _, s = mwp_x(n, m, kappa)
            ex, _ = expect_xy(s, n)
            assert abs(ex) < 1e-10
            assert abs(expect_lz(s) - m) < 1e-10


class TestTotalBehaviour:
    def test_total_product_is_f_over_two(self):
        values = []
        for alpha in [0.5, 1.0, 2.0, 5.0, 10.0]:
            _, s = mwp_x(1, 0, alpha)
            product = sigma_total(s, 1) * sigma_lz(s)
            assert product == pytest.approx(0.5 * f_alpha(alpha), abs=1e-8)
            values.append(product)
        # decreasing toward hbar/2: the X packet never minimizes the total bound
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.5

    def test_fold_symmetry_of_packets(self):
        for n in (2, 3, 4):
            _, s = mwp_x(n, 0, 2.0)
            assert detect_fold_symmetry(s) == n
