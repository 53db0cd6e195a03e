"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to runtime
calibration.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from qring.bessel import f_alpha, h_alpha, i0_scaled, i1_scaled, ratio
from qring.cli import main
from qring.mwp import mwp_x, mwp_y
from qring.observables import (
    angle_moments_beta,
    expect_lz,
    expect_xy,
    mean_resultant,
    sigma_lz,
    sigma_total,
    sigma_xy,
)
from qring.state import (
    cos_harmonic_state,
    dump_state,
    from_fourier,
    random_state,
    sin_half_power_state,
    superposition_state,
    uniform_state,
)
from qring.uncertainty import (
    check_fujikawa,
    check_total_ur,
    check_ur_x,
    check_ur_y,
    detect_fold_symmetry,
)

TWO_PI = 2.0 * math.pi


def verdict(num: int, ok: bool, label: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {label}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_01_superposition_example():
    """Two-mode superpositions: product for adjacent modes, spread for distant."""
    t0 = time.perf_counter()
    failures = []
    for k, m in [(3, 2), (1, 0), (-2, -1), (5, 4)]:
        s = superposition_state(k, m)
        product = sigma_total(s, 1) * sigma_lz(s)
        if abs(product - 0.5 * math.sqrt(3)) > 1e-10:
            failures.append((k, m, product))
    for k, m in [(5, 2), (4, 0), (-3, 3), (7, 2)]:
        s = superposition_state(k, m)
        d = abs(k - m)
        if not math.isinf(sigma_total(s, 1)):
            failures.append((k, m, "finite sigma_r"))
        if abs(sigma_lz(s) - 0.5 * d) > 1e-12:
            failures.append((k, m, sigma_lz(s)))
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(("runtime", elapsed))
    verdict(1, not failures,
            f"superposition example, runtime {elapsed:.3f}s {failures}")


def test_criterion_02_sin_power_example():
    """sin^n(phi/2) closed forms for n = 1..10, odd n anti-periodic."""
    t0 = time.perf_counter()
    failures = []
    for n in range(1, 11):
        s = sin_half_power_state(n)
        ex, _ = expect_xy(s, 1)
        sr = sigma_total(s, 1)
        slz = sigma_lz(s)
        product = sr * slz
        checks = [
            (ex, -n / (n + 1)),
            (sr, math.sqrt(2 * n + 1) / n),
            (slz, 0.5 * n / math.sqrt(2 * n - 1)),
            (product, 0.5 * math.sqrt((2 * n + 1) / (2 * n - 1))),
        ]
        for got, want in checks:
            if abs(got - want) > 1e-9:
                failures.append((n, got, want))
        if n % 2 and s.theta != math.pi:
            failures.append((n, "not anti-periodic"))
    elapsed = time.perf_counter() - t0
    if elapsed >= 2.0:
        failures.append(("runtime", elapsed))
    verdict(2, not failures,
            f"sin^n(phi/2) example, runtime {elapsed:.3f}s {failures}")


def test_criterion_03_von_mises_total_product():
    """Total product of the n=1 packet equals f(alpha)/2, decreasing, f(0)=sqrt2."""
    failures = []
    grid = [0.5, 1.0, 2.0, 5.0, 10.0, 20.0]
    values = []
    for alpha in grid:
        _, s = mwp_x(1, 0, alpha)
        product = sigma_total(s, 1) * sigma_lz(s)
        f = f_alpha(alpha)
        values.append(f)
        if abs(product - 0.5 * f) > 1e-8:
            failures.append((alpha, product, 0.5 * f))
        if f < 1.0:
            failures.append((alpha, "f below 1"))
    if not all(b < a for a, b in zip(values, values[1:])):
        failures.append(("f not decreasing", values))
    if abs(f_alpha(0.0) - math.sqrt(2)) > 1e-10:
        failures.append(("f(0)", f_alpha(0.0)))
    verdict(3, not failures, f"von Mises total product {failures}")


def test_criterion_04_mwp_saturation_sweep():
    """X packets saturate the X bound for every (n, m, alpha) in the sweep."""
    t0 = time.perf_counter()
    failures = []
    for n in range(1, 5):
        for m in range(-2, 3):
            for alpha in [0.5, 1.0, 2.0, 5.0, 10.0]:
                _, s = mwp_x(n, m, alpha)
                sx, _ = sigma_xy(s, n)
                ex, ey = expect_xy(s, n)
                gap = sx * sigma_lz(s) - 0.5 * n * ey
                if abs(gap) > 1e-8:
                    failures.append((n, m, alpha, "gap", gap))
                if abs(expect_lz(s) - m) > 1e-10:
                    failures.append((n, m, alpha, "lz", expect_lz(s)))
                if abs(ex) > 1e-10:
                    failures.append((n, m, alpha, "ex", ex))
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(("runtime", elapsed))
    verdict(4, not failures,
            f"saturation sweep, runtime {elapsed:.2f}s {failures[:3]}")


def test_criterion_05_conjugate_bound_gap():
    """Conjugate-axis product on X packets equals (n/2)^2 h(alpha), never zero."""
    failures = []
    for n in range(1, 5):
        for m in range(-2, 3):
            for alpha in [0.5, 1.0, 2.0, 5.0, 10.0]:
                _, s = mwp_x(n, m, alpha)
                _, sy = sigma_xy(s, n)
                lhs = (sy * sigma_lz(s)) ** 2
                rhs = (0.5 * n) ** 2 * h_alpha(alpha)
                if abs(lhs - rhs) > 1e-8 * rhs:
                    failures.append((n, m, alpha, lhs, rhs))
                if not h_alpha(alpha) > 0.0:
                    failures.append((alpha, "h not positive"))
    verdict(5, not failures, f"conjugate bound gap {failures[:3]}")


def test_criterion_06_harmonic_states():
    """cos(phi) and cos(2phi) statistics at their informative harmonics."""
    failures = []
    s1 = cos_harmonic_state(1)
    for got, want, tol in [
        (mean_resultant(s1, 1), 0.0, 1e-12),
        (sigma_lz(s1), 1.0, 1e-10),
        (expect_xy(s1, 2)[0], 0.5, 1e-10),
        (sigma_total(s1, 2) * sigma_lz(s1), 0.5 * math.sqrt(3), 1e-10),
    ]:
        if abs(got - want) > tol:
            failures.append(("cos phi", got, want))
    s2 = cos_harmonic_state(2)
    for got, want in [
        (mean_resultant(s2, 4), 0.5),
        (sigma_total(s2, 4), 0.25 * math.sqrt(3)),
        (sigma_lz(s2), 2.0),
        (sigma_total(s2, 4) * sigma_lz(s2), 0.5 * math.sqrt(3)),
    ]:
        if abs(got - want) > 1e-10:
            failures.append(("cos 2phi", got, want))
    verdict(6, not failures, f"harmonic states {failures}")


def test_criterion_07_boundary_problem(capsys, tmp_path):
    """Window scan of the uniform state is affine; shift identity on random states."""
    failures = []
    path = tmp_path / "uniform.txt"
    path.write_text(dump_state(uniform_state()))
    code = main(["scan-beta", str(path), "--from", "0",
                 "--to", f"{TWO_PI}", "--step", f"{TWO_PI / 40}"])
    out = capsys.readouterr().out
    if code != 0:
        failures.append(("exit", code))
    worst = 0.0
    for line in out.strip().splitlines()[1:]:
        beta, mean, _ = (float(t) for t in line.split(","))
        worst = max(worst, abs(mean - (beta + math.pi)))
    if worst >= 1e-8:
        failures.append(("scan error", worst))
    for seed in range(20):
        s = random_state(6, seed)
        beta = 0.1 + 0.15 * seed
        lhs = angle_moments_beta(s, beta)[0]
        rhs = angle_moments_beta(s, 0.0)[0] \
            + TWO_PI * quad(s.density, 0.0, beta, limit=200)[0]
        if abs(lhs - rhs) > 1e-7:
            failures.append(("shift", seed, lhs - rhs))
    with capsys.disabled():
        verdict(7, not failures,
                f"boundary problem, scan max err {worst:.2e} {failures}")


def test_criterion_08_theorem_sweep():
    """All four bounds hold for 500 random states at n = 1..8."""
    t0 = time.perf_counter()
    failures = []
    for seed in range(500):
        s = random_state(8, seed)
        for n in range(1, 9):
            for chk in (check_ur_x, check_ur_y, check_total_ur):
                rep = chk(s, n)
                if rep.slack < -1e-9:
                    failures.append((seed, n, rep.kind, rep.slack))
        if not check_fujikawa(s).holds:
            failures.append((seed, "fujikawa"))
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(("runtime", elapsed))
    verdict(8, not failures,
            f"500-state theorem sweep, runtime {elapsed:.2f}s {failures[:3]}")


def test_criterion_09_symmetry_lemma():
    """Detected n-fold symmetry forces off-lattice resultants to vanish."""
    failures = []
    cases = []
    for n in range(2, 7):
        cases.append((n, from_fourier({0: 1.0, n: 0.6, 2 * n: 0.25j})))
        cases.append((n, mwp_x(n, 0, 1.5)[1]))
    cases.append((2, cos_harmonic_state(1)))
    cases.append((4, cos_harmonic_state(2)))
    for n, s in cases:
        detected = detect_fold_symmetry(s)
        if detected != n:
            failures.append((n, "detected", detected))
            continue
        for k in range(1, 9):
            if k % n and mean_resultant(s, k) > 1e-9:
                failures.append((n, k, mean_resultant(s, k)))
    verdict(9, not failures, f"symmetry lemma {failures}")


def test_criterion_10_bessel_suite():
    """Derivative/recurrence identities, expansions, quadrature agreement,
    on the scaled forms g_nu = exp(-x) I_nu for x > 0, where I1 = dI0/dx
    reads g0' = g1 - g0 and x I1' + I1 = x I0 reads
    x (g1' + g1) + g1 = x g0."""
    failures = []
    h = 1e-5
    for x in [0.5, 1.0, 2.0, 5.0, 10.0]:
        g0, g1 = i0_scaled(x), i1_scaled(x)
        fd = (i0_scaled(x + h) - i0_scaled(x - h)) / (2 * h)
        if abs(g1 - g0 - fd) > 1e-6 * abs(fd):
            failures.append(("derivative", x))
        g1p = (i1_scaled(x + h) - i1_scaled(x - h)) / (2 * h)
        if abs(x * (g1p + g1) + g1 - x * g0) > 1e-6 * abs(x * g0):
            failures.append(("recurrence", x))
    if abs(ratio(0.01) - 0.005) > 1e-5:
        failures.append(("small-x ratio", ratio(0.01)))
    if abs(ratio(50.0) - (1 - 0.01 - 1 / 20000)) > 1e-4:
        failures.append(("large-x ratio", ratio(50.0)))
    t = TWO_PI * np.arange(1024) / 1024
    for x in np.linspace(0.0, 20.0, 21):
        scale = math.exp(-x)
        q0 = float(np.mean(np.exp(x * np.sin(t)))) * scale
        q1 = float(np.mean(np.sin(t) * np.exp(x * np.sin(t)))) * scale
        if abs(i0_scaled(float(x)) - q0) > 1e-10 * q0:
            failures.append(("i0 quadrature", x))
        if abs(i1_scaled(float(x)) - q1) > 1e-10 * max(q1, scale):
            failures.append(("i1 quadrature", x))
    verdict(10, not failures, f"bessel suite {failures}")


def test_criterion_11_phase_shift_relation():
    """Y packet equals the X packet rotated by pi/(2n), up to a global phase."""
    failures = []
    for n in (1, 2, 3):
        kappa = 2.0
        _, sy = mwp_y(n, 0, kappa)
        shifted = mwp_x(n, 0, kappa)[1].rotate(math.pi / (2 * n))
        cy, cs = sy.coeffs(), shifted.coeffs()
        anchor = max(cy, key=lambda mode: abs(cy[mode]))
        phase = cy[anchor] / cs[anchor]
        dev = max(abs(cy.get(mode, 0.0) - phase * cs.get(mode, 0.0))
                  for mode in set(cy) | set(cs))
        if dev >= 1e-9:
            failures.append((n, dev))
    verdict(11, not failures, f"phase-shift relation {failures}")
