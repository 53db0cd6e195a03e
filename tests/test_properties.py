"""Property tests over generated states: the running-product phase tables
against the direct exp of every (point, frequency) pair, the seam sums of
the window bound against the phase tables, the state file round trip,
every bound over the whole n-series, what a rotation keeps and swaps, and
the CLI's JSON row tables against ``json.dumps(indent=2)``."""

import contextlib
import dataclasses
import io
import json
import math
import pickle

import numpy as np
import pytest

import qring.cli
from qring.observables import (angle_moments_beta, expect_lz, sigma_lz,
                               sigma_xy)
from qring.state import MAX_MODE, Config, dump_state, from_fourier, load_state
from qring.uncertainty import (
    check_fujikawa,
    check_total_ur,
    check_ur_x,
    check_ur_y,
    detect_fold_symmetry,
    is_fully_symmetric,
    recommend_n,
    series_columns,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# the strategy exists only once hypothesis has imported
from conftest import states  # noqa: E402

TWO_PI = 2.0 * math.pi
EPS = np.finfo(float).eps

points = st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8).map(np.array)


def direct_sums(x, freqs, weights):
    """Oracle: sum_j w_j exp(1j f_j x) with one exp per (point, frequency)."""
    return np.exp(1j * np.outer(x, freqs)) @ weights


def tolerance(x, freqs, weights):
    """8 eps (max |f x| + width) sum |w|: the direct exp of the rounded
    argument f x is off by about |f x| ulp, a product of j rounded steps by
    about j ulp (near x = 0, where |f x| vanishes, that term remains)."""
    reach = np.max(np.abs(x)) * np.max(np.abs(freqs), initial=0.0)
    return 8.0 * EPS * (reach + freqs.size) * np.sum(np.abs(weights))


@hypothesis.given(states(), points)
def test_evaluate_matches_direct_exp(state, x):
    oracle = direct_sums(x, state.mu, state.amps) / math.sqrt(TWO_PI)
    tol = tolerance(x, state.mu, state.amps) / math.sqrt(TWO_PI)
    assert np.max(np.abs(state.evaluate(x) - oracle)) <= tol


@hypothesis.given(states(), points)
def test_window_moments_match_direct_exp(state, betas):
    rho = state.harmonics[1:]
    k = np.arange(1, rho.size + 1, dtype=float)
    u1 = 2.0 * direct_sums(betas, k, rho / k).imag
    u2 = math.pi**2 / 3.0 + 4.0 * direct_sums(betas, k, rho / (k * k)).real
    d1 = 2.0 * tolerance(betas, k, rho / k)
    d2 = 4.0 * tolerance(betas, k, rho / (k * k))
    c = betas + math.pi
    m1, m2, sigma = angle_moments_beta(state, betas)
    # each moment adds a few roundings of its own terms to the sums' error
    assert np.all(np.abs(m1 - (c + u1)) <= d1 + 4.0 * EPS * np.abs(c + u1))
    terms2 = c * c + 2.0 * np.abs(c * u1) + np.abs(u2)
    assert np.all(np.abs(m2 - (c * c + 2.0 * c * u1 + u2))
                  <= 2.0 * np.abs(c) * d1 + d2 + 8.0 * EPS * terms2)
    var = np.maximum(u2 - u1 * u1, 0.0)
    assert np.all(np.abs(sigma * sigma - var)
                  <= d2 + 2.0 * np.abs(u1) * d1 + d1 * d1
                  + 8.0 * EPS * (np.abs(u2) + u1 * u1))


@hypothesis.given(states())
def test_window_bound_seam_sums_match_phase_tables(state):
    # the seam sums take e^{-ik pi} = (-1)^k exactly, the phase tables as k
    # rounded steps; both round u2 to a few ulp, which sigma^2 = u2 - u1^2
    # magnifies by u2 / sigma^2 = 1 + (u1 / sigma)^2, and u1 = <phi> at
    # this window start; the density at the seam comes from the wavefunction
    rep = check_fujikawa(state)
    mean, _, sigma = angle_moments_beta(state, -math.pi)
    lhs = float(sigma) * sigma_lz(state)
    assert abs(rep.lhs - lhs) <= 1e-14 * lhs * (1.0 + (mean / sigma) ** 2)
    rhs = 0.5 * (1.0 - TWO_PI * float(state.density(math.pi)))
    assert abs(rep.rhs - rhs) <= 1e-13


@hypothesis.given(st.integers(-MAX_MODE, MAX_MODE),
                  st.floats(0.0, TWO_PI, exclude_max=True),
                  st.floats(-6.0, 6.0), st.floats(-1e3, 1e3))
def test_rotated_eigenstate_has_no_lz_spread(m, theta, decade, delta):
    # the centred sum leaves the rounding of the mean: an ulp or two of mu
    state = from_fourier({m: 10.0**decade}, theta).rotate(delta)
    assert sigma_lz(state) <= 8.0 * EPS * abs(state.mu[0])


@hypothesis.given(states())
def test_state_file_round_trip_keeps_bits(state):
    back = load_state(dump_state(state))
    assert back.modes.tobytes() == state.modes.tobytes()
    assert back.amps.tobytes() == state.amps.tobytes()
    assert math.copysign(1.0, back.theta) == math.copysign(1.0, state.theta)
    assert back.theta == state.theta


@hypothesis.given(states())
def test_scalar_checks_match_columns_bit_for_bit(state):
    # repr tells apart any two floats, zero signs included, and a bool from
    # a numpy bool.  hbar = 0.37 rounds, so a change in the order of the
    # sigma_Lz product shows in the last bit; 2**-40 and 2**40 hold the
    # bits at units far from 1
    nmax = state.mode_span + 2
    for hbar in (1.0, 0.37, 2.0**-40, 2.0**40):
        cfg = Config(hbar=hbar)
        cols = series_columns(state, nmax, cfg)
        for check, bounds in ((check_ur_x, cols.x_axis),
                              (check_ur_y, cols.y_axis),
                              (check_total_ur, cols.total)):
            scalar = [(r.lhs, r.rhs, r.slack, r.holds, r.saturated)
                      for r in (check(state, n, cfg)
                                for n in range(1, nmax + 1))]
            columns = list(zip(*(field.tolist() for field in bounds)))
            assert repr(scalar) == repr(columns)


@hypothesis.settings(max_examples=10)
@hypothesis.given(states(), st.floats(0.0, TWO_PI, exclude_max=True))
def test_boundary_phase_moves_only_the_mean_lz(state, theta):
    # the density and the centred variance of the integer modes are free
    # of theta, so every verdict equals the periodic twin's bit for bit
    # (pickle keeps every bit of arrays and floats, zero signs included)
    shifted = dataclasses.replace(state, theta=theta)
    twin = dataclasses.replace(state, theta=0.0)
    nmax = min(state.mode_span, 16) + 1
    betas = np.linspace(-7.0, 7.0, 5)
    for probe in (
            lambda s: series_columns(s, nmax),
            lambda s: dataclasses.astuple(check_fujikawa(s)),
            lambda s: angle_moments_beta(s, betas),
            lambda s: (detect_fold_symmetry(s), is_fully_symmetric(s)),
            recommend_n, sigma_lz):
        assert pickle.dumps(probe(shifted)) == pickle.dumps(probe(twin))
    assert expect_lz(shifted) == expect_lz(twin) + theta / TWO_PI


@hypothesis.given(states())
def test_every_bound_holds_over_the_series(state):
    # theorems at every n up to the span and at every boundary phase, on
    # finite sides; the one infinite side is the TOTAL left side of an
    # isotropic harmonic, R_n below cmp_tol
    cols = series_columns(state, max(state.mode_span, 1))
    for bounds in (cols.x_axis, cols.y_axis, cols.total):
        assert bounds.holds.all()
        assert not np.isnan(bounds.lhs).any()
        assert not np.isnan(bounds.slack).any()
        assert np.isfinite(bounds.rhs).all()
    assert np.isfinite(cols.x_axis.lhs).all()
    assert np.isfinite(cols.y_axis.lhs).all()
    isotropic = cols.r_n < Config().cmp_tol
    assert np.all(np.isfinite(cols.total.lhs) | isotropic)
    rep = check_fujikawa(state)
    assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs)
    assert rep.holds


angles = st.floats(-4.0, 4.0)


def harmonic_error(state, delta):
    """Bound on the change of any harmonic rho_k under ``rotate(delta)``:
    each amplitude's phase is off by about |mu delta| ulp, and the
    correlation adds about one ulp per mode."""
    reach = abs(delta) * np.max(np.abs(state.mu))
    return 8.0 * EPS * (state.amps.size + reach + 2.0)


def root_error(a, b, dvar):
    """Bound on |a - b| for square roots a, b >= 0 of values that differ by
    at most dvar: |a - b| = |a^2 - b^2| / (a + b) <= sqrt(|a^2 - b^2|)."""
    return np.minimum(np.sqrt(dvar), dvar / np.maximum(a + b, 1e-300))


def lz_error(state, turned):
    """(sigma_Lz of both states, bound on their difference).

    sigma_Lz^2, the centred sum of w (mu - <mu>)^2, is good to a few ulp of
    itself plus the square of the rounding of the mean <mu>, a few ulp of
    max |mu|; so even near an eigenstate the spread is good to a few ulp of
    max |mu|."""
    pair = np.array([sigma_lz(state), sigma_lz(turned)])
    reach = np.max(np.abs(state.mu))
    dvar = 64.0 * EPS * state.lz_moments[1] + (16.0 * EPS * reach) ** 2
    return pair, root_error(pair[0], pair[1], dvar)


@hypothesis.given(states(), angles)
def test_rotation_keeps_resultants_spreads_and_total_slack(state, delta):
    turned = state.rotate(delta)
    dr = harmonic_error(state, delta)
    nmax = max(state.mode_span, 1)
    a, b = series_columns(state, nmax), series_columns(turned, nmax)
    assert np.all(np.abs(a.r_n - b.r_n) <= dr)
    assert detect_fold_symmetry(turned) == detect_fold_symmetry(state)
    slz, dlz = lz_error(state, turned)
    assert abs(slz[0] - slz[1]) <= dlz
    # sigma_n is infinite below R_n = cmp_tol, which rounding may cross
    r_lo = np.minimum(a.r_n, b.r_n)
    same_inf = np.isinf(a.sigma_n) == np.isinf(b.sigma_n)
    assert np.all(same_inf | (r_lo < 1e-9 + dr))
    finite = np.isfinite(a.sigma_n) & np.isfinite(b.sigma_n)
    n = a.n[finite]
    r0, r1 = a.r_n[finite], b.r_n[finite]
    s0, s1 = a.sigma_n[finite], b.sigma_n[finite]
    # sigma_n = q / (n R) with q = sqrt(1 - R^2)
    q0, q1 = (np.sqrt(np.maximum(1.0 - r * r, 0.0)) for r in (r0, r1))
    r, sn = np.minimum(r0, r1), np.maximum(s0, s1)
    dsn = root_error(q0, q1, 4.0 * dr) / (n * r) + sn * dr / r + 4.0 * EPS * sn
    assert np.all(np.abs(s0 - s1) <= dsn)
    # the TOTAL left side sigma_n sigma_Lz against the fixed hbar/2
    dlhs = dsn * slz.max() + sn * dlz + 8.0 * EPS * sn * slz.max()
    slack = np.abs(a.total.slack[finite] - b.total.slack[finite])
    assert np.all(slack <= dlhs + EPS)


@hypothesis.given(states(), st.integers(1, 16))
def test_quarter_turn_swaps_axis_slacks(state, n):
    # psi(phi - pi/(2n)) turns <X_n>, <Y_n> into -<Y_n>, <X_n>
    delta = math.pi / (2 * n)
    turned = state.rotate(delta)
    dr = harmonic_error(state, delta)
    slz, dlz = lz_error(state, turned)
    pairs = [(check_ur_x(state, n), check_ur_y(turned, n)),
             (check_ur_y(state, n), check_ur_x(turned, n))]
    # the spreads of each pair: sigma_Xn then sigma_Yn', sigma_Yn then
    # sigma_Xn'
    spreads = zip(sigma_xy(state, n), reversed(sigma_xy(turned, n)))
    for (before, after), (s0, s1) in zip(pairs, spreads):
        # sigma_Xn^2 = (1 + <X_2n>)/2 - <X_n>^2 moves by less than 4 dR
        dlhs = root_error(s0, s1, 4.0 * dr) * slz.max() + max(s0, s1) * dlz
        drhs = 0.5 * n * dr + 4.0 * EPS * before.rhs
        assert abs(before.slack - after.slack) <= (
            dlhs + drhs + 8.0 * EPS * (before.lhs + before.rhs))


scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                    st.text(max_size=6))
keys = st.one_of(st.text(max_size=6), st.integers(-9, 9), st.booleans())


@hypothesis.given(st.lists(st.dictionaries(keys, scalars, max_size=5),
                           max_size=5))
def test_row_table_equals_indented_dumps(rows):
    # lists of flat dicts, empty ones included, as json.dumps(indent=2)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        qring.cli._write_json(rows)
    assert buf.getvalue() == json.dumps(rows, indent=2) + "\n"
