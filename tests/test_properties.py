"""Property tests over generated states: the running-product phase tables
against the direct exp of every (point, frequency) pair, the seam sums of
the window bound against the phase tables, the state file round trip,
every bound over the whole n-series, the size and sign of each per-n
slack against exact rational arithmetic, what a rotation keeps and
swaps, the CLI's JSON row tables against ``json.dumps(indent=2)``, the
CLI's documents in units of --hbar against its documents at hbar = 1,
and no NaN or inf behind a true verdict."""

import contextlib
import copy
import dataclasses
import decimal
import io
import json
import math
import pickle
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qring.cli
from qring.mwp import mwp_x, mwp_y, verify_packet
from qring.observables import (_R_ZERO, angle_moments_beta, expect_lz,
                               sigma_lz, sigma_total, sigma_xy)
from qring.state import MAX_MODE, dump_state, from_fourier, load_state
from qring.uncertainty import (
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

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# the strategy exists only once hypothesis has imported
from conftest import (exact_lz, exact_rho, gaussian_coeffs,  # noqa: E402
                      states)

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
    # compared field by field: float.hex tells apart any two floats, zero
    # signs included, and type() a bool from a numpy bool
    nmax = state.mode_span + 2
    rows = series_columns(state, nmax)
    for check, family in ((check_ur_x, "x_axis"), (check_ur_y, "y_axis"),
                          (check_total_ur, "total")):
        for row in rows:
            scalar, column = check(state, row.n), getattr(row, family)
            assert len(column) == len(URReport._fields)
            for name, want, got in zip(URReport._fields, scalar, column):
                where = (family, row.n, name)
                assert type(got) is type(want), where
                assert (got.hex() == want.hex() if type(want) is float
                        else got == want), where


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
            lambda s: tuple(check_fujikawa(s)),
            lambda s: angle_moments_beta(s, betas),
            lambda s: (detect_fold_symmetry(s), is_fully_symmetric(s)),
            recommend_n, sigma_lz):
        assert pickle.dumps(probe(shifted)) == pickle.dumps(probe(twin))
    assert expect_lz(shifted) == expect_lz(twin) + theta / TWO_PI


@hypothesis.given(states())
def test_every_bound_holds_over_the_series(state):
    # theorems at every n up to the span and at every boundary phase, on
    # finite sides; the one infinite side is the TOTAL left side of an
    # isotropic harmonic, R_n below its rounding bound
    r_zero = _R_ZERO[state.harmonics.size]
    for row in series_columns(state, max(state.mode_span, 1)):
        for _, _, lhs, rhs, slack, holds, _ in (row.x_axis, row.y_axis,
                                                row.total):
            assert holds
            assert not math.isnan(lhs)
            assert not math.isnan(slack)
            assert math.isfinite(rhs)
        assert math.isfinite(row.x_axis[2])
        assert math.isfinite(row.y_axis[2])
        assert math.isinf(row.total[2]) == (row.r_n < r_zero)
    rep = check_fujikawa(state)
    assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs)
    assert rep.holds


def exact_sides(coeffs, n):
    """Oracle: (check, lhs^2, rhs^2) of the X_AXIS, Y_AXIS and TOTAL
    bounds at n, each squared side an exact Fraction; the TOTAL lhs^2 is
    None where R_n = 0, whose left side is infinite."""
    xn, yn = exact_rho(coeffs, n)  # <X_n> = Re rho_n, <Y_n> = -Im rho_n
    x2n, _ = exact_rho(coeffs, 2 * n)
    _, var_lz = exact_lz(coeffs)
    sides = [(check_ur_x, ((1 + x2n) / 2 - xn * xn) * var_lz,
              n * n * yn * yn / 4),
             (check_ur_y, ((1 - x2n) / 2 - yn * yn) * var_lz,
              n * n * xn * xn / 4)]
    r2 = xn * xn + yn * yn
    total = (1 - r2) * var_lz / (n * n * r2) if r2 else None
    return sides + [(check_total_ur, total, Fraction(1, 4))]


def decimal_sqrt(q):
    """The square root of a Fraction q >= 0 to 60 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        return (decimal.Decimal(q.numerator)
                / decimal.Decimal(q.denominator)).sqrt()


@hypothesis.settings(max_examples=100)
@hypothesis.given(gaussian_coeffs())
@hypothesis.example({512: 9 - 4j})  # an eigenstate: each side exactly 0
def test_slack_signs_match_exact_rationals(coeffs):
    # the library's slack is within 8 gamma_M max(1, lhs) of the exact
    # slack, gamma_M = M u/(1 - M u) over the M modes, at any |<L_z>|;
    # where the exact slack exceeds that bound, its sign is that of
    # lhs^2 - rhs^2, decided with no tolerance
    state = from_fourier(coeffs)
    mu = len(coeffs) * EPS / 2.0  # M u
    gamma = decimal.Decimal(mu / (1.0 - mu))
    for n in (1, 2, 3):
        for check, lhs2, rhs2 in exact_sides(coeffs, n):
            slack = check(state, n).slack
            if lhs2 is None:
                assert slack == math.inf
                continue
            lhs = decimal_sqrt(lhs2)
            exact = lhs - decimal_sqrt(rhs2)
            bound = 8 * gamma * max(1, lhs)
            assert abs(decimal.Decimal(slack) - exact) <= bound, (check, n)
            if abs(exact) > bound:
                assert (slack > 0.0) == (lhs2 > rhs2), (check, n, slack)


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
    dvar = 64.0 * EPS * pair[0] ** 2 + (16.0 * EPS * reach) ** 2
    return pair, root_error(pair[0], pair[1], dvar)


@hypothesis.given(states(), angles)
def test_rotation_keeps_resultants_spreads_and_total_slack(state, delta):
    turned = state.rotate(delta)
    dr = harmonic_error(state, delta)
    nmax = max(state.mode_span, 1)
    # the series as arrays over n: n, r_n, sigma_n and the TOTAL slack
    a, b = ({"n": np.array([row.n for row in rows]),
             "r_n": np.array([row.r_n for row in rows]),
             "sigma_n": np.array([row.sigma_n for row in rows]),
             "slack": np.array([row.total[4] for row in rows])}
            for rows in (series_columns(state, nmax),
                         series_columns(turned, nmax)))
    assert np.all(np.abs(a["r_n"] - b["r_n"]) <= dr)
    assert detect_fold_symmetry(turned) == detect_fold_symmetry(state)
    slz, dlz = lz_error(state, turned)
    assert abs(slz[0] - slz[1]) <= dlz
    # sigma_n is infinite below the rounding bound of R_n, which rounding
    # may cross
    r_lo = np.minimum(a["r_n"], b["r_n"])
    same_inf = np.isinf(a["sigma_n"]) == np.isinf(b["sigma_n"])
    assert np.all(same_inf | (r_lo < _R_ZERO[state.harmonics.size] + dr))
    finite = np.isfinite(a["sigma_n"]) & np.isfinite(b["sigma_n"])
    n = a["n"][finite]
    r0, r1 = a["r_n"][finite], b["r_n"][finite]
    s0, s1 = a["sigma_n"][finite], b["sigma_n"][finite]
    # sigma_n = q / (n R) with q = sqrt(1 - R^2)
    q0, q1 = (np.sqrt(np.maximum(1.0 - r * r, 0.0)) for r in (r0, r1))
    r, sn = np.minimum(r0, r1), np.maximum(s0, s1)
    dsn = root_error(q0, q1, 4.0 * dr) / (n * r) + sn * dr / r + 4.0 * EPS * sn
    assert np.all(np.abs(s0 - s1) <= dsn)
    # the TOTAL left side sigma_n sigma_Lz against the fixed hbar/2
    dlhs = dsn * slz.max() + sn * dlz + 8.0 * EPS * sn * slz.max()
    slack = np.abs(a["slack"][finite] - b["slack"][finite])
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


# units the CLI must print in with every verdict as at hbar = 1, two in
# which most documents overflow, and two in which most underflow
HBARS = (2.0**-40, 1e-12, 1.0, 1e8, 2.0**60)
OVERFLOWING = (1e306, 1.7e308)
UNDERFLOWING = (1e-300, 5e-324)
# the exact axis-saturating packets: the X packet saturates the X_AXIS
# bound at its own n, the Y packet the Y_AXIS bound
PACKETS = [(build, n, m, kappa) for build in (mwp_x, mwp_y)
           for n in (1, 2, 3) for m in (-3, 0, 7)
           for kappa in (0.5, 2.0, 5.0, 50.0, 500.0)]


def run_cli(*argv):
    """(exit code, stdout, stderr) of an in-process ``qring`` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qring.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_main(*argv):
    """(exit code, JSON document) of an in-process ``qring`` run."""
    code, out, _ = run_cli(*argv)
    return code, json.loads(out)


def packet_argv(build, n, m, kappa):
    """The ``qring mwp`` options of a packet of PACKETS."""
    return ["mwp", "--axis", "X" if build is mwp_x else "Y", "--n", str(n),
            "--m", str(m), "--kappa", repr(kappa)]


def hexed(obj):
    """A JSON document with each float replaced by its ``float.hex``, so
    that == compares the bits of every float, zero signs included."""
    if isinstance(obj, dict):
        return {key: hexed(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [hexed(value) for value in obj]
    return obj.hex() if type(obj) is float else obj


def in_units_of(hbar, unit):
    """Oracle: the ``report`` or ``mwp`` document at --hbar, from the
    document ``unit`` at hbar = 1, as (document, None): each measured or
    predicted value of degree p in hbar multiplied by hbar p times, each
    slack and delta the difference of the two values it compares at hbar,
    and every other value, each verdict included, unchanged.  Or (None,
    error line), naming the first value that is finite at hbar = 1 and
    infinite at hbar, or normal at hbar = 1 and zero or subnormal at hbar,
    or the first difference of finite values that is infinite at hbar, as
    is its unit difference multiplied by hbar; in the documented order:
    for report the bounds by n (X, Y, TOTAL), sigma_Lz, then the window
    bound; for mwp sigma_lz2, then lz."""
    doc = copy.deepcopy(unit)
    # (name, power, the values, where their difference goes)
    if "uncertainty" in doc:
        doc["hbar"] = hbar
        bounds = [(f"{b['kind']} bound at n={b['n']}", 1,
                   [(b, "lhs"), (b, "rhs")], (b, "slack"))
                  for b in doc["uncertainty"]]
        window = [bound for bound in bounds if bound[0].startswith("FUJI")]
        groups = [bound for bound in bounds if bound not in window]
        groups.append(("sigma_Lz", 1,
                       [(row, "sigma_lz") for row in doc["observables"]],
                       None))
        groups += window
    else:
        measured = doc["measured"]
        deltas = doc["verification"]["deltas"]
        lz = {"lz": float(doc["m"])}  # the predicted <L_z>, not printed
        groups = [(f"sigma_Lz^2 prediction at n={doc['n']}", 2,
                   [(measured, "sigma_lz2"), (doc["predicted"], "sigma_lz2")],
                   (deltas, "sigma_lz2")),
                  ("<L_z>", 1, [(measured, "lz"), (lz, "lz")],
                   (deltas, "lz"))]

    def error(what, flows, hint):
        return None, (f"error: {what} {flows} float64 (hbar={hbar!r}); "
                      f"use a {hint} hbar\n")

    for what, power, places, delta in groups:
        for obj, key in places:
            value = obj[key]
            for _ in range(power):
                obj[key] *= hbar
            if math.isfinite(value) and math.isinf(obj[key]):
                return error(what, "overflows", "smaller")
            if (abs(obj[key]) < sys.float_info.min
                    <= abs(value) < math.inf):
                return error(what, "underflows", "larger")
        if delta is not None:
            (a, a_key), (b, b_key) = places
            obj, key = delta
            if math.isinf(a[a_key] - b[b_key]) and math.isfinite(a[a_key]):
                for _ in range(power):
                    obj[key] *= hbar
                if math.isinf(obj[key]):
                    return error(what, "overflows", "smaller")
            else:
                obj[key] = a[a_key] - b[b_key]
    return doc, None


def assert_units_of_hbar(*argv):
    """The run of argv at each --hbar of HBARS, OVERFLOWING and
    UNDERFLOWING against ``in_units_of`` its run at hbar = 1: the same
    exit code and the scaled document, or exit 2 with the error line
    alone.  Returns the document at hbar = 1."""
    code, out, _ = run_cli(*argv)
    unit = json.loads(out)
    for hbar in (*HBARS, *OVERFLOWING, *UNDERFLOWING):
        want, error = in_units_of(hbar, unit)
        got = run_cli("--hbar", repr(hbar), *argv)
        if error is None:
            assert got[0] == code, (argv, hbar)
            assert hexed(json.loads(got[1])) == hexed(want), (argv, hbar)
        else:
            assert got == (2, "", error), (argv, hbar)
    return unit


def assert_true_verdicts_finite(doc):
    """No NaN or inf behind a true ``holds``, ``saturated``, ``ok`` or
    ``pass`` of a CLI document, but for the documented infinities: the
    TOTAL left side (and slack) of an infinite sigma_n, and the infinite
    rows of a superposition with |k - m| != 1."""
    if "uncertainty" in doc:
        infinite = {row["n"] for row in doc["observables"]
                    if row["sigma_n"] == math.inf}
        for row in doc["uncertainty"]:
            values = [row["lhs"], row["rhs"], row["slack"]]
            if (row["kind"] == "TOTAL" and row["n"] in infinite
                    and not row["saturated"]):
                assert values[0] == values[2] == math.inf, row
                values = values[1:2]
            if row["holds"] or row["saturated"]:
                assert all(map(math.isfinite, values)), row
    elif "cases" in doc:
        for case in doc["cases"]:
            for row in case["checks"]:
                pair = (row["expected"], row["measured"])
                if row["pass"] and pair != (math.inf, math.inf):
                    assert all(map(math.isfinite, pair)), row
                if pair == (math.inf, math.inf):
                    assert case["id"] == "superposition", row
    elif doc["verification"]["ok"]:
        values = [*doc["predicted"].values(), *doc["measured"].values(),
                  *doc["verification"]["deltas"].values()]
        assert all(map(math.isfinite, values)), doc


@hypothesis.settings(max_examples=20)
@hypothesis.given(states())
def test_verdicts_do_not_depend_on_hbar(state):
    # every bound is homogeneous of degree 1 in hbar: the library decides
    # each verdict in units of hbar, and --hbar only scales what report
    # prints, or names the first value that overflows
    nmax = min(state.mode_span, 16) + 1
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.txt"
        path.write_text(dump_state(state))
        assert_units_of_hbar("report", str(path), "--nmax", str(nmax))


def test_packet_verdicts_do_not_depend_on_hbar():
    # each packet saturates its own axis bound in every unit; at
    # hbar = 1e8 only 18 of these 90 checks once read saturated, 3 read
    # holds: false, and packets failed their own verification
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "packet.txt"
        for build, n, m, kappa in PACKETS:
            argv = packet_argv(build, n, m, kappa)
            assert assert_units_of_hbar(*argv)["verification"]["ok"]
            path.write_text(run_cli(*argv, "--emit-state")[1])
            doc = assert_units_of_hbar("report", str(path), "--nmax", "4")
            own = "X_AXIS" if build is mwp_x else "Y_AXIS"
            assert [b["saturated"] for b in doc["uncertainty"]
                    if (b["kind"], b["n"]) == (own, n)] == [True]


@pytest.mark.parametrize("tol", ["1e-9", "1e-17"])
def test_examples_verdicts_do_not_depend_on_hbar(tol):
    # at --tol 1e-17 rounding fails some rows at hbar = 1; a row compared
    # in units of a tiny hbar would pass them
    def passes(hbar):
        code, doc = run_main("--hbar", repr(hbar), "--tol", tol, "examples")
        assert_true_verdicts_finite(doc)
        return code, [(case["id"], row["quantity"], row["pass"])
                      for case in doc["cases"] for row in case["checks"]]

    unit = passes(1.0)
    assert (unit[0] == 0) is (tol == "1e-9")
    for hbar in HBARS:
        assert passes(hbar) == unit


@hypothesis.settings(max_examples=10)
@hypothesis.given(states())
def test_no_nan_or_inf_behind_a_true_verdict(state):
    nmax = min(state.mode_span, 16) + 1
    for n in range(1, nmax + 1):
        for check in (check_ur_x, check_ur_y, check_total_ur):
            rep = check(state, n)
            values = [rep.lhs, rep.rhs, rep.slack]
            if rep.kind.value == "TOTAL" and math.isinf(rep.lhs):
                # the documented infinite sigma_n
                assert math.isinf(sigma_total(state, n))
                assert rep.slack == math.inf and not rep.saturated
                values = [rep.rhs]
            if rep.holds or rep.saturated:
                assert all(map(math.isfinite, values)), rep
    rep = check_fujikawa(state)
    assert not rep.holds or all(
        map(math.isfinite, (rep.lhs, rep.rhs, rep.slack)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.txt"
        path.write_text(dump_state(state))
        for hbar in (1.0, 2.0**60):
            _, doc = run_main("--hbar", repr(hbar), "report", str(path),
                              "--nmax", str(nmax))
            assert_true_verdicts_finite(doc)


def test_no_nan_or_inf_behind_a_true_packet_or_example_verdict():
    for build, n, m, kappa in PACKETS[::9]:
        packet, state = build(n, m, kappa)
        v = verify_packet(packet, state)
        values = [*v.predicted.values(), *v.measured.values(),
                  *v.deltas.values()]
        assert not v.ok or all(map(math.isfinite, values))
    for argv in (["examples"], ["examples", "superposition", "--k", "7"],
                 ["mwp", "--axis", "Y", "--n", "2", "--kappa", "50"]):
        for hbar in HBARS:
            assert_true_verdicts_finite(run_main("--hbar", repr(hbar),
                                                 *argv)[1])
