"""Tests for the qring command-line interface."""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import qring.bessel
import qring.cli
import qring.mwp
from conftest import PACKET_GRID, readme_commands
from qring.cli import MAX_SCAN_ROWS, build_parser, main
from qring.mwp import mwp_x, mwp_y, verify_packet
from qring.observables import (
    angle_moments_beta,
    expect_xy,
    mean_angle,
    mean_resultant,
    sigma_lz,
    sigma_total,
    sigma_xy,
)
from qring.state import (
    cos_harmonic_state,
    dump_state,
    from_fourier,
    load_state,
    random_state,
    sin_half_power_state,
    uniform_state,
)
from qring.uncertainty import (
    check_fujikawa,
    check_total_ur,
    check_ur_x,
    check_ur_y,
    detect_fold_symmetry,
    is_fully_symmetric,
    recommend_n,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(tmp_path, state, name="state.txt"):
    path = tmp_path / name
    path.write_text(dump_state(state))
    return str(path)


# stdout, stderr and exit code of `qring examples` runs, recorded from the
# hand-written cases that the one-table `cli._example` replaced; `python
# tests/test_cli.py` rewrites the file from the current code
EXAMPLES_GOLDEN = Path(__file__).with_name("golden") / "examples.json"
EXAMPLES_ARGV = [
    ["examples"],
    *[["examples", case] for case in qring.cli.CASE_NAMES],
    ["--hbar", "3", "examples"],
    ["--hbar", "1e5", "--tol", "1e-12", "examples"],
    ["--hbar", "1e307", "examples"],
]


def write_examples_golden():
    golden = {}
    for argv in EXAMPLES_ARGV:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        golden[" ".join(argv)] = {"code": code, "out": out.getvalue(),
                                  "err": err.getvalue()}
    EXAMPLES_GOLDEN.parent.mkdir(exist_ok=True)
    EXAMPLES_GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")


# the state files of the failure table, by name
FAILURE_FILES = {
    "zero.txt": b"theta 0\n0 0 0\n1 0 0\n",
    "nan.txt": b"theta 0\n0 nan 0\n1 1 0\n",
    "header.txt": b"theta 0\n",
    "short.txt": b"theta 0\n0 1 0\n1 1\n",
    "bad.txt": b"\xff",
    "wide.txt": b"theta 0\n600 1 0\n",
    "ok.txt": b"theta 0\n0 1 0\n1 0.5 0\n",
    # comment and blank lines around each fault: the line named is the
    # line of the file
    "noisy_header.txt": b"# state\n\nthet 0\n0 1 0\n",
    "noisy_theta.txt": b"\n  # c\ntheta x\n# c\n0 1 0\n",
    "noisy_short.txt": b"#\ntheta 0\n\n0 1 0\n# 1 1 0\n1 1\n\n",
    "noisy_field.txt": b"theta 0\n# c\n0 1 0\n\t\n1 x 0\n# end\n",
    "noisy_dup.txt": b"# c\ntheta 0\n0 1 0\n  # 0 1 0\n\n0 0 1\n#\n",
    "random.txt": dump_state(random_state(6, 11)).encode(),
}
SCAN = ["--from", "0", "--to", "1", "--step", "1"]
# one row per failure site: argv, exit code and the one stderr line, where
# {dir} is the directory of the files above
FAILURES = [
    (["report", "{dir}/zero.txt"], 3,
     "state is not normalizable: state has no nonzero coefficient"),
    (["scan-beta", "{dir}/nan.txt", *SCAN], 3,
     "state is not normalizable: state has a non-finite amplitude"),
    (["report", "{dir}/header.txt"], 3,
     "state is not normalizable: state file lists no coefficients"),
    (["scan-beta", "{dir}/missing.txt", *SCAN], 2,
     "cannot read {dir}/missing.txt: [Errno 2] No such file or directory: "
     "'{dir}/missing.txt'"),
    (["report", "{dir}/short.txt"], 2,
     "cannot parse {dir}/short.txt: line 3: expected 'm re im'"),
    (["report", "{dir}/noisy_header.txt"], 2,
     "cannot parse {dir}/noisy_header.txt: line 3: expected header "
     "'theta <value>'"),
    (["report", "{dir}/noisy_theta.txt"], 2,
     "cannot parse {dir}/noisy_theta.txt: line 3: bad theta value"),
    (["report", "{dir}/noisy_short.txt"], 2,
     "cannot parse {dir}/noisy_short.txt: line 6: expected 'm re im'"),
    (["scan-beta", "{dir}/noisy_field.txt", *SCAN], 2,
     "cannot parse {dir}/noisy_field.txt: line 5: bad numeric field"),
    (["report", "{dir}/noisy_dup.txt"], 2,
     "cannot parse {dir}/noisy_dup.txt: line 6: duplicate mode 0"),
    (["report", "{dir}/bad.txt"], 2,
     "cannot parse {dir}/bad.txt: 'utf-8' codec can't decode byte 0xff in "
     "position 0: invalid start byte"),
    (["report", "{dir}/wide.txt"], 2,
     "cannot parse {dir}/wide.txt: mode index 600 exceeds the cap 512"),
    (["report", "{dir}/ok.txt", "--nmax", "0"], 2,
     "--nmax must lie in [1, 100000]"),
    (["report", "{dir}/ok.txt", "--symmetry-tol", "0"], 2,
     "tol must be positive"),
    (["scan-beta", "{dir}/ok.txt", "--from", "1", "--to", "0", "--step", "1"],
     2, "need finite --from <= --to and --step > 0, with at most 100000 rows"),
    (["mwp", "--axis", "X", "--n", "1", "--kappa", "2", "--points", "0"], 2,
     "--points must lie in [1, 100000]"),
    (["mwp", "--axis", "Y", "--n", "1", "--m", "600", "--kappa", "2"], 2,
     "mode index 600 exceeds the cap 512"),
    (["mwp", "--axis", "X", "--n", "1", "--kappa", "1e300"], 2,
     "concentration 1e+300 needs modes beyond the cap 512"),
    (["--hbar", "1e308", "mwp", "--axis", "X", "--n", "2", "--kappa", "5"], 2,
     "sigma_Lz^2 prediction at n=2 overflows float64 (hbar=1e+308); use a "
     "smaller hbar"),
    (["--hbar", "5e-324", "report", "{dir}/random.txt", "--nmax", "1"], 2,
     "X_AXIS bound at n=1 underflows float64 (hbar=5e-324); use a larger "
     "hbar"),
    (["--hbar", "1e-310", "mwp", "--axis", "X", "--n", "1", "--kappa", "2"],
     2, "sigma_Lz^2 prediction at n=1 underflows float64 (hbar=1e-310); use "
     "a larger hbar"),
    (["examples", "von-mises", "--alpha", "0"], 2,
     "the von Mises example needs a nonzero --alpha"),
    (["examples", "sin-power", "--n", "1025"], 2,
     "mode index 513 exceeds the cap 512"),
    (["--hbar", "1.5e308", "examples", "superposition", "--m", "0"], 2,
     "sigma_lz of the superposition example overflows float64 "
     "(hbar=1.5e+308); use a smaller hbar"),
    (["--hbar", "-1", "examples"], 2, "hbar must be positive and finite"),
    (["--tol", "2", "curve", "f", "--from", "0", "--to", "1", "--step", "1"],
     2, "--tol must lie in (0, 1)"),
]


@pytest.mark.parametrize("argv,code,line", FAILURES,
                         ids=[" ".join(argv) for argv, _, _ in FAILURES])
def test_failure_exit_code_and_message(capsys, tmp_path, argv, code, line):
    for name, text in FAILURE_FILES.items():
        (tmp_path / name).write_bytes(text)
    argv = [token.format(dir=tmp_path) for token in argv]
    assert run_cli(capsys, *argv) == (
        code, "", f"error: {line.format(dir=tmp_path)}\n")


class TestExamples:
    def test_all_cases_pass(self, capsys):
        code, out, err = run_cli(capsys, "examples")
        assert code == 0
        report = json.loads(out)
        assert report["all_pass"]
        assert len(report["cases"]) == 5
        assert "[PASS]" in err and "[FAIL]" not in err

    def test_single_case(self, capsys):
        code, out, _ = run_cli(capsys, "examples", "cos-2phi")
        assert code == 0
        report = json.loads(out)
        assert [c["id"] for c in report["cases"]] == ["cos-2phi"]

    def test_distant_superposition(self, capsys):
        code, out, _ = run_cli(capsys, "examples", "superposition",
                               "--k", "7", "--m", "2")
        assert code == 0
        checks = {c["quantity"]: c
                  for c in json.loads(out)["cases"][0]["checks"]}
        assert checks["sigma_r"]["measured"] == math.inf
        assert checks["sigma_lz"]["measured"] == pytest.approx(2.5)

    def test_sin_power_parameter(self, capsys):
        code, out, _ = run_cli(capsys, "examples", "sin-power", "--n", "7")
        assert code == 0
        checks = {c["quantity"]: c
                  for c in json.loads(out)["cases"][0]["checks"]}
        assert checks["mean_x"]["expected"] == pytest.approx(-7 / 8)

    @pytest.mark.parametrize("n", [1025, 1030, 1100, 10**6])
    def test_sin_power_past_the_cap_exit_2(self, capsys, n):
        # the cap is checked before the binomials, which overflow float64
        # from n = 1030 on
        code, out, err = run_cli(capsys, "examples", "sin-power",
                                 "--n", str(n))
        assert (code, out) == (2, "")
        assert err == (f"error: mode index {(n + 1) // 2} exceeds the cap "
                       f"512\n")

    def test_sin_power_at_the_cap(self, capsys):
        code, out, _ = run_cli(capsys, "examples", "sin-power", "--n", "1024")
        assert code == 0
        assert json.loads(out)["all_pass"]

    def test_unknown_selector_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["examples", "nonsense"])
        assert exc.value.code == 2

    def test_grid_flag_removed(self):
        with pytest.raises(SystemExit) as exc:
            main(["--grid", "4096", "examples"])
        assert exc.value.code == 2

    def test_zero_alpha_rejected(self, capsys):
        code, _, err = run_cli(capsys, "examples", "von-mises",
                               "--alpha", "0")
        assert code == 2
        assert "alpha" in err

    @pytest.mark.parametrize("hbar", ["inf", "nan", "-inf"])
    def test_non_finite_hbar_exit_2(self, capsys, hbar):
        code, out, err = run_cli(capsys, f"--hbar={hbar}", "examples")
        assert code == 2
        assert out == ""
        assert "PASS" not in err

    def test_hbar_scaling(self, capsys):
        code, out, _ = run_cli(capsys, "--hbar", "2", "examples", "cos-phi")
        assert code == 0
        checks = {c["quantity"]: c
                  for c in json.loads(out)["cases"][0]["checks"]}
        assert checks["sigma_lz"]["expected"] == pytest.approx(2.0)
        assert checks["sigma_lz"]["measured"] == pytest.approx(2.0)

    @pytest.mark.parametrize("hbar", ["3e5", "1e100"])
    def test_large_hbar_passes(self, capsys, hbar):
        # quantities that scale with hbar carry a relative rounding error
        code, out, err = run_cli(capsys, "--hbar", hbar, "examples")
        assert code == 0
        assert json.loads(out)["all_pass"]
        assert "[FAIL]" not in err

    @pytest.mark.parametrize("alpha", ["1e-9", "1e-11"])
    def test_resultant_between_rounding_bound_and_tol_exit_0(self, capsys,
                                                             alpha):
        # R_1 = alpha/2 lies below --tol but far above its rounding bound,
        # 7.9e-16 here: the product is finite, 0.7071, not inf
        code, out, err = run_cli(capsys, "examples", "von-mises",
                                 "--alpha", alpha)
        assert code == 0 and "[FAIL]" not in err
        checks = {c["quantity"]: c
                  for c in json.loads(out)["cases"][0]["checks"]}
        assert checks["total_product"]["measured"] == pytest.approx(
            0.5 * math.sqrt(2.0), rel=1e-9)

    @pytest.mark.parametrize("alpha", ["1e-12", "-1e-12", "3e-15", "-3e-15"])
    def test_tiny_alpha_keeps_the_packet_anisotropic_exit_0(self, capsys,
                                                            alpha):
        # below |alpha| = 4e-12 the packet keeps order 1, which weighs
        # under 1e-24 of the total: R_1 = |alpha|/2 stays above its
        # rounding bound, 6.3e-16 for three modes
        code, out, err = run_cli(capsys, "examples", "von-mises",
                                 "--alpha", alpha)
        assert code == 0 and "[FAIL]" not in err
        checks = {c["quantity"]: c
                  for c in json.loads(out)["cases"][0]["checks"]}
        assert checks["mean_y"]["measured"] == pytest.approx(
            0.5 * float(alpha), rel=1e-12)
        assert checks["total_product"]["measured"] == pytest.approx(
            0.5 * math.sqrt(2.0), rel=1e-9)

    def test_resultant_below_rounding_bound_fails_by_design(self, capsys):
        # R_1 = 5e-16 lies below its rounding bound: sigma_1 and the
        # product are infinite, against the finite closed form
        code, out, err = run_cli(capsys, "examples", "von-mises",
                                 "--alpha", "1e-15")
        assert code == 1
        assert "[FAIL] von-mises total_product" in err
        checks = {c["quantity"]: c
                  for c in json.loads(out)["cases"][0]["checks"]}
        assert math.isinf(checks["total_product"]["measured"])

    def test_unread_packet_prediction_does_not_fail(self, capsys):
        # the von Mises packet's sigma_Lz^2 prediction would overflow at
        # 1e307, but the example reads only the packet's state
        code, out, err = run_cli(capsys, "--hbar", "1e307", "examples")
        assert code == 0
        assert json.loads(out)["all_pass"]
        assert "[FAIL]" not in err and "error" not in err
        assert "[PASS] von-mises total_product" in err

    @pytest.mark.parametrize("argv", EXAMPLES_ARGV, ids=" ".join)
    def test_golden_bytes(self, capsys, argv):
        golden = json.loads(EXAMPLES_GOLDEN.read_text())[" ".join(argv)]
        assert run_cli(capsys, *argv) == (golden["code"], golden["out"],
                                          golden["err"])

    @pytest.mark.parametrize("argv,named", [
        (["--hbar", "1.5e308", "examples", "superposition", "--k", "3",
          "--m", "0"], "sigma_lz of the superposition example"),
        (["--hbar", "1e308", "examples", "cos-2phi"],
         "sigma_lz of the cos-2phi example"),
    ], ids=["superposition", "cos-2phi"])
    def test_overflowing_measurement_exit_2(self, capsys, argv, named):
        # an infinite sigma_Lz never passes against an infinite expectation;
        # the first row of degree 1 in hbar, sigma_lz, names the overflow
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "PASS" not in err
        assert named in err
        assert err.endswith("use a smaller hbar\n")


class TestCurve:
    def test_f_starts_at_sqrt2(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "f",
                               "--from", "0", "--to", "10", "--step", "0.1")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "x,value"
        first = float(lines[1].split(",")[1])
        assert first == pytest.approx(math.sqrt(2), abs=1e-12)
        assert len(lines) == 102

    def test_h_quadratic_near_zero(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "h",
                               "--from", "0", "--to", "1", "--step", "0.1")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            x, v = (float(t) for t in line.split(","))
            assert 0.0 <= v <= x * x / 4 + 1e-12
            if x <= 0.4:  # quartic correction grows past here
                assert v == pytest.approx(x * x / 4, abs=5e-3)

    def test_mwp_abs_has_n_peaks(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "mwp_abs",
                               "--from", "0", "--to", "6.28", "--step", "0.01",
                               "--n", "3", "--alpha", "0.6666666666666666")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "phi,abs_psi"
        vals = np.array([float(l.split(",")[1]) for l in lines[1:]])
        peaks = np.sum((vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:]))
        assert peaks == 3

    def test_invalid_range(self, capsys):
        code, _, err = run_cli(capsys, "curve", "f",
                               "--from", "3", "--to", "1", "--step", "0.1")
        assert code == 2
        assert "error" in err

    def test_x_values_are_start_plus_k_step(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "ratio", "--from", "-0.3",
                               "--to", "2.9", "--step", "0.1")
        assert code == 0
        xs = [float(l.split(",")[0]) for l in out.strip().splitlines()[1:]]
        assert xs == (-0.3 + np.arange(33) * 0.1).tolist()

    def test_points_do_not_drift(self, capsys):
        # start + k*step: no rounding builds up, so x = 0 and the end point
        # come out exactly
        code, out, _ = run_cli(capsys, "curve", "ratio", "--from", "-27",
                               "--to", "27", "--step", "0.1")
        assert code == 0
        xs = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
        assert len(xs) == 541
        assert xs[270] == 0.0
        assert xs[-1] == 27.0

    def test_no_point_past_stop(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "ratio", "--from", "0",
                               "--to", "0.96", "--step", "0.1")
        assert code == 0
        xs = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
        assert len(xs) == 10
        assert xs[-1] == 0.9

    @pytest.mark.parametrize("start,stop,step", [
        ("0", str(MAX_SCAN_ROWS), "1"),       # one row past the cap
        ("0", str(MAX_SCAN_ROWS + 0.4), "1"),  # a fraction of a row past
        ("0", "1", "1e-300"),                 # far past the cap
        ("1e20", "1.0000000000000002e20", "1"),  # x + step == x
        ("1e16", "1.0000000000000002e16", "1"),  # step lost on the first add
        ("nan", "1", "0.1"), ("0", "inf", "0.1"), ("0", "1", "0")])
    def test_bad_range_exit_2(self, capsys, start, stop, step):
        code, out, err = run_cli(capsys, "curve", "h", f"--from={start}",
                                 f"--to={stop}", f"--step={step}")
        assert code == 2
        assert out == ""
        assert str(MAX_SCAN_ROWS) in err

    @pytest.mark.parametrize("x", ["9007199254740992", "1e20", "1e300",
                                   "-1e300", "9007199254740991"])
    def test_one_row_range_at_large_x(self, capsys, x):
        # --from == --to is one row k = 0, whatever x + step rounds to:
        # at 2^53 - 1 it is exact, at 2^53 and past it x + 1 rounds onto x
        code, out, err = run_cli(capsys, "curve", "ratio", "--from", x,
                                 "--to", x, "--step", "1")
        assert (code, err) == (0, "")
        value = qring.bessel.ratio(float(x))
        assert out == f"x,value\n{float(x):.17g},{value:.17g}\n"

    def test_row_cap_allows_the_cap(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "ratio", "--from", "0",
                               "--to", str(MAX_SCAN_ROWS - 1), "--step", "1")
        assert code == 0
        assert len(out.splitlines()) == MAX_SCAN_ROWS + 1

    def test_fractional_stop_allows_the_cap(self, capsys):
        # the last point, MAX_SCAN_ROWS - 1, lies 0.6 step below --to
        code, out, _ = run_cli(capsys, "curve", "ratio", "--from", "0",
                               "--to", str(MAX_SCAN_ROWS - 0.4),
                               "--step", "1")
        assert code == 0
        assert len(out.splitlines()) == MAX_SCAN_ROWS + 1

    def test_full_precision_output(self, capsys):
        _, out, _ = run_cli(capsys, "curve", "ratio",
                            "--from", "1", "--to", "1", "--step", "1")
        from qring.bessel import ratio
        value = float(out.strip().splitlines()[1].split(",")[1])
        assert value == ratio(1.0)

    def test_json_flag(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "curve", "ratio",
                               "--from", "0", "--to", "1", "--step", "0.5")
        assert code == 0
        rows = json.loads(out)
        assert rows[0] == {"x": 0.0, "value": 0.0}


class TestReport:
    def test_uniform_state(self, capsys, tmp_path):
        path = write_state(tmp_path, uniform_state())
        code, out, _ = run_cli(capsys, "report", path, "--nmax", "3")
        assert code == 0
        data = json.loads(out)
        assert all(row["r_n"] == 0.0 for row in data["observables"])
        assert all(row["mean_phi"] is None for row in data["observables"])
        assert data["fold_symmetry"]["fully_symmetric"]
        assert data["recommended_n"] is None

    def test_cos_2phi_state(self, capsys, tmp_path):
        from qring.state import cos_harmonic_state
        path = write_state(tmp_path, cos_harmonic_state(2))
        code, out, _ = run_cli(capsys, "report", path, "--nmax", "4")
        assert code == 0
        data = json.loads(out)
        assert data["fold_symmetry"]["n"] == 4
        assert not data["fold_symmetry"]["fully_symmetric"]
        assert data["recommended_n"] == 4
        assert all(u["holds"] for u in data["uncertainty"])

    def test_random_state_all_hold(self, capsys, tmp_path):
        from qring.state import random_state
        path = write_state(tmp_path, random_state(8, 123))
        code, out, _ = run_cli(capsys, "report", path, "--nmax", "6")
        assert code == 0
        data = json.loads(out)
        assert all(u["holds"] for u in data["uncertainty"])
        kinds = {u["kind"] for u in data["uncertainty"]}
        assert kinds == {"X_AXIS", "Y_AXIS", "TOTAL", "FUJIKAWA"}

    def test_quasi_periodic_skips_window_bound(self, capsys, tmp_path):
        path = write_state(tmp_path, sin_half_power_state(3))
        code, out, err = run_cli(capsys, "report", path, "--nmax", "2")
        assert code == 0
        data = json.loads(out)
        assert all(u["kind"] != "FUJIKAWA" for u in data["uncertainty"])
        assert "quasi-periodic" in err

    def test_parse_error_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("theta 0\n0 1 0\nbroken line here\n")
        code, _, err = run_cli(capsys, "report", str(path))
        assert code == 2
        assert "line 3" in err

    def test_zero_state_exit_3(self, capsys, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("theta 0\n0 0 0\n")
        code, _, err = run_cli(capsys, "report", str(path))
        assert code == 3
        assert "normaliz" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "report", str(tmp_path / "nope.txt"))
        assert code == 2

    def test_utf8_comment_under_ascii_locale(self, tmp_path):
        path = tmp_path / "phi.txt"
        path.write_text("# \u03c6 packet\n" + dump_state(random_state(4, 2)),
                        encoding="utf-8")
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
               "PYTHONUTF8": "0"}
        proc = subprocess.run(
            [sys.executable, "-m", "qring.cli", "report", str(path)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["hbar"] == 1.0

    def test_undecodable_byte_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff" + dump_state(random_state(4, 2)).encode())
        code, out, err = run_cli(capsys, "report", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot parse {path}: ")

    @pytest.mark.parametrize("text", [
        b"theta 0\n1 1 0\n",
        dump_state(random_state(4, 2)).encode(),
        dump_state(sin_half_power_state(3)).encode(),
        b"# \xcf\x86 packet\ntheta 0.5\n0 1 0\n2 0 1\n",
        b"theta 0\n0 0 0\n",  # exit 3
        b"theta 0\n0 1 0\n0 0 1\n",  # exit 2, a named line
        b"theta 0\n600 1 0\n",  # exit 2, past the cap
        b"theta 0\n\xff 1 0\n",  # exit 2, not UTF-8 after the mark
    ], ids=["one-mode", "random", "sin-power", "comment", "zero",
            "duplicate", "cap", "undecodable"])
    @pytest.mark.parametrize("argv", [["report"], ["scan-beta", *SCAN]])
    def test_byte_order_mark_is_skipped(self, capsys, tmp_path, text, argv):
        # one leading UTF-8 byte-order mark, as Windows editors write it:
        # the same outcome as the file without it, in a twin directory so
        # that every error names the same path length
        runs = []
        for folder, data in (("a", text), ("b", b"\xef\xbb\xbf" + text)):
            (tmp_path / folder).mkdir()
            path = tmp_path / folder / "state.txt"
            path.write_bytes(data)
            runs.append(run_cli(capsys, argv[0], str(path), *argv[1:]))
        plain, marked = runs
        assert marked == (plain[0], plain[1],
                          plain[2].replace(f"{tmp_path}/a/", f"{tmp_path}/b/"))

    def test_second_byte_order_mark_is_refused(self, capsys, tmp_path):
        path = tmp_path / "twice.txt"
        path.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbftheta 0\n1 1 0\n")
        assert run_cli(capsys, "report", str(path)) == (
            2, "", f"error: cannot parse {path}: line 1: expected header "
            "'theta <value>'\n")

    @pytest.mark.parametrize("amp", ["1e300", "1e-200"])
    def test_extreme_amplitudes_exit_0(self, capsys, tmp_path, amp):
        path = tmp_path / "extreme.txt"
        path.write_text(f"theta 0\n0 {amp} 0\n1 {amp} 0\n")
        code, out, _ = run_cli(capsys, "report", str(path), "--nmax", "2")
        assert code == 0
        assert json.loads(out)["observables"][0]["ex"] == pytest.approx(
            0.5, abs=1e-15)

    @pytest.mark.parametrize("theta", ["inf", "nan"])
    def test_non_finite_theta_exit_2(self, capsys, tmp_path, theta):
        path = tmp_path / "theta.txt"
        path.write_text(f"theta {theta}\n0 1 0\n1 1 0\n")
        code, out, err = run_cli(capsys, "report", str(path))
        assert code == 2
        assert out == ""
        assert "theta must be finite" in err

    @pytest.mark.parametrize("nmax", ["0", "-3"])
    def test_nmax_below_one_exit_2(self, capsys, tmp_path, nmax):
        path = write_state(tmp_path, uniform_state())
        code, out, err = run_cli(capsys, "report", path, "--nmax", nmax)
        assert code == 2
        assert out == ""
        assert "--nmax" in err

    def test_nmax_above_cap_exit_2(self, capsys, tmp_path):
        path = write_state(tmp_path, uniform_state())
        code, out, err = run_cli(capsys, "report", path,
                                 "--nmax", str(MAX_SCAN_ROWS + 1))
        assert code == 2
        assert out == ""
        assert "--nmax" in err and str(MAX_SCAN_ROWS) in err

    def test_nmax_cap_boundary(self, capsys, tmp_path, monkeypatch):
        # a report at the real cap prints about 80 MB, so lower the cap
        monkeypatch.setattr(qring.cli, "MAX_SCAN_ROWS", 5)
        path = write_state(tmp_path, random_state(3, 1))
        code, out, _ = run_cli(capsys, "report", path, "--nmax", "5")
        assert code == 0
        assert len(json.loads(out)["observables"]) == 5
        code, out, _ = run_cli(capsys, "report", path, "--nmax", "6")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("flag,value,key,default,changed", [
        ("--r-threshold", "0.6", "recommended_n", 4, None),
        ("--symmetry-tol", "1e-3", "fold_symmetry", 1, 3),
    ])
    def test_symmetry_flags_reach_the_report(self, capsys, tmp_path, flag,
                                             value, key, default, changed):
        # cos(2 phi) has R_4 = 1/2 and no other harmonic; the second state
        # is 3-fold up to an off-lattice harmonic of about 1e-6
        states = {"recommended_n": cos_harmonic_state(2),
                  "fold_symmetry": from_fourier({0: 1.0, 3: 0.5, 1: 1e-6})}
        path = write_state(tmp_path, states[key])

        def read(*extra):
            code, out, _ = run_cli(capsys, "report", path, *extra)
            assert code == 0
            got = json.loads(out)[key]
            return got["n"] if key == "fold_symmetry" else got

        assert read() == default
        assert read(flag, value) == changed

    @pytest.mark.parametrize("quasi", [False, True])
    @pytest.mark.parametrize("value", ["0", "nan", "-1"])
    @pytest.mark.parametrize("flag", ["--r-threshold", "--symmetry-tol"])
    def test_bad_symmetry_flag_prints_only_the_error(self, capsys, tmp_path,
                                                     flag, value, quasi):
        # a quasi-periodic state adds a note to stderr, after validation
        state = sin_half_power_state(3) if quasi else random_state(6, 11)
        path = write_state(tmp_path, state)
        code, out, err = run_cli(capsys, "report", path, f"{flag}={value}")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("hbar", ["1e-12", "1e8"])
    def test_packet_verdicts_do_not_depend_on_hbar(self, capsys, tmp_path,
                                                   hbar):
        # the n = 3 X packet saturates its X_AXIS bound at n = 3 and no
        # other row; at 1e8 that slack read -1.49e-8 and the report exited
        # 1, at 1e-12 ten of its thirteen rows read saturated
        path = write_state(tmp_path, mwp_x(3, 0, 5.0)[1])

        def flags(*argv):
            code, out, _ = run_cli(capsys, *argv, "report", path)
            assert code == 0
            return [(c["kind"], c["n"], c["holds"], c["saturated"])
                    for c in json.loads(out)["uncertainty"]]

        unit = flags()
        assert [row[:2] for row in unit if row[3]] == [("X_AXIS", 3)]
        assert flags("--hbar", hbar) == unit

    def test_large_hbar_exit_0(self, capsys, tmp_path):
        # every side of every bound is finite at this hbar
        path = write_state(tmp_path, random_state(6, 11))
        code, out, _ = run_cli(capsys, "--hbar", "1e306", "report", path,
                               "--nmax", "8")
        assert code == 0
        assert all(c["holds"] for c in json.loads(out)["uncertainty"])

    @pytest.mark.parametrize("hbar", ["1e307", "1e308", "1.7e308"])
    def test_overflow_exit_2(self, capsys, tmp_path, hbar):
        # at 1e307 the n = 1 total lhs, 19.5 * 3.5e307, passes 1.8e308;
        # at 1e308 both sides of ten checks did, and read as NaN slack
        path = write_state(tmp_path, random_state(6, 11))
        code, out, err = run_cli(capsys, "--hbar", hbar, "report", path,
                                 "--nmax", "8")
        assert code == 2
        assert out == ""
        assert "overflows float64" in err

    def test_window_overflow_prints_python_floats(self, capsys, tmp_path):
        # R_n = 0 below n = 100 leaves every TOTAL lhs infinite by
        # definition and both axis spreads at 0.71, so at this hbar only
        # the window bound's lhs, 1.8 sigma_Lz, overflows; its error line
        # reads like the others, with no numpy warning before it, and names
        # the hbar of the overflow
        path = tmp_path / "wide.txt"
        path.write_text("theta 0\n0 1 0\n100 1 0\n")
        code, out, err = run_cli(capsys, "--hbar", "3e306", "report",
                                 str(path))
        assert code == 2
        assert out == ""
        assert err == ("error: FUJIKAWA bound at n=1 overflows float64 "
                       "(hbar=3e+306); use a smaller hbar\n")

    @pytest.mark.parametrize("hbar", ["2.5", "0.37", "1e-150", "1e305"])
    @pytest.mark.parametrize("state", [
        random_state(6, 11),
        from_fourier({-2: 0.4 - 0.3j, 0: 1.0, 1: 0.6j, 5: -0.2}, theta=2.2),
        mwp_y(2, 1, 3.0)[1],
    ], ids=["periodic", "quasi-periodic", "2-fold"])
    def test_slack_is_the_printed_difference(self, capsys, tmp_path, state,
                                             hbar):
        # --hbar scales the sides of a bound, and the slack is their
        # difference as printed; an infinite TOTAL lhs (R_1 = 0 on the
        # 2-fold density) gives an infinite slack
        path = write_state(tmp_path, state)
        code, out, err = run_cli(capsys, "--hbar", hbar, "report", path,
                                 "--nmax", "8")
        assert code == 0
        checks = json.loads(out)["uncertainty"]
        assert all(c["slack"] == c["lhs"] - c["rhs"] for c in checks)
        table = [line.split() for line in err.splitlines()
                 if line.startswith(("X_", "Y_", "TOTAL", "FUJI"))]
        assert [row[4] for row in table] == [f"{c['slack']:.6g}"
                                             for c in checks]

    def test_tiny_hbar_refuses_no_slack(self, capsys, tmp_path):
        # the Y packet saturates its own bound at n = 2: its slack, about
        # 1e-16 in units of hbar, once read as an underflow at 1e-300,
        # where both its sides print
        path = write_state(tmp_path, mwp_y(2, 1, 3.0)[1])
        code, out, err = run_cli(capsys, "--hbar", "1e-300", "report", path)
        assert code == 0
        own = [c for c in json.loads(out)["uncertainty"]
               if (c["kind"], c["n"]) == ("Y_AXIS", 2)]
        assert [c["saturated"] for c in own] == [True]
        assert own[0]["slack"] == own[0]["lhs"] - own[0]["rhs"]

    def test_window_slack_overflow_is_named(self, capsys, tmp_path):
        # the seam density puts the window bound's right side near -512
        # hbar: at 1.5e305 both of its sides are finite, and their
        # difference is not; at 1e305 it is, and prints as the slack
        path = write_state(tmp_path, from_fourier(
            {m: (-1) ** m for m in range(-512, 513)}))
        code, out, err = run_cli(capsys, "--hbar", "1.5e305", "report", path,
                                 "--nmax", "1")
        assert (code, out) == (2, "")
        assert err == ("error: FUJIKAWA bound at n=1 overflows float64 "
                       "(hbar=1.5e+305); use a smaller hbar\n")
        code, out, _ = run_cli(capsys, "--hbar", "1e305", "report", path,
                               "--nmax", "1")
        assert code == 0
        window = json.loads(out)["uncertainty"][-1]
        assert window["kind"] == "FUJIKAWA" and window["rhs"] < -5e307
        assert window["slack"] == window["lhs"] - window["rhs"] < math.inf

    @pytest.mark.parametrize("mode", ["9223372036854775808",
                                      "-9223372036854775808",
                                      "99999999999999999999", "513"])
    def test_mode_past_the_cap_exit_2(self, capsys, tmp_path, mode):
        # int64 used to wrap 2^63 to -2^63, which passed the cap, and a
        # mode past 2^64 raised an uncaught TypeError
        path = tmp_path / "far.txt"
        path.write_text(f"theta 0\n0 1 0\n{mode} 1 0\n")
        code, out, err = run_cli(capsys, "report", str(path))
        assert code == 2
        assert out == ""
        assert err == (f"error: cannot parse {path}: mode index "
                       f"{mode.lstrip('-')} exceeds the cap 512\n")


class TestScanBeta:
    def test_uniform_mean_is_affine(self, capsys, tmp_path):
        path = write_state(tmp_path, uniform_state())
        code, out, _ = run_cli(capsys, "scan-beta", path, "--from", "0",
                               "--to", "6.3", "--step", "0.7")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "beta,mean_phi_beta,sigma_phi_beta"
        for line in lines[1:]:
            beta, mean, sigma = (float(t) for t in line.split(","))
            assert mean == pytest.approx(beta + math.pi, abs=1e-10)
            assert sigma == pytest.approx(math.pi / math.sqrt(3), abs=1e-10)

    def test_von_mises_sigma_varies(self, capsys, tmp_path):
        from qring.mwp import mwp_x
        path = write_state(tmp_path, mwp_x(1, 0, 2.0)[1])
        code, out, _ = run_cli(capsys, "scan-beta", path, "--from", "0",
                               "--to", "3.2", "--step", "0.8")
        assert code == 0
        sigmas = [float(l.split(",")[2])
                  for l in out.strip().splitlines()[1:]]
        assert max(sigmas) - min(sigmas) > 0.1

    def test_degenerate_scan_single_row(self, capsys, tmp_path):
        path = write_state(tmp_path, uniform_state())
        code, out, _ = run_cli(capsys, "scan-beta", path, "--from", "1",
                               "--to", "2", "--step", "5")
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_reversed_range_exit_2(self, capsys, tmp_path):
        path = write_state(tmp_path, uniform_state())
        code, out, err = run_cli(capsys, "scan-beta", path, "--from", "3",
                                 "--to", "1", "--step", "0.5")
        assert code == 2
        assert out == ""
        assert "--from <= --to" in err

    def test_quasi_periodic_matches_periodic_twin(self, capsys, tmp_path):
        # the window moments read only the density, the same at theta = 0
        state = sin_half_power_state(3)
        paths = [write_state(tmp_path, s, name) for s, name in (
            (state, "quasi.txt"),
            (dataclasses.replace(state, theta=0.0), "twin.txt"))]
        runs = [run_cli(capsys, "scan-beta", path, "--from", "-10",
                        "--to", "10", "--step", "0.25") for path in paths]
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 82

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "scan-beta",
                                 str(tmp_path / "missing.txt"), "--from",
                                 "0", "--to", "1", "--step", "0.5")
        assert (code, out) == (2, "")
        assert "cannot read" in err

    def test_rows_match_single_beta_moments(self, capsys, tmp_path):
        state = random_state(32, 6)
        path = write_state(tmp_path, state)
        code, out, _ = run_cli(capsys, "scan-beta", path, "--from", "-3.1",
                               "--to", "3.1", "--step", "0.1")
        assert code == 0
        rows = [[float(t) for t in line.split(",")]
                for line in out.strip().splitlines()[1:]]
        assert len(rows) == 63
        for beta, mean, sigma in rows:
            m1, _, sg = angle_moments_beta(load_state(dump_state(state)),
                                           beta)
            assert abs(mean - m1) <= 1e-13
            assert abs(sigma - sg) <= 1e-13

    @pytest.mark.parametrize("flag,value", [
        ("--from", "nan"), ("--from", "-inf"), ("--to", "nan"),
        ("--to", "inf"), ("--step", "nan"), ("--step", "inf"),
        ("--step", "0"), ("--step", "-0.5")])
    def test_bad_range_exit_2(self, capsys, tmp_path, flag, value):
        path = write_state(tmp_path, uniform_state())
        argv = {"--from": "0", "--to": "1", "--step": "0.5", flag: value}
        code, out, err = run_cli(capsys, "scan-beta", path,
                                 *[f"{k}={v}" for k, v in argv.items()])
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_row_cap_exit_2(self, capsys, tmp_path):
        path = write_state(tmp_path, uniform_state())
        code, out, err = run_cli(capsys, "scan-beta", path, "--from", "0",
                                 "--to", str(MAX_SCAN_ROWS), "--step", "1")
        assert code == 2
        assert out == ""
        assert str(MAX_SCAN_ROWS) in err

    def test_row_cap_allows_the_cap(self, capsys, tmp_path):
        path = write_state(tmp_path, uniform_state())
        code, out, _ = run_cli(capsys, "scan-beta", path, "--from", "0",
                               "--to", str(MAX_SCAN_ROWS - 1), "--step", "1")
        assert code == 0
        assert len(out.splitlines()) == MAX_SCAN_ROWS + 1

    def test_window_starts_do_not_drift(self, capsys, tmp_path):
        # start + k*step: no rounding builds up, so beta = 0 and the end
        # point come out exactly
        path = write_state(tmp_path, random_state(20, 1))
        code, out, _ = run_cli(capsys, "scan-beta", path, "--from", "-27",
                               "--to", "27", "--step", "0.1")
        assert code == 0
        betas = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
        assert len(betas) == 541
        assert betas[270] == 0.0
        assert betas[-1] == 27.0

    def test_step_lost_to_rounding_exit_2(self, capsys, tmp_path):
        # beta + step == beta at 1e20, so the scan would never advance
        # to --to, the next float past --from
        path = write_state(tmp_path, uniform_state())
        code, out, _ = run_cli(capsys, "scan-beta", path, "--from", "1e20",
                               "--to", "1.0000000000000002e20",
                               "--step", "1")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("start,stop,rows", [
        ("9007199254740992", "9007199254740992", 1),
        ("9007199254740992", "9007199254740994", None)])
    def test_one_row_at_2_to_53(self, capsys, tmp_path, start, stop, rows):
        # one window start is one row however beta + step rounds; two
        # starts 2 apart at step 1 lose a step, and still exit 2
        path = write_state(tmp_path, random_state(4, 2))
        code, out, _ = run_cli(capsys, "scan-beta", path, "--from", start,
                               "--to", stop, "--step", "1")
        assert code == (2 if rows is None else 0)
        assert len(out.splitlines()) == (0 if rows is None else rows + 1)


class TestMwp:
    @pytest.mark.parametrize("hbar", ["2.5", "0.37", "1e-150"])
    @pytest.mark.parametrize("axis,n,m,kappa", [
        ("X", 1, 0, 2.0), ("Y", 3, -2, 17.5), ("X", 2, 7, 0.5)])
    def test_deltas_are_printed_differences(self, capsys, hbar, axis, n, m,
                                            kappa):
        # each delta is taken from the printed values: at 1e-150 the
        # sigma_Lz^2 delta, about 1e-16 hbar^2, once read as an underflow
        code, out, _ = run_cli(capsys, "--hbar", hbar, "mwp", "--axis", axis,
                               "--n", str(n), "--m", str(m),
                               "--kappa", repr(kappa))
        assert code == 0
        doc = json.loads(out)
        predicted, measured = doc["predicted"], doc["measured"]
        deltas = doc["verification"]["deltas"]
        assert deltas["sigma_lz2"] == (measured["sigma_lz2"]
                                       - predicted["sigma_lz2"])
        assert deltas["lz"] == measured["lz"] - m * float(hbar)

    def test_default_reports_verification(self, capsys):
        code, out, _ = run_cli(capsys, "mwp", "--axis", "X", "--n", "2",
                               "--m", "1", "--kappa", "3")
        assert code == 0
        data = json.loads(out)
        assert data["verification"]["ok"]
        assert data["predicted"]["ey"] == pytest.approx(
            data["measured"]["ey"], abs=1e-9)

    def test_emit_state_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "mwp", "--axis", "Y", "--n", "1",
                               "--kappa", "2", "--emit-state")
        assert code == 0
        state = load_state(out)
        assert state.is_periodic
        assert abs(state.evaluate(0.0)) > 0

    def test_emit_curve(self, capsys):
        code, out, _ = run_cli(capsys, "mwp", "--axis", "X", "--n", "1",
                               "--kappa", "2", "--emit-curve",
                               "--points", "100")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "phi,abs_psi"
        assert len(lines) == 101

    def test_emit_curve_json(self, capsys):
        argv = ["mwp", "--axis", "Y", "--n", "2", "--kappa", "3",
                "--emit-curve", "--points", "9"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        csv_rows = [[float(v) for v in line.split(",")]
                    for line in out.splitlines()[1:]]
        code, out, _ = run_cli(capsys, "--json", *argv)
        assert code == 0
        assert json.loads(out) == [{"phi": phi, "abs_psi": value}
                                   for phi, value in csv_rows]
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    @pytest.mark.parametrize("hbar", ["1e8", "2e-40"])
    def test_verification_does_not_depend_on_hbar(self, capsys, hbar):
        # at 1e8 the sigma_lz2 delta read 2.0 and the lz delta 6.1e-9, so
        # the packet failed its own verification
        argv = ["mwp", "--axis", "X", "--n", "1", "--kappa", "5"]
        code, out, _ = run_cli(capsys, "--hbar", hbar, *argv)
        assert code == 0
        got = json.loads(out)
        unit = json.loads(run_cli(capsys, *argv)[1])
        assert got["verification"]["ok"] is True
        h = float(hbar)
        assert got["measured"]["lz"] == unit["measured"]["lz"] * h
        assert got["measured"]["sigma_lz2"] == (
            unit["measured"]["sigma_lz2"] * h * h)
        assert got["predicted"]["sigma_lz2"] == (
            unit["predicted"]["sigma_lz2"] * h * h)

    @pytest.mark.parametrize("hbar,n,kappa", [("1e308", "2", "5"),
                                              ("1e154", "1", "5000")])
    def test_overflowing_prediction_exit_2(self, capsys, hbar, n, kappa):
        # (n hbar/2)^2 overflows at 1e308; kappa r (n hbar/2)^2 at 1e154
        code, out, err = run_cli(capsys, "--hbar", hbar, "mwp", "--axis", "X",
                                 "--n", n, "--kappa", kappa)
        assert code == 2
        assert out == ""
        assert err.startswith("error: sigma_Lz^2 prediction")
        assert err.endswith("use a smaller hbar\n")

    @pytest.mark.parametrize("argv", [
        ["mwp", "--axis", "X", "--n", "2", "--kappa", "5", "--emit-state"],
        ["mwp", "--axis", "Y", "--n", "2", "--kappa", "5", "--emit-curve",
         "--points", "16"],
        ["curve", "mwp_abs", "--from", "0", "--to", "1", "--step", "0.5",
         "--n", "2", "--alpha", "5"],
    ], ids=["emit-state", "emit-curve", "curve"])
    def test_huge_hbar_output_matches_unit_hbar(self, capsys, argv):
        # the state file and |psi| do not depend on hbar, and nothing here
        # reads the sigma_Lz^2 prediction that overflows at 1e308
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and out
        assert run_cli(capsys, "--hbar", "1e308", *argv) == (0, out, err)

    @pytest.mark.parametrize("points", ["0", "-5"])
    def test_points_below_one_exit_2(self, capsys, points):
        code, out, err = run_cli(capsys, "mwp", "--axis", "X", "--n", "1",
                                 "--kappa", "2", "--emit-curve",
                                 "--points", points)
        assert code == 2
        assert out == ""
        assert "--points" in err

    @pytest.mark.parametrize("m", ["600", "-513"])
    @pytest.mark.parametrize("kappa", ["1", "1e7", "1e300"])
    def test_mode_past_the_cap_exit_2(self, capsys, monkeypatch, m, kappa):
        # the packet's own mode is checked before any Bessel work
        def fail(*args):
            raise AssertionError("ik_scaled called")
        monkeypatch.setattr(qring.mwp, "ik_scaled", fail)
        monkeypatch.setattr(qring.bessel, "ik_scaled", fail)
        code, out, err = run_cli(capsys, "mwp", "--axis", "X", "--n", "1",
                                 "--m", m, "--kappa", kappa)
        assert code == 2
        assert out == ""
        assert f"mode index {m.lstrip('-')} exceeds the cap 512" in err

    @pytest.mark.parametrize("m,mode", [("512", 513), ("-512", 513),
                                        ("511", 513)])
    @pytest.mark.parametrize("kappa", ["1e-13", "1e-9"])
    def test_kept_order_one_past_the_cap_exit_2(self, capsys, m, mode,
                                                kappa):
        # order 1 is kept at every nonzero concentration, so at n = 1 or
        # 2 it lands past the cap for these m
        n = "2" if m == "511" else "1"
        code, out, err = run_cli(capsys, "mwp", "--axis", "X", "--n", n,
                                 "--m", m, "--kappa", kappa)
        assert code == 2
        assert out == ""
        assert err == f"error: mode index {mode} exceeds the cap 512\n"

    def test_points_above_cap_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "mwp", "--axis", "X", "--n", "1",
                                 "--kappa", "2", "--emit-curve",
                                 "--points", str(MAX_SCAN_ROWS + 1))
        assert code == 2
        assert out == ""
        assert "--points" in err and str(MAX_SCAN_ROWS) in err

    def test_points_cap_boundary(self, capsys, monkeypatch):
        # a curve at the real cap takes seconds, so lower the cap
        monkeypatch.setattr(qring.cli, "MAX_SCAN_ROWS", 40)
        argv = ["mwp", "--axis", "Y", "--n", "2", "--kappa", "3",
                "--emit-curve", "--points"]
        code, out, _ = run_cli(capsys, *argv, "40")
        assert code == 0
        assert len(out.splitlines()) == 41
        code, out, _ = run_cli(capsys, *argv, "41")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("axis", ["X", "Y"])
    def test_mid_range_kappa_verifies(self, capsys, axis):
        # exp(kappa/2) and the unscaled I0 overflow float64 here
        code, out, _ = run_cli(capsys, "mwp", "--axis", axis, "--n", "1",
                               "--kappa", "1000")
        assert code == 0
        assert json.loads(out)["verification"]["ok"]

    def test_large_kappa_verifies(self, capsys):
        # the measured concentration's rounding scales with kappa
        code, out, _ = run_cli(capsys, "mwp", "--axis", "X", "--n", "1",
                               "--kappa", "8000")
        assert code == 0
        assert json.loads(out)["verification"]["ok"]

    def test_resolution_error_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "mwp", "--axis", "X", "--n", "1",
                               "--kappa", "1e7")
        assert code == 2
        assert "error" in err


def mp_abs_psi(state, phis):
    """|psi(phi)| of the state's own coefficients by a direct sum in 40-digit
    arithmetic, e^{i mu phi} stepped from mode to mode."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        mu0 = int(state.modes[0]) + mpmath.mpf(state.theta) / (2 * mpmath.pi)
        gaps = np.diff(state.modes).tolist()
        amps = [mpmath.mpc(complex(a)) for a in state.amps]
        scale = 1 / mpmath.sqrt(2 * mpmath.pi)
        values = []
        for phi in phis:
            x = mpmath.mpf(phi)
            step = mpmath.expj(x)
            phase = mpmath.expj(mu0 * x)
            total = amps[0] * phase
            for a, gap in zip(amps[1:], gaps):
                phase *= step**gap
                total += a * phase
            values.append(float(abs(total) * scale))
    return np.array(values)


def assert_curve_matches_oracle(out, state):
    """Every abs_psi of the CSV curve within 1e-14 of max |psi| of the 40-digit
    oracle at its phi.  For a packet max |psi| = sum |c_m| / sqrt(2 pi): at
    the peak every Jacobi-Anger term has the same phase."""
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in out.splitlines()[1:]])
    exact = mp_abs_psi(state, rows[:, 0].tolist())
    peak = np.sum(np.abs(state.amps)) / math.sqrt(2.0 * math.pi)
    assert np.max(exact) <= peak * (1 + 1e-14)
    assert np.max(np.abs(rows[:, 1] - exact)) <= 1e-14 * peak


class TestPacketCurves:
    @pytest.mark.parametrize("axis,n,kappa", [
        ("X", 1, 5000.0), ("Y", 1, 5000.0), ("X", 2, 5.0), ("Y", 2, -900.0),
        ("X", 8, 40.0), ("Y", 8, 150.0)])
    def test_emit_curve_against_mpmath(self, capsys, axis, n, kappa):
        code, out, _ = run_cli(capsys, "mwp", "--axis", axis, "--n", str(n),
                               "--kappa", str(kappa), "--emit-curve",
                               "--points", "41")
        assert code == 0
        builder = mwp_x if axis == "X" else mwp_y
        assert_curve_matches_oracle(out, builder(n, 0, kappa)[1])

    @pytest.mark.parametrize("n,m,alpha,start,stop,step", [
        (1, 0, 5000.0, -1.0, 8.0, 0.25), (2, 1, 5.0, -30.0, 30.0, 1.5),
        (8, -3, 40.0, 0.0, 6.3, 0.15)])
    def test_curve_mwp_abs_against_mpmath(self, capsys, n, m, alpha, start,
                                          stop, step):
        code, out, _ = run_cli(capsys, "curve", "mwp_abs", "--n", str(n),
                               "--m", str(m), "--alpha", str(alpha),
                               "--from", str(start), "--to", str(stop),
                               "--step", str(step))
        assert code == 0
        assert_curve_matches_oracle(out, mwp_x(n, m, alpha)[1])


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qring.cli", "examples", "cos-phi"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["all_pass"]


def asdict_json(payload):
    """Oracle: the payload as ``json.dump(..., indent=2)`` and a newline
    write it, token by token."""
    buf = io.StringIO()
    json.dump(payload, buf, indent=2)
    buf.write("\n")
    return buf.getvalue()


def observable_row(state, n, hbar):
    """Oracle: the ``report`` observables at n from the scalar functions,
    sigma_lz multiplied by hbar."""
    (ex, ey), (sx, sy) = expect_xy(state, n), sigma_xy(state, n)
    return {"n": n, "ex": ex, "ey": ey, "r_n": mean_resultant(state, n),
            "mean_phi": mean_angle(state), "sigma_x": sx, "sigma_y": sy,
            "sigma_lz": sigma_lz(state) * hbar,
            "sigma_tilde": math.sqrt(sx * sx + sy * sy),
            "sigma_n": sigma_total(state, n)}


def scalar_checks(state, nmax, hbar):
    """Oracle: the report's bound checks from the scalar library calls, at
    the default tolerance, with each side multiplied by hbar and the
    slack their difference."""
    checks = []
    for n in range(1, nmax + 1):
        checks += [check_ur_x(state, n), check_ur_y(state, n),
                   check_total_ur(state, n)]
    if state.is_periodic:
        checks.append(check_fujikawa(state))
    return [rep._replace(lhs=rep.lhs * hbar, rhs=rep.rhs * hbar,
                         slack=rep.lhs * hbar - rep.rhs * hbar)
            for rep in checks]


def asdict_report(state, nmax, hbar=1.0):
    """Oracle: the report payload built from the scalar library calls,
    with ``URReport._asdict`` for the bound checks, at the default
    tolerances of ``report``, in units of hbar."""
    return {
        "hbar": hbar,
        "theta": state.theta,
        "observables": [observable_row(state, n, hbar)
                        for n in range(1, nmax + 1)],
        "uncertainty": [{**rep._asdict(), "kind": rep.kind.value}
                        for rep in scalar_checks(state, nmax, hbar)],
        "fold_symmetry": {"n": detect_fold_symmetry(state, 1e-9),
                          "fully_symmetric": is_fully_symmetric(state, 1e-9)},
        "recommended_n": recommend_n(state, 0.1),
    }


def report_state(span, kind, seed):
    """A state of mode span ``span``: periodic, quasi-periodic, or on a
    3-fold mode lattice."""
    rng = np.random.default_rng(seed)
    lo = int(rng.integers(-256, 257 - span))
    step = 3 if kind == "3-fold" else 1
    modes = range(lo, lo + span + 1, step)
    coeffs = {m: complex(*rng.standard_normal(2)) for m in modes}
    return from_fourier(coeffs, theta=2.2 if kind == "quasi-periodic" else 0.0)


def stderr_table(state, nmax, hbar=1.0):
    """Oracle: the report's stderr as the per-line ``print`` calls write it
    from the scalar checks."""
    buf = io.StringIO()
    checks = scalar_checks(state, nmax, hbar)
    if not state.is_periodic:
        print("note: quasi-periodic state, window bound skipped", file=buf)
    print(f"{'kind':10} {'n':>2} {'lhs':>12} {'rhs':>12} {'slack':>12} holds",
          file=buf)
    for rep in checks:
        print(f"{rep.kind.value:10} {rep.n:>2} {rep.lhs:>12.6g} "
              f"{rep.rhs:>12.6g} {rep.slack:>12.6g} {rep.holds}", file=buf)
    return buf.getvalue()


class TestSerialization:
    OBSERVABLE_KEYS = ["n", "ex", "ey", "r_n", "mean_phi", "sigma_x",
                       "sigma_y", "sigma_lz", "sigma_tilde", "sigma_n"]
    UR_KEYS = ["kind", "n", "lhs", "rhs", "slack", "holds", "saturated"]

    @pytest.mark.parametrize("state", [
        random_state(6, 11),
        from_fourier({-2: 0.4 - 0.3j, 0: 1.0, 1: 0.6j, 5: -0.2}, theta=2.2),
        mwp_y(3, 1, 4.0)[1],
    ], ids=["periodic", "quasi-periodic", "3-fold"])
    def test_report_matches_asdict_oracle(self, capsys, tmp_path, state):
        path = write_state(tmp_path, state)
        code, out, _ = run_cli(capsys, "report", path, "--nmax", "8")
        assert code == 0
        assert out == asdict_json(asdict_report(load_state(dump_state(state)),
                                                8))
        data = json.loads(out)
        assert list(data) == ["hbar", "theta", "observables", "uncertainty",
                              "fold_symmetry", "recommended_n"]
        assert all(list(row) == self.OBSERVABLE_KEYS
                   for row in data["observables"])
        assert all(list(row) == self.UR_KEYS for row in data["uncertainty"])

    @pytest.mark.parametrize("kind", ["periodic", "quasi-periodic", "3-fold"])
    @pytest.mark.parametrize("span", [16, 32, 64, 128, 256, 512])
    def test_report_series_matches_oracles(self, capsys, tmp_path, span,
                                           kind):
        state = load_state(dump_state(report_state(span, kind, span)))
        path = write_state(tmp_path, state)
        for nmax in (1, 8, state.mode_span + 3):
            code, out, err = run_cli(capsys, "report", path,
                                     "--nmax", str(nmax))
            assert code == 0
            assert out == asdict_json(asdict_report(state, nmax))
            assert err == stderr_table(state, nmax)

    def test_hbar_scaled_report_matches_oracles(self, capsys, tmp_path):
        # the library works in units of hbar; report multiplies each side
        # and sigma_Lz by --hbar once, and prints as a slack the difference
        # of the printed sides
        path = write_state(tmp_path, random_state(6, 11))
        state = load_state(dump_state(random_state(6, 11)))
        code, out, err = run_cli(capsys, "--hbar", "2.5", "report", path,
                                 "--nmax", "15")
        assert code == 0
        assert out == asdict_json(asdict_report(state, 15, 2.5))
        assert err == stderr_table(state, 15, 2.5)

    def test_infinite_spread_spelled_infinity(self, capsys, tmp_path):
        # R_1 = 0 on a 3-fold density, so sigma_1 and the TOTAL lhs are inf
        state = load_state(dump_state(mwp_y(3, 1, 4.0)[1]))
        path = write_state(tmp_path, state)
        _, out, err = run_cli(capsys, "report", path, "--nmax", "8")
        assert '"sigma_n": Infinity\n' in out
        assert '"lhs": Infinity,' in out
        # the TOTAL row's lhs and slack print as inf in the stderr table
        assert err == stderr_table(state, 8)
        assert "TOTAL       1          inf" in err

    @pytest.mark.parametrize("axis,n,m,kappa", [
        ("X", 2, 1, 5.0), ("Y", 3, -2, 17.5), ("X", 1, 0, -700.0)])
    def test_mwp_matches_asdict_oracle(self, capsys, axis, n, m, kappa):
        code, out, _ = run_cli(capsys, "mwp", "--axis", axis, "--n", str(n),
                               "--m", str(m), "--kappa", repr(kappa))
        assert code == 0
        packet, state = (mwp_x if axis == "X" else mwp_y)(n, m, kappa)
        verification = verify_packet(packet, state)
        payload = {
            "axis": axis, "n": n, "m": m, "kappa": kappa,
            "predicted": verification.predicted,
            "measured": verification.measured,
            "verification": {"ok": verification.ok, "tol": 1e-9,
                             "deltas": verification.deltas},
        }
        assert out == asdict_json(payload)
        assert list(json.loads(out)["predicted"]) == [
            "ex", "ey", "sigma_x2", "sigma_y2", "sigma_lz2", "norm_const"]


def reference_write_json(obj):
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


class TestJsonWriter:
    """``_write_json`` writes the bytes of ``json.dumps(obj, indent=2)``."""

    @pytest.mark.parametrize("obj", [
        {}, [], (), [[]], [{}], {"a": []}, {"a": {}, "b": [[], {}]},
        [[1, 2], [3, [4, []]], []],
        ((1, 2.5), ("x",)),
        {1: "int", 2.5: "float", None: "none", False: "false", -7: [1]},
        {True: [1, {"x": None}], 1.5: {"y": [2]}, None: [[]]},
        {math.nan: 1, math.inf: 2, -math.inf: [3], -0.0: 4},
        [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1, 1e16],
        {"x": [math.nan, {"y": -0.0}], "z": 5e-324},
        [np.float64(0.1), np.float64(-0.0), np.float64(1e308)],
        {"v": np.float64(1.5), "w": [np.float64(math.inf)]},
        [",\n}{\"", {",\n}{\"": ",\n  ]"}, "\u03c6 \u210f \u2603 \U0001f600"],
        {"\u00e9t\u00e9": ["caf\u00e9", {"\u03c1": "\\\t"}]},
        "scalar", 3, 2.5, None, True, math.nan,
        [True, False, None, 0, -1, 2**70],
        # row tables, where "}" sep "{" may only join two rows
        [{"}": "{", "{": "}"}, {"a}": "{b", '",\n  {"': '"},\n    {"'}],
        [{"k": '"'}, {'"': "}\n{"}, {"k": "},\n    {"}],
        [{"a": 1, "b": 2.5}, {"c": None}, {"a": True, "d": "x"}],
        [{"a": 1}, {}],
        [{"a": 1}, {"b": [2, 3]}],
        [{"a": np.float64(0.5)}, {"a": np.float64(-0.0)}],
        ({"a": 1, "b": "x"}, {"a": 2, "b": "y"}),
        {"t": [{"x": 1.5}, {"x": -2.5}], "u": [[{"y": 0}], [{"y": 1}]]},
        [[[{"p": 1, "q": 2}, {"p": 3, "q": 4}]], [[{"r": 5}]]],
        [{"v": math.nan, math.inf: -math.inf}, {"v": -0.0, None: 5e-324}],
        [{1: 2.5, 2.5: 1, True: False, None: None}],
    ], ids=repr)
    def test_equals_indented_dumps(self, capsys, obj):
        qring.cli._write_json(obj)
        assert capsys.readouterr().out == json.dumps(obj, indent=2) + "\n"

    @pytest.mark.parametrize("obj,table", [
        ([{"a": 1}, {"b": "x", "c": None}], True),
        (({"a": 1.5},), True),
        ([{"a": 1}, {}], False),
        ([{"a": 1}, {"b": [2]}], False),
        ([{"a": np.float64(0.5)}], False),
        ([{"a": 1}, [1]], False),
        ([], False),
    ], ids=repr)
    def test_table_branch(self, obj, table):
        # tables take the one-call branch, anything else the nested one
        assert qring.cli._is_table(obj) is table

    @pytest.mark.parametrize("obj", [{(1, 2): 3}, {"a": [1], (1,): [2]},
                                     [object()], {"a": {"b": object()}}])
    def test_unserializable_raises_type_error(self, obj):
        with pytest.raises(TypeError):
            json.dumps(obj, indent=2)
        with pytest.raises(TypeError):
            qring.cli._write_json(obj)

    def test_without_c_encoder(self, capsys, monkeypatch):
        # the pure-Python encoder, as where the _json module is missing:
        # written once first, so that an encoder cached with the C one
        # would be at hand, and must not be used
        obj = {"a": [1.5, {"b": -0.0, 1: "\u03c6"}], "c": [math.inf]}
        qring.cli._write_json(obj)
        capsys.readouterr()
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        calls = []
        make = json.encoder._make_iterencode

        def spy(*args, **kwargs):
            calls.append(args)
            return make(*args, **kwargs)

        monkeypatch.setattr(json.encoder, "_make_iterencode", spy)
        qring.cli._write_json(obj)
        assert calls
        assert capsys.readouterr().out == json.dumps(obj, indent=2) + "\n"

    @pytest.mark.parametrize("argv", [
        ["examples"], ["--json", "examples"],
        *[["examples", case] for case in qring.cli.CASE_NAMES],
        ["--hbar", "1.7", "examples", "superposition", "--k", "5"],
        ["mwp", "--axis", "X", "--n", "2", "--m", "1", "--kappa", "5"],
        ["mwp", "--axis", "Y", "--n", "3", "--m", "-2", "--kappa", "17.5"],
        ["--json", "curve", "ratio", "--from", "0", "--to", "3",
         "--step", "0.25"],
        ["--json", "curve", "f", "--from", "0", "--to", "2", "--step", "0.5"],
        ["--json", "curve", "h", "--from", "0", "--to", "2", "--step", "0.5"],
        ["--json", "curve", "mwp_abs", "--from", "0", "--to", "6",
         "--step", "0.5", "--n", "3"],
        ["--json", "scan-beta", "STATE", "--from", "-3", "--to", "3",
         "--step", "0.5"],
        ["report", "STATE", "--nmax", "8"],
        ["report", "QUASI", "--nmax", "20"],
        # the packet grid: both von_mises branches, at and near the cutoff
        *[["mwp", "--axis", axis, "--n", str(n), "--m", str(m),
           "--kappa", repr(kappa)] for axis, n, m, kappa in PACKET_GRID],
        ["--hbar", "2.5", "mwp", "--axis", "Y", "--n", "8", "--m", "-3",
         "--kappa", "39.9"],
    ], ids=" ".join)
    def test_every_document(self, capsys, tmp_path, monkeypatch, argv):
        quasi = report_state(16, "quasi-periodic", 3)
        paths = {"STATE": write_state(tmp_path, random_state(6, 11)),
                 "QUASI": write_state(tmp_path, quasi, "quasi.txt")}
        argv = [paths.get(a, a) for a in argv]
        code, out, err = run_cli(capsys, *argv)
        monkeypatch.setattr(qring.cli, "_write_json", reference_write_json)
        assert run_cli(capsys, *argv) == (code, out, err)
        assert out.startswith(("{", "["))


def reference_table(names, columns):
    """Oracle: the CSV of ``_write_table``, one ``%`` per row."""
    template = ",".join(["%.17g"] * len(names)) + "\n"
    return ",".join(names) + "\n" + "".join(template % row
                                             for row in zip(*columns))


class TestWriteTable:
    SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1, 3]

    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 2, len(SPECIAL)])
    def test_csv_equals_per_row_template(self, capsys, width, count):
        names = ["a", "b", "c"][:width]
        columns = [(self.SPECIAL[k:] + self.SPECIAL[:k])[:count]
                   for k in range(width)]
        qring.cli._write_table(names, columns, False)
        assert capsys.readouterr().out == reference_table(names, columns)

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_json_equals_row_dicts(self, capsys, width):
        names = ["a", "b", "c"][:width]
        columns = [self.SPECIAL[k:] + self.SPECIAL[:k] for k in range(width)]
        qring.cli._write_table(names, columns, True)
        rows = [dict(zip(names, row)) for row in zip(*columns)]
        assert capsys.readouterr().out == json.dumps(rows, indent=2) + "\n"


class TestSharedParser:
    def test_emit_state_then_report(self, capsys):
        argv = ["mwp", "--axis", "X", "--n", "2", "--kappa", "3"]
        code, out, _ = run_cli(capsys, *argv, "--emit-state")
        assert code == 0 and out.startswith("theta ")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["verification"]["ok"]

    def test_json_flag_not_carried_over(self, capsys, tmp_path):
        path = write_state(tmp_path, random_state(4, 2))
        argv = ["scan-beta", path, "--from", "0", "--to", "1", "--step", "0.5"]
        code, out, _ = run_cli(capsys, "--json", *argv)
        assert code == 0 and len(json.loads(out)) == 3
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.splitlines()[0] == "beta,mean_phi_beta,sigma_phi_beta"

    def test_usage_error_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mwp", "--axis", "Z", "--n", "1", "--kappa", "2"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "mwp", "--axis", "Y", "--n", "1",
                               "--kappa", "2")
        assert code == 0
        assert json.loads(out)["axis"] == "Y"

    def test_main_builds_parser_once(self, capsys):
        for _ in range(3):
            assert run_cli(capsys, "examples", "cos-phi")[0] == 0
        assert build_parser.cache_info().misses == 1
        assert build_parser() is build_parser()

    def test_import_builds_no_parser(self):
        # counts ArgumentParser constructions (the parser and each
        # subparser) at import and over several main calls
        code = textwrap.dedent("""
            import argparse, contextlib, io
            made = []
            init = argparse.ArgumentParser.__init__
            def counting(self, *args, **kwargs):
                made.append(1)
                init(self, *args, **kwargs)
            argparse.ArgumentParser.__init__ = counting
            import qring.cli
            at_import = len(made)
            with contextlib.redirect_stdout(io.StringIO()):
                qring.cli.main(["examples", "cos-phi"])
                first = len(made)
                qring.cli.main(["--json", "examples", "cos-2phi"])
                qring.cli.main(["mwp", "--axis", "X", "--n", "1",
                                "--kappa", "2"])
            print(at_import, first, len(made))
        """)
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        at_import, first, total = map(int, proc.stdout.split())
        assert at_import == 0
        assert first > 0
        assert total == first


# numbers the parsers take as values (2, -3, -.5, -1e-3) and as options
# (-inf), and floats an int option rejects
PARSE_NUMBERS = ["2", "-3", "-.5", "8.0", "nan", "1e400", "-1e-3", "-inf"]
# spellings argparse reads in its own way: abbreviations, --opt=value,
# help, the end of options, a lone dash and an empty token
PARSE_ODD = ["--sym", "--kap", "--kappa=2", "-h", "--", "-", ""]


def subcommands() -> dict:
    """Each subcommand's parser by name."""
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def action_tokens(action) -> list:
    """The token lists that give an action a valid value: an option
    string of it, then, unless it is a flag, one of its choices or a
    number of its type; a positional's value alone."""
    if action.choices:
        values = list(action.choices)
    elif action.type is int:
        values = ["2", "-3"]
    elif action.type is float:
        values = ["2", "-.5", "8.0", "nan", "1e400"]
    else:
        values = ["F", "-3"]
    if not action.option_strings:
        return [[v] for v in values]
    if action.nargs == 0:
        return [[s] for s in action.option_strings]
    return [[s, v] for s in action.option_strings for v in values]


def argparse_result(argv):
    """``build_parser().parse_args(argv)``, or None where it exits."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            return build_parser().parse_args(argv)
    except SystemExit:
        return None


class TestFastParse:
    def test_agrees_with_argparse(self):
        # the documented shape (global options, a subcommand, its
        # positionals and its options in any order, each required one
        # present 7 times in 8); then that argv with up to two tokens of
        # the alphabet inserted anywhere (repeats, global options after
        # the subcommand, odd spellings), and each argv one token away:
        # one dropped, one doubled, or one replaced by a bad value or an
        # odd spelling.  nan compares by repr.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        subs = subcommands()
        alphabet = sorted({s for p in [build_parser(), *subs.values()]
                           for a in p._actions for s in a.option_strings}
                          | set(subs) | set(PARSE_NUMBERS) | set(PARSE_ODD)
                          | {"X", "cos-phi", "Z"})
        bad = ["Z", "8.0", "-1e-3", *PARSE_ODD]

        @st.composite
        def argvs(draw):
            def given(actions, required):
                return [draw(st.sampled_from(action_tokens(a)))
                        for a in actions if draw(st.integers(0, 7))
                        < (7 if required(a) else 4)]

            def options(parser):
                # help aside
                return [a for a in parser._actions if a.option_strings
                        and a.default is not argparse.SUPPRESS]

            name = draw(st.sampled_from(sorted(subs)))
            sub = subs[name]
            groups = (given(options(build_parser()), lambda a: False)
                      + [[name]]
                      + given([a for a in sub._actions
                               if not a.option_strings],
                              lambda a: a.nargs is None)
                      + draw(st.permutations(
                          given(options(sub), lambda a: a.required))))
            return [token for group in groups for token in group]

        def agrees(argv):
            fast = qring.cli._parse(argv)
            if fast is not None:
                expected = argparse_result(argv)
                assert expected is not None, argv
                assert (repr(sorted(vars(fast).items()))
                        == repr(sorted(vars(expected).items()))), argv
            return fast is not None

        inserts = st.lists(st.tuples(st.integers(0, 15),
                                     st.sampled_from(alphabet)), max_size=2)
        hits = []

        @hypothesis.settings(max_examples=40)
        @hypothesis.given(argvs(), inserts)
        def check(argv, inserts):
            hits.append(agrees(argv))
            for i in range(len(argv)):
                agrees(argv[:i] + argv[i + 1:])
                agrees(argv[:i + 1] + argv[i:])
                for token in bad:
                    agrees(argv[:i] + [token] + argv[i + 1:])
            for at, token in inserts:
                argv.insert(at % (len(argv) + 1), token)
            agrees(argv)

        check()
        # the fast path reads a good share of the drawn argvs
        assert sum(hits) > len(hits) / 4

    def test_documented_shapes_skip_argparse(self, capsys, monkeypatch,
                                             tmp_path):
        # every README line, a global option before a positional, and the
        # benchmark's scan-beta, report and mwp shapes: the same exit code
        # and bytes with argparse's parsing made to raise
        monkeypatch.chdir(tmp_path)
        Path("F").write_text(dump_state(mwp_x(2, 1, 5.0)[1]))
        commands = readme_commands() + [
            (["--json", "--hbar", "2", "examples", "cos-phi"], None),
            (["scan-beta", "F", "--from", "-2.1", "--to", "4.1",
              "--step", "0.1"], None),
            (["report", "F", "--nmax", "8"], None),
            (["mwp", "--axis", "Y", "--n", "3", "--m", "-2",
              "--kappa", "12.5", "--emit-state"], None)]
        runs = []
        for argv, target in commands:
            runs.append(run_cli(capsys, *argv))
            if target:
                Path(target).write_text(runs[-1][1])

        def refuse(*args, **kwargs):
            raise AssertionError("argparse parsed a documented command")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                            refuse)
        for (argv, _), expected in zip(commands, runs):
            assert run_cli(capsys, *argv) == expected, argv

    def test_negative_exponent_is_a_value(self, capsys, tmp_path):
        # -1e-3 may follow an option as its own token, as -0.001 may, on
        # the fast path and in argparse alike
        argv = ["mwp", "--axis", "X", "--n", "2", "--kappa"]
        joined = run_cli(capsys, *argv[:-1], "--kappa=-1e-3")
        assert joined[0] == 0
        assert run_cli(capsys, *argv, "-1e-3") == joined
        assert build_parser().parse_args([*argv, "-1E+3"]).kappa == -1e3
        path = write_state(tmp_path, mwp_x(2, 1, 5.0)[1])
        scan = ["scan-beta", path, "--from", "-1e-3", "--to", "1",
                "--step", "0.5"]
        code, out, err = run_cli(capsys, *scan)
        assert (code, err) == (0, "")
        assert [row.partition(",")[0] for row in out.splitlines()[1:]] == [
            "-0.001", "0.499", "0.999"]
        assert qring.cli._parse(scan).start == -1e-3

    def test_other_spellings_fall_back(self, capsys):
        # argparse reads each of these, and writes every help and error
        cases = [
            (["mwp", "--axis", "X", "--n", "2", "--kap", "5"], 0),
            (["mwp", "--axis=X", "--n", "2", "--kappa", "5"], 0),
            (["mwp", "--axis", "X", "--n", "1", "--n", "2", "--kappa",
              "5"], 0),
            (["report", "--", "-F"], 2),
            (["mwp", "--axis", "X", "--n", "2", "--kappa", "-inf"], 2),
            (["mwp", "--axis", "X", "--n", "2.5", "--kappa", "5"], 2),
            (["mwp", "--axis", "X", "--n", "2", "--kappa", "5",
              "--emit-state", "--emit-curve"], 2),
            (["mwp", "--json", "--axis", "X", "--n", "2", "--kappa", "5"],
             2),
            (["-h"], 0),
        ]
        for argv, status in cases:
            assert qring.cli._parse(argv) is None, argv
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            assert code == status, argv
        capsys.readouterr()


if __name__ == "__main__":
    write_examples_golden()
