"""Tests for the qring command-line interface."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qring.cli import MAX_SCAN_ROWS, main
from qring.observables import angle_moments_beta
from qring.state import (
    dump_state,
    load_state,
    random_state,
    sin_half_power_state,
    uniform_state,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(tmp_path, state, name="state.txt"):
    path = tmp_path / name
    path.write_text(dump_state(state))
    return str(path)


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

    def test_unknown_selector_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["examples", "nonsense"])
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

    def test_quasi_periodic_exit_3(self, capsys, tmp_path):
        path = write_state(tmp_path, sin_half_power_state(1))
        code, _, err = run_cli(capsys, "scan-beta", path, "--from", "0",
                               "--to", "1", "--step", "0.5")
        assert code == 3
        assert "periodic" in err

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

    def test_step_lost_to_rounding_exit_2(self, capsys, tmp_path):
        # beta + step == beta at 1e20, so the scan would never advance
        path = write_state(tmp_path, uniform_state())
        code, out, _ = run_cli(capsys, "scan-beta", path, "--from", "1e20",
                               "--to", "1e20", "--step", "1")
        assert code == 2
        assert out == ""


class TestMwp:
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

    def test_resolution_error_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "mwp", "--axis", "X", "--n", "1",
                               "--kappa", "1e7")
        assert code == 2
        assert "error" in err


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qring.cli", "examples", "cos-phi"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["all_pass"]
