"""Command-line front end.

Subcommands: ``examples`` (worked-example verification with closed-form
expectations), ``curve`` (CSV traces of ratio/f/h/packet profiles),
``report`` (full JSON analysis of a state file), ``scan-beta`` (window
dependence of the raw angle moments), and ``mwp`` (packet construction).

Machine-readable output (JSON or CSV) goes to stdout, human diagnostics to
stderr.  Exit codes: 0 all comparisons passed, 1 a comparison failed,
2 usage/parse error, 3 unusable state (non-normalizable or quasi-periodic
where periodicity is required).
"""

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import bessel
from .errors import DegenerateStateError, UnsupportedStateError
from .mwp import Axis, mwp_x, mwp_y, verify_packet
from .observables import (
    angle_moments_beta,
    compute_report,
    expect_lz,
    expect_xy,
    mean_resultant,
    sigma_lz,
    sigma_total,
    sigma_xy,
)
from .state import (
    Config,
    cos_harmonic_state,
    dump_state,
    load_state,
    sin_half_power_state,
    superposition_state,
)
from .uncertainty import (
    check_fujikawa,
    check_total_ur,
    check_ur_x,
    check_ur_y,
    detect_fold_symmetry,
    is_fully_symmetric,
    recommend_n,
)

USAGE_ERROR = 2
STATE_ERROR = 3

CASE_NAMES = ["superposition", "sin-power", "von-mises", "cos-phi", "cos-2phi"]

# most rows one scan-beta run may print
MAX_SCAN_ROWS = 100_000


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _check(quantity: str, expected: float, measured: float, tol: float) -> dict:
    if math.isinf(expected) or math.isinf(measured):
        ok = math.isinf(expected) and math.isinf(measured)
    else:
        ok = abs(measured - expected) <= tol
    return {"quantity": quantity, "expected": expected,
            "measured": measured, "pass": bool(ok)}


def _case_superposition(k: int, m: int, cfg: Config) -> tuple[dict, list]:
    state = superposition_state(k, m, cfg)
    d = abs(k - m)
    ex, ey = expect_xy(state, 1)
    sr = sigma_total(state, 1, cfg)
    slz = sigma_lz(state)
    hb = cfg.hbar
    checks = [
        _check("mean_x", 0.5 if d == 1 else 0.0, ex, cfg.cmp_tol),
        _check("mean_y", 0.0, ey, cfg.cmp_tol),
        _check("sigma_lz", 0.5 * hb * d, slz, cfg.cmp_tol),
        _check("sigma_r", math.sqrt(3) if d == 1 else math.inf, sr,
               cfg.cmp_tol),
        _check("total_product",
               0.5 * math.sqrt(3) * hb if d == 1 else math.inf,
               sr * slz if math.isfinite(sr) else math.inf, cfg.cmp_tol),
    ]
    return {"k": k, "m": m}, checks


def _case_sin_power(n: int, cfg: Config) -> tuple[dict, list]:
    state = sin_half_power_state(n, cfg)
    ex, _ = expect_xy(state, 1)
    sr = sigma_total(state, 1, cfg)
    slz = sigma_lz(state)
    hb = cfg.hbar
    checks = [
        _check("mean_x", -n / (n + 1), ex, cfg.cmp_tol),
        _check("sigma_r", math.sqrt(2 * n + 1) / n, sr, cfg.cmp_tol),
        _check("sigma_lz", 0.5 * hb * n / math.sqrt(2 * n - 1), slz,
               cfg.cmp_tol),
        _check("total_product",
               0.5 * hb * math.sqrt((2 * n + 1) / (2 * n - 1)), sr * slz,
               cfg.cmp_tol),
    ]
    return {"n": n}, checks


def _case_von_mises(alpha: float, cfg: Config) -> tuple[dict, list]:
    _, state = mwp_x(1, 0, alpha, cfg)
    ex, ey = expect_xy(state, 1)
    sr = sigma_total(state, 1, cfg)
    slz = sigma_lz(state)
    r = bessel.ratio(alpha)
    hb = cfg.hbar
    checks = [
        _check("mean_x", 0.0, ex, cfg.cmp_tol),
        _check("mean_y", r, ey, cfg.cmp_tol),
        _check("sigma_lz", 0.5 * hb * math.sqrt(alpha * r), slz, cfg.cmp_tol),
        _check("total_product", 0.5 * hb * bessel.f_alpha(alpha), sr * slz,
               cfg.cmp_tol),
    ]
    return {"alpha": alpha}, checks


def _case_cos_phi(cfg: Config) -> tuple[dict, list]:
    state = cos_harmonic_state(1, cfg)
    slz = sigma_lz(state)
    s2 = sigma_total(state, 2, cfg)
    hb = cfg.hbar
    checks = [
        _check("r_1", 0.0, mean_resultant(state, 1), cfg.cmp_tol),
        _check("sigma_lz", hb, slz, cfg.cmp_tol),
        _check("mean_x2", 0.5, expect_xy(state, 2)[0], cfg.cmp_tol),
        _check("sigma_2", 0.5 * math.sqrt(3), s2, cfg.cmp_tol),
        _check("total_product_n2", 0.5 * math.sqrt(3) * hb, s2 * slz,
               cfg.cmp_tol),
    ]
    return {}, checks


def _case_cos_2phi(cfg: Config) -> tuple[dict, list]:
    state = cos_harmonic_state(2, cfg)
    slz = sigma_lz(state)
    s4 = sigma_total(state, 4, cfg)
    hb = cfg.hbar
    checks = [
        _check("r_1", 0.0, mean_resultant(state, 1), cfg.cmp_tol),
        _check("r_4", 0.5, mean_resultant(state, 4), cfg.cmp_tol),
        _check("sigma_4", 0.25 * math.sqrt(3), s4, cfg.cmp_tol),
        _check("sigma_lz", 2.0 * hb, slz, cfg.cmp_tol),
        _check("total_product_n4", 0.5 * math.sqrt(3) * hb, s4 * slz,
               cfg.cmp_tol),
    ]
    return {}, checks


def run_examples(args, cfg: Config) -> int:
    selected = [args.case] if args.case else CASE_NAMES
    if "von-mises" in selected and args.alpha == 0.0:
        print("error: the von Mises example needs a nonzero --alpha",
              file=sys.stderr)
        return USAGE_ERROR
    report = {"cases": [], "all_pass": True}
    for name in selected:
        if name == "superposition":
            params, checks = _case_superposition(args.k, args.m, cfg)
        elif name == "sin-power":
            params, checks = _case_sin_power(args.n, cfg)
        elif name == "von-mises":
            params, checks = _case_von_mises(args.alpha, cfg)
        elif name == "cos-phi":
            params, checks = _case_cos_phi(cfg)
        else:
            params, checks = _case_cos_2phi(cfg)
        for c in checks:
            verdict = "PASS" if c["pass"] else "FAIL"
            print(f"[{verdict}] {name} {c['quantity']}: "
                  f"expected={c['expected']:.12g} "
                  f"measured={c['measured']:.12g}", file=sys.stderr)
            report["all_pass"] &= c["pass"]
        report["cases"].append({"id": name, "params": params,
                                "checks": checks})
    report["all_pass"] = bool(report["all_pass"])
    json.dump(report, sys.stdout, indent=2)
    print()
    return 0 if report["all_pass"] else 1


def _curve_rows(args, cfg: Config):
    if args.name == "mwp_abs":
        _, state = mwp_x(args.n, args.m, args.alpha, cfg)
        xs = np.arange(args.start, args.stop + 0.5 * args.step, args.step)
        return "phi,abs_psi", [(float(x), abs(state.evaluate(float(x))))
                               for x in xs]
    fn = {"ratio": bessel.ratio, "f": bessel.f_alpha, "h": bessel.h_alpha}
    xs = np.arange(args.start, args.stop + 0.5 * args.step, args.step)
    return "x,value", [(float(x), fn[args.name](float(x))) for x in xs]


def run_curve(args, cfg: Config) -> int:
    if args.step <= 0 or not math.isfinite(args.start) \
            or not math.isfinite(args.stop) or args.stop < args.start:
        print("error: need finite --from <= --to and --step > 0",
              file=sys.stderr)
        return USAGE_ERROR
    header, rows = _curve_rows(args, cfg)
    if args.json:
        cols = header.split(",")
        json.dump([dict(zip(cols, row)) for row in rows], sys.stdout,
                  indent=2)
        print()
    else:
        print(header)
        for row in rows:
            print(",".join(_fmt(v) for v in row))
    return 0


def _load_state_file(path: str, cfg: Config):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None, USAGE_ERROR
    try:
        return load_state(text, cfg), 0
    except DegenerateStateError as exc:
        print(f"error: state is not normalizable: {exc}", file=sys.stderr)
        return None, STATE_ERROR
    except ValueError as exc:
        print(f"error: cannot parse {path}: {exc}", file=sys.stderr)
        return None, USAGE_ERROR


def run_report(args, cfg: Config) -> int:
    state, status = _load_state_file(args.state_file, cfg)
    if state is None:
        return status
    observables = []
    checks = []
    for n in range(1, args.nmax + 1):
        observables.append(dataclasses.asdict(compute_report(state, n, cfg)))
        checks.extend([check_ur_x(state, n, cfg), check_ur_y(state, n, cfg),
                       check_total_ur(state, n, cfg)])
    fujikawa = None
    if state.is_periodic:
        fujikawa = check_fujikawa(state, cfg)
        checks.append(fujikawa)
    else:
        print("note: quasi-periodic state, window bound skipped",
              file=sys.stderr)
    print(f"{'kind':10} {'n':>2} {'lhs':>12} {'rhs':>12} {'slack':>12} holds",
          file=sys.stderr)
    for rep in checks:
        print(f"{rep.kind.value:10} {rep.n:>2} {rep.lhs:>12.6g} "
              f"{rep.rhs:>12.6g} {rep.slack:>12.6g} {rep.holds}",
              file=sys.stderr)
    payload = {
        "hbar": cfg.hbar,
        "theta": state.theta,
        "observables": observables,
        "uncertainty": [
            {**dataclasses.asdict(rep), "kind": rep.kind.value}
            for rep in checks
        ],
        "fold_symmetry": {
            "n": detect_fold_symmetry(state, args.symmetry_tol, cfg),
            "fully_symmetric": is_fully_symmetric(state, args.symmetry_tol),
        },
        "recommended_n": recommend_n(state, args.r_threshold, cfg),
    }
    json.dump(payload, sys.stdout, indent=2)
    print()
    return 0 if all(rep.holds for rep in checks) else 1


def _scan_betas(start: float, stop: float, step: float) -> list | None:
    """Window starts start, start + step, ... up to stop, or None when a
    bound is not finite, step is not positive, or the scan would exceed
    MAX_SCAN_ROWS rows."""
    if not (math.isfinite(start) and math.isfinite(stop)
            and math.isfinite(step) and step > 0):
        return None
    if (stop - start) / step >= MAX_SCAN_ROWS:
        return None
    betas = [start]
    while betas[-1] + step <= stop + 1e-12 * step:
        # a step lost to rounding at large |beta| never reaches stop
        if len(betas) == MAX_SCAN_ROWS:
            return None
        betas.append(betas[-1] + step)
    return betas


def run_scan_beta(args, cfg: Config) -> int:
    state, status = _load_state_file(args.state_file, cfg)
    if state is None:
        return status
    if not state.is_periodic:
        print("error: scan-beta needs a strictly periodic state",
              file=sys.stderr)
        return STATE_ERROR
    betas = _scan_betas(args.start, args.stop, args.step)
    if betas is None:
        print("error: need finite --from, --to and --step > 0, with at "
              f"most {MAX_SCAN_ROWS} rows", file=sys.stderr)
        return USAGE_ERROR
    means, _, sigmas = angle_moments_beta(state, np.array(betas), cfg)
    rows = list(zip(betas, means.tolist(), sigmas.tolist()))
    if args.json:
        json.dump([{"beta": b, "mean_phi_beta": m, "sigma_phi_beta": s}
                   for b, m, s in rows], sys.stdout, indent=2)
        print()
    else:
        print("beta,mean_phi_beta,sigma_phi_beta")
        for row in rows:
            print(",".join(_fmt(v) for v in row))
    return 0


def run_mwp(args, cfg: Config) -> int:
    builder = mwp_x if Axis(args.axis) is Axis.X else mwp_y
    packet, state = builder(args.n, args.m, args.kappa, cfg)
    if args.emit_state:
        sys.stdout.write(dump_state(state))
        return 0
    if args.emit_curve:
        print("phi,abs_psi")
        for j in range(args.points):
            phi = 2.0 * math.pi * j / args.points
            print(f"{_fmt(phi)},{_fmt(abs(state.evaluate(phi)))}")
        return 0
    verification = verify_packet(packet, state, cfg.cmp_tol)
    ex, ey = expect_xy(state, packet.n)
    sx, sy = sigma_xy(state, packet.n)
    slz = sigma_lz(state)
    payload = {
        "axis": packet.axis.value,
        "n": packet.n,
        "m": packet.m,
        "kappa": packet.kappa,
        "predicted": dataclasses.asdict(packet.predicted),
        "measured": {"ex": ex, "ey": ey, "sigma_x2": sx * sx,
                     "sigma_y2": sy * sy, "sigma_lz2": slz * slz,
                     "lz": expect_lz(state)},
        "verification": {"ok": verification.ok, "tol": verification.tol,
                         "deltas": verification.deltas},
    }
    json.dump(payload, sys.stdout, indent=2)
    print()
    return 0 if verification.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qring",
        description="Circular quantum states: observables, uncertainty "
                    "bounds, von Mises packets.")
    parser.add_argument("--hbar", type=float, default=1.0,
                        help="angular momentum unit (default 1)")
    parser.add_argument("--tol", type=float, default=1e-9,
                        help="comparison tolerance (default 1e-9)")
    parser.add_argument("--grid", type=int, default=4096,
                        help="sampling grid size (default 4096)")
    parser.add_argument("--json", action="store_true",
                        help="emit JSON instead of CSV where applicable")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("examples", help="run the worked-example checks")
    p.add_argument("case", nargs="?", choices=CASE_NAMES,
                   help="run a single case (default: all)")
    p.add_argument("--k", type=int, default=3,
                   help="first mode of the superposition case")
    p.add_argument("--m", type=int, default=2,
                   help="second mode of the superposition case")
    p.add_argument("--n", type=int, default=4,
                   help="power for the sin-power case")
    p.add_argument("--alpha", type=float, default=2.0,
                   help="concentration for the von Mises case")

    p = sub.add_parser("curve", help="emit a function trace as CSV")
    p.add_argument("name", choices=["ratio", "f", "h", "mwp_abs"])
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--alpha", type=float, default=1.0)

    p = sub.add_parser("report", help="full analysis of a state file")
    p.add_argument("state_file")
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--symmetry-tol", type=float, default=1e-9)
    p.add_argument("--r-threshold", type=float, default=0.1)

    p = sub.add_parser("scan-beta",
                       help="angle moments over a window-start scan")
    p.add_argument("state_file")
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)

    p = sub.add_parser("mwp", help="construct a minimum wave packet")
    p.add_argument("--axis", choices=["X", "Y"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--points", type=int, default=720,
                   help="sample count for --emit-curve")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--emit-state", action="store_true",
                       help="write the state file instead of the report")
    group.add_argument("--emit-curve", action="store_true",
                       help="write the |psi| curve as CSV")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = Config(hbar=args.hbar, cmp_tol=args.tol, grid_size=args.grid)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    dispatch = {
        "examples": run_examples,
        "curve": run_curve,
        "report": run_report,
        "scan-beta": run_scan_beta,
        "mwp": run_mwp,
    }
    try:
        return dispatch[args.command](args, cfg)
    except UnsupportedStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return STATE_ERROR
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
