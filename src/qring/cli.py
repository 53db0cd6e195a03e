"""Command-line front end.

Subcommands: ``examples`` (worked-example verification with closed-form
expectations), ``curve`` (CSV traces of ratio/f/h/packet profiles),
``report`` (full JSON analysis of a state file), ``scan-beta`` (window
dependence of the raw angle moments), and ``mwp`` (packet construction).

Machine-readable output (JSON or CSV) goes to stdout, human diagnostics to
stderr.  Exit codes: 0 all comparisons passed, 1 a comparison failed,
2 usage/parse error (a value that overflows or underflows float64 at
--hbar included), 3 unusable state (non-normalizable).  The subcommands
only raise: ``main`` alone writes a failure's ``error:`` line and exits 3
on a ``DegenerateStateError``, 2 on any other ``ValueError`` or
``OverflowError``.

The library works in units of hbar (hbar = 1); --hbar is only the unit of
the printed values.  ``_in_hbar`` alone multiplies a measured or
predicted value by hbar and names one that overflows or underflows
there, and at hbar = 1 every value is printed as the library returns it.
A printed slack or delta is no such value: it is the difference of the
printed values it compares, a bound's lhs - rhs, or a measured value
less its prediction.  ``main`` validates --hbar before --tol; ``report``
scales its bounds by n (X, Y, TOTAL), then sigma_Lz, then the window
bound, before it reads its symmetry options, and ``mwp`` scales
sigma_lz2, then lz.

``examples`` is one table: each case gives its (quantity, expected,
measured) rows at hbar = 1, and its product row measures the total bound's
left side.  Every comparison is decided on those values, against --tol,
and only the printed values are scaled to --hbar.  --tol serves
``examples`` and ``mwp`` alone; no bound verdict reads it.
``curve`` and ``scan-beta`` share one row range, from + k*step up to --to.
``report`` reads its n-series from ``uncertainty.series_columns``, one
row of Python floats per n, and builds its row tables from those rows
with no numpy call.  Every JSON document goes through
``_write_json``, which writes exactly the bytes of ``json.dumps(obj,
indent=2)`` but encodes each innermost container, each row table (a
list of flat dicts, such as the report's ``observables``) and each
scalar leaf in one call of the standard library's C encoder, built once
per indent depth by ``_flat_encoder``: ``JSONEncoder.encode`` would
build a new one on every call.  ``_write_table`` writes every
``curve``, ``scan-beta`` and ``mwp --emit-curve`` table, its CSV in one
format call, as is the report's stderr check table.

``build_parser`` is the one grammar.  ``main`` parses a command line of
the documented shape (global options, the subcommand, its positionals,
then its options, each spelled in full and given once) with ``_parse``,
which gives the namespace argparse would, at a fraction of argparse's
cost, and None for anything else.  That goes to ``parse_args``, so
argparse alone reads every other spelling and writes all help, usage and
error text.  ``_parse`` reads only the grammar ``build_parser`` declares.
"""

import argparse
import functools
import json
import math
import re
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from . import bessel
from .errors import DegenerateStateError
from .mwp import Axis, mwp_x, mwp_y, verify_packet
from .observables import (
    angle_moments_beta,
    expect_xy,
    mean_angle,
    mean_resultant,
    sigma_lz,
    sigma_total,
)
from .state import (
    cos_harmonic_state,
    dump_state,
    load_state,
    sin_half_power_state,
    superposition_state,
)
from .uncertainty import (
    check_fujikawa,
    check_total_ur,
    detect_fold_symmetry,
    is_fully_symmetric,
    recommend_n,
    series_columns,
)

USAGE_ERROR = 2
STATE_ERROR = 3

CASE_NAMES = ["superposition", "sin-power", "von-mises", "cos-phi", "cos-2phi"]

# most rows one scan-beta, curve or mwp --emit-curve run may print, and the
# largest report --nmax
MAX_SCAN_ROWS = 100_000

# a token that is a value, not an option: argparse's own matcher with an
# optional exponent, so that -1e-3 follows an option as -0.001 does
_NEGATIVE_NUMBER = re.compile(
    r"^-\d+([eE][-+]?\d+)?$|^-\d*\.\d+([eE][-+]?\d+)?$")


_CONTAINERS = (dict, list, tuple)
# exact types that are never containers, so a quick check by type suffices
_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _flat_encoder(make, depth: int):
    """The encode function of a container of scalars whose items sit
    ``depth`` indents deep: the item separator carries the newline and
    the indent.  ``make`` is ``json.encoder.c_make_encoder`` as the caller
    reads it; it builds the one C encoder that ``JSONEncoder.iterencode``
    would build afresh on every call.  Where it is None (no ``_json``
    module), ``JSONEncoder.encode`` runs the pure-Python encoder."""
    encoder = json.JSONEncoder(separators=(",\n" + "  " * depth, ": "),
                               check_circular=False)
    if make is None:
        return encoder.encode
    iterencode = make(None, encoder.default, encode_basestring_ascii, None,
                      encoder.key_separator, encoder.item_separator,
                      False, False, True)
    return lambda obj: "".join(iterencode(obj, 0))


def _dumps(obj, depth: int = 0) -> str:
    """obj through the encoder of ``_flat_encoder``: a scalar as
    ``json.dumps`` writes it, a container of scalars with its items
    ``depth`` indents deep."""
    return _flat_encoder(json.encoder.c_make_encoder, depth)(obj)


def _key(key) -> str:
    """A dict key as ``json.dumps`` writes it: a str as itself, an int,
    float, bool or None as its JSON spelling, quoted."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return encode_basestring_ascii(_dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(key).__name__}")


def _is_table(obj) -> bool:
    """Whether obj is a list or tuple of non-empty dicts whose values all
    have exact scalar types; each test runs over the items in C."""
    return (set(map(type, obj)) == {dict} and all(obj)
            and _SCALARS.issuperset(
                map(type, chain.from_iterable(map(dict.values, obj)))))


def _encode(obj, depth: int, out: list) -> None:
    """Append the ``json.dumps(obj, indent=2)`` text of obj, nested
    ``depth`` indents deep, to out."""
    if not isinstance(obj, _CONTAINERS) or not obj:
        out.append(_dumps(obj))
        return
    is_dict = isinstance(obj, dict)
    inner = "\n" + "  " * (depth + 1)
    outer = "\n" + "  " * depth
    if not is_dict and _is_table(obj):
        # the encoder escapes every newline in a string, so a literal one
        # is a separator, and "}" separator "{" only ever joins two rows
        field = "\n" + "  " * (depth + 2)
        text = _dumps(obj, depth + 2)
        rows = text[2:-2].replace("}," + field + "{",
                                  inner + "}," + inner + "{" + field)
        out += ("[", inner, "{", field, rows, inner, "}", outer, "]")
        return
    values = obj.values() if is_dict else obj
    if (_SCALARS.issuperset(map(type, values))
            or not any(isinstance(v, _CONTAINERS) for v in values)):
        text = _dumps(obj, depth + 1)
        out += (text[0], inner, text[1:-1], outer, text[-1])
        return
    out.append("{" if is_dict else "[")
    sep = inner
    for item in (obj.items() if is_dict else obj):
        out.append(sep)
        sep = "," + inner
        if is_dict:
            key, item = item
            out.append(_key(key) + ": ")
        _encode(item, depth + 1, out)
    out += (outer, "}" if is_dict else "]")


def _write_json(obj) -> None:
    """Write obj as ``json.dumps(obj, indent=2)`` and a newline would, in
    one ``sys.stdout.write``."""
    out = []
    _encode(obj, 0, out)
    out.append("\n")
    sys.stdout.write("".join(out))


def _write_table(names, columns, as_json: bool) -> None:
    """Write equal-length columns of floats as CSV under a header line, at
    17 significant digits, or with ``as_json`` as a list of row objects.
    Either form is one call over the whole table."""
    if as_json:
        return _write_json([dict(zip(names, row)) for row in zip(*columns)])
    row = ",".join(["%.17g"] * len(names)) + "\n"
    values = tuple(chain.from_iterable(zip(*columns)))
    sys.stdout.write(",".join(names) + "\n"
                     + row * len(columns[0]) % values)


def _in_hbar(hbar: float, power: int, what: str, *values) -> tuple:
    """The values, measured or predicted floats at hbar = 1 of degree
    ``power`` in hbar, each multiplied by hbar ``power`` times
    (hbar**power may overflow where the product does not): the one place
    hbar enters a value.  At hbar = 1 they come back as they are, as the
    products would be.  The first finite value that comes out infinite
    raises ``OverflowError``, and the first normal one that comes out zero
    or subnormal ``ValueError``, naming ``what``.  A zero, infinite (an
    isotropic sigma_n) or subnormal value stays as it is.  A slack or a
    delta is not scaled here: the caller takes it as the difference of
    the products."""
    if hbar == 1.0:  # v * 1.0 is v to the bit, and never overflows
        return values
    scaled = values
    while power:  # a while loop: range() would cost more than the product
        scaled = [value * hbar for value in scaled]
        power -= 1
    for value, out in zip(values, scaled):
        if math.isinf(out) and math.isfinite(value):
            raise OverflowError(f"{what} overflows float64 "
                                f"(hbar={hbar!r}); use a smaller hbar")
        if abs(out) < sys.float_info.min <= abs(value) < math.inf:
            raise ValueError(f"{what} underflows float64 "
                             f"(hbar={hbar!r}); use a larger hbar")
    return tuple(scaled)


def _bound_in_hbar(hbar: float, verdict) -> tuple:
    """A bound verdict (kind, n, lhs, rhs, slack, holds, saturated) with its
    sides, of degree 1, in units of hbar, and as its slack their printed
    difference.  That difference needs no underflow check, as one that
    comes out subnormal is exact.  It can overflow where the sides do
    not, on the window bound, whose right side is negative; the unit
    slack then names the overflow."""
    if hbar == 1.0:
        return verdict
    kind, n, lhs, rhs, slack, holds, saturated = verdict
    what = f"{kind.value} bound at n={n}"
    lhs, rhs = _in_hbar(hbar, 1, what, lhs, rhs)
    if math.isinf(lhs - rhs) and math.isfinite(lhs):
        # the unit slack overflows at hbar too, unless it lies within a
        # last bit of float64's limit; then its finite product is printed
        slack, = _in_hbar(hbar, 1, what, slack)
    else:
        slack = lhs - rhs
    return kind, n, lhs, rhs, slack, holds, saturated


def _check(name: str, quantity: str, expected: float, measured: float,
           args) -> dict:
    """One examples row, decided at hbar = 1 and printed in units of hbar."""
    if math.isinf(expected) or math.isinf(measured):
        ok = math.isinf(expected) and math.isinf(measured)
    else:
        ok = abs(measured - expected) <= args.tol * max(1.0, abs(expected))
    # sigma_lz and the products have degree 1 in hbar, the rest degree 0
    power = 1 if quantity.startswith(("sigma_lz", "total_product")) else 0
    expected, measured = _in_hbar(args.hbar, power,
                                  f"{quantity} of the {name} example",
                                  expected, measured)
    return {"quantity": quantity, "expected": expected,
            "measured": measured, "pass": bool(ok)}


def _example(name: str, args) -> tuple[dict, list]:
    """The params of one worked example and its (quantity, expected,
    measured) rows at hbar = 1.

    Each case checks the total bound at its harmonic index n: sigma_n
    (``sigma_r`` at n = 1) against its closed form, and the product
    against the bound's left side, ``check_total_ur(state, n).lhs``.  The
    one documented infinity is a superposition with |k - m| != 1, whose
    sigma_r and product are infinite.
    """
    s3 = math.sqrt(3)
    if name == "superposition":
        k, m, n = args.k, args.m, 1
        state, params = superposition_state(k, m), {"k": k, "m": m}
        d = abs(k - m)
        expected = [("mean_x", 0.5 if d == 1 else 0.0), ("mean_y", 0.0),
                    ("sigma_lz", 0.5 * d),
                    ("sigma_r", s3 if d == 1 else math.inf),
                    ("total_product", 0.5 * s3 if d == 1 else math.inf)]
    elif name == "sin-power":
        p, n = args.n, 1
        state, params = sin_half_power_state(p), {"n": p}
        expected = [("mean_x", -p / (p + 1)),
                    ("sigma_r", math.sqrt(2 * p + 1) / p),
                    ("sigma_lz", 0.5 * p / math.sqrt(2 * p - 1)),
                    ("total_product",
                     0.5 * math.sqrt((2 * p + 1) / (2 * p - 1)))]
    elif name == "von-mises":
        alpha, n = args.alpha, 1
        state, params = mwp_x(1, 0, alpha)[1], {"alpha": alpha}
        i0, i1, f, _ = bessel.von_mises(alpha)
        r = i1 / i0
        expected = [("mean_x", 0.0), ("mean_y", r),
                    ("sigma_lz", 0.5 * math.sqrt(alpha * r)),
                    ("total_product", 0.5 * f)]
    elif name == "cos-phi":
        state, params, n = cos_harmonic_state(1), {}, 2
        expected = [("r_1", 0.0), ("sigma_lz", 1.0), ("mean_x2", 0.5),
                    ("sigma_2", 0.5 * s3), ("total_product_n2", 0.5 * s3)]
    else:
        state, params, n = cos_harmonic_state(2), {}, 4
        expected = [("r_1", 0.0), ("r_4", 0.5), ("sigma_4", 0.25 * s3),
                    ("sigma_lz", 2.0), ("total_product_n4", 0.5 * s3)]
    ex, ey = expect_xy(state, 1)
    measured = {"mean_x": ex, "mean_y": ey, "mean_x2": expect_xy(state, 2)[0],
                "r_1": mean_resultant(state, 1),
                "r_4": mean_resultant(state, 4), "sigma_lz": sigma_lz(state),
                "sigma_r" if n == 1 else f"sigma_{n}": sigma_total(state, n),
                "total_product" if n == 1 else f"total_product_n{n}":
                    check_total_ur(state, n).lhs}
    return params, [(q, e, measured[q]) for q, e in expected]


def run_examples(args) -> int:
    selected = [args.case] if args.case else CASE_NAMES
    if "von-mises" in selected and args.alpha == 0.0:
        raise ValueError("the von Mises example needs a nonzero --alpha")
    report = {"cases": [], "all_pass": True}
    for name in selected:
        params, rows = _example(name, args)
        checks = [_check(name, *row, args) for row in rows]
        for c in checks:
            verdict = "PASS" if c["pass"] else "FAIL"
            print(f"[{verdict}] {name} {c['quantity']}: "
                  f"expected={c['expected']:.12g} "
                  f"measured={c['measured']:.12g}", file=sys.stderr)
            report["all_pass"] &= c["pass"]
        report["cases"].append({"id": name, "params": params,
                                "checks": checks})
    report["all_pass"] = bool(report["all_pass"])
    _write_json(report)
    return 0 if report["all_pass"] else 1


def _row_range(start: float, stop: float, step: float) -> np.ndarray:
    """The points start + k*step, k = 0, 1, ..., up to stop (within 1e-12
    step), of a ``curve`` or ``scan-beta`` table.

    Raises ValueError when a bound is not finite, stop < start, step is
    not positive, the table would exceed MAX_SCAN_ROWS rows, or a step is
    lost to rounding.
    """
    message = (f"need finite --from <= --to and --step > 0, with at most "
               f"{MAX_SCAN_ROWS} rows")
    if not (math.isfinite(start) and math.isfinite(stop)
            and math.isfinite(step) and step > 0 and start <= stop
            and (stop - start) / step < MAX_SCAN_ROWS):
        raise ValueError(message)
    # one candidate past the last k, as (stop - start) / step may round
    # either way; none at start == stop, where start + step may round onto
    # start at large |x|
    count = math.floor((stop - start) / step) + 2 if start < stop else 1
    xs = start + np.arange(count) * step
    xs = xs[:np.count_nonzero(xs <= stop + 1e-12 * step)]
    # a step lost to rounding at large |x| repeats a point
    if xs.size > MAX_SCAN_ROWS or np.any(np.diff(xs) <= 0):
        raise ValueError(message)
    return xs


def run_curve(args) -> int:
    xs = _row_range(args.start, args.stop, args.step)
    if args.name == "mwp_abs":
        _, state = mwp_x(args.n, args.m, args.alpha)
        names, values = ("phi", "abs_psi"), np.abs(state.evaluate(xs)).tolist()
    else:
        fn = {"ratio": bessel.ratio, "f": bessel.f_alpha,
              "h": bessel.h_alpha}[args.name]
        names, values = ("x", "value"), [fn(x) for x in xs.tolist()]
    _write_table(names, (xs.tolist(), values), args.json)
    return 0


def _load_state_file(path: str):
    """The state in the file at path, read as UTF-8 after at most one
    leading byte-order mark.  A file it cannot read or parse raises a
    ``ValueError`` that names it; a ``DegenerateStateError`` passes."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return load_state(fh.read())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except DegenerateStateError:
        raise
    except ValueError as exc:  # a UnicodeDecodeError too
        raise ValueError(f"cannot parse {path}: {exc}") from exc


# one line of the report's stderr table, and the check fields it reads
_CHECK_ROW = "%-10s %2d %12.6g %12.6g %12.6g %s\n"
_CHECK_FIELDS = itemgetter("kind", "n", "lhs", "rhs", "slack", "holds")


def run_report(args) -> int:
    if not 1 <= args.nmax <= MAX_SCAN_ROWS:
        raise ValueError(f"--nmax must lie in [1, {MAX_SCAN_ROWS}]")
    state = _load_state_file(args.state_file)
    rows = series_columns(state, args.nmax)
    # per n: X, Y, TOTAL, as the scalar checks run; then the window bound
    bounds = [bound for row in rows
              for bound in (row.x_axis, row.y_axis, row.total)]
    slz, hbar = sigma_lz(state), args.hbar
    if hbar != 1.0:  # in the documented order of their range errors
        bounds = [_bound_in_hbar(hbar, bound) for bound in bounds]
        slz, = _in_hbar(hbar, 1, "sigma_Lz", slz)
    if state.is_periodic:
        bounds.append(_bound_in_hbar(hbar, check_fujikawa(state)))
    mean_phi = mean_angle(state)
    observables = [
        {"n": n, "ex": ex, "ey": ey, "r_n": r, "mean_phi": mean_phi,
         "sigma_x": sx, "sigma_y": sy, "sigma_lz": slz, "sigma_tilde": st,
         "sigma_n": sn}
        for n, ex, ey, r, sx, sy, st, sn, _, _, _ in rows]
    checks = [{"kind": kind.value, "n": n, "lhs": lhs, "rhs": rhs,
               "slack": slack, "holds": holds, "saturated": saturated}
              for kind, n, lhs, rhs, slack, holds, saturated in bounds]
    # built before any output, as it validates the two symmetry flags
    payload = {
        "hbar": hbar,
        "theta": state.theta,
        "observables": observables,
        "uncertainty": checks,
        "fold_symmetry": {
            "n": detect_fold_symmetry(state, args.symmetry_tol),
            "fully_symmetric": is_fully_symmetric(state, args.symmetry_tol),
        },
        "recommended_n": recommend_n(state, args.r_threshold),
    }
    if not state.is_periodic:
        print("note: quasi-periodic state, window bound skipped",
              file=sys.stderr)
    rows = chain.from_iterable(map(_CHECK_FIELDS, checks))
    sys.stderr.write(f"{'kind':10} {'n':>2} {'lhs':>12} {'rhs':>12} "
                     f"{'slack':>12} holds\n"
                     + _CHECK_ROW * len(checks) % tuple(rows))
    _write_json(payload)
    return 0 if all(c["holds"] for c in checks) else 1


def run_scan_beta(args) -> int:
    state = _load_state_file(args.state_file)
    betas = _row_range(args.start, args.stop, args.step)
    means, _, sigmas = angle_moments_beta(state, betas)
    _write_table(("beta", "mean_phi_beta", "sigma_phi_beta"),
                 (betas.tolist(), means.tolist(), sigmas.tolist()), args.json)
    return 0


def run_mwp(args) -> int:
    if not 1 <= args.points <= MAX_SCAN_ROWS:
        raise ValueError(f"--points must lie in [1, {MAX_SCAN_ROWS}]")
    builder = mwp_x if args.axis == Axis.X.value else mwp_y
    packet, state = builder(args.n, args.m, args.kappa)
    if args.emit_state:
        sys.stdout.write(dump_state(state))
        return 0
    if args.emit_curve:
        phi = 2.0 * math.pi * np.arange(args.points) / args.points
        _write_table(("phi", "abs_psi"),
                     (phi.tolist(), np.abs(state.evaluate(phi)).tolist()),
                     args.json)
        return 0
    verification = verify_packet(packet, state, args.tol)
    predicted, measured, deltas = (verification.predicted,
                                   verification.measured, verification.deltas)
    hbar = args.hbar
    if hbar != 1.0:  # each delta is taken from the printed values
        predicted["sigma_lz2"], measured["sigma_lz2"] = _in_hbar(
            hbar, 2, f"sigma_Lz^2 prediction at n={packet.n}",
            predicted["sigma_lz2"], measured["sigma_lz2"])
        deltas["sigma_lz2"] = measured["sigma_lz2"] - predicted["sigma_lz2"]
        measured["lz"], lz = _in_hbar(hbar, 1, "<L_z>", measured["lz"],
                                      packet.m)
        deltas["lz"] = measured["lz"] - lz
    payload = {
        "axis": packet.axis.value,
        "n": packet.n,
        "m": packet.m,
        "kappa": packet.kappa,
        "predicted": predicted,
        "measured": measured,
        "verification": {"ok": verification.ok, "tol": verification.tol,
                         "deltas": deltas},
    }
    _write_json(payload)
    return 0 if verification.ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qring argument parser, built on the first call and shared after.

    Parsing leaves the parser unchanged, so every in-process ``main`` call
    reuses one; the import of this module builds none.
    """
    parser = argparse.ArgumentParser(
        prog="qring",
        description="Circular quantum states: observables, uncertainty "
                    "bounds, von Mises packets.")
    parser.add_argument("--hbar", type=float, default=1.0,
                        help="angular momentum unit (default 1)")
    parser.add_argument("--tol", type=float, default=1e-9,
                        help="comparison tolerance of examples and mwp "
                             "(default 1e-9)")
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

    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


class _Grammar(NamedTuple):
    """What ``_parse`` reads of one parser of ``build_parser()``."""

    parser: argparse.ArgumentParser
    defaults: dict      # dest -> default, in the order argparse sets them
    positionals: list   # nargs None or "?", in order
    options: dict       # exact option string -> store or store_true action
    required: list      # required options
    groups: list        # the action sets of the exclusive groups


def _grammar(parser: argparse.ArgumentParser, positionals: list) -> _Grammar:
    """The grammar of one parser with the given positionals."""
    actions = parser._actions
    defaults = {}
    for a in actions:
        if argparse.SUPPRESS not in (a.dest, a.default):
            defaults.setdefault(a.dest, a.default)
    options = {s: a for a in actions for s in a.option_strings
               if type(a) is argparse._StoreTrueAction
               or (type(a) is argparse._StoreAction and a.nargs is None)}
    return _Grammar(
        parser, defaults, positionals, options,
        [a for a in actions if a.required and a.option_strings],
        [frozenset(g._group_actions)
         for g in parser._mutually_exclusive_groups])


@functools.cache
def _grammars() -> tuple:
    """The global options' grammar and each subcommand's grammar by name,
    read once from ``build_parser()``."""
    top = build_parser()
    command, = [a for a in top._actions if not a.option_strings]
    return _grammar(top, []), {
        name: _grammar(p, [a for a in p._actions if not a.option_strings])
        for name, p in command.choices.items()}


def _is_value(token: str) -> bool:
    """Whether argparse takes the token as a value, not as an option: every
    option of ``build_parser`` is ``--name``, and each parser has the
    matcher ``_NEGATIVE_NUMBER``."""
    return (not token.startswith("-")
            or _NEGATIVE_NUMBER.match(token) is not None)


def _value(parser: argparse.ArgumentParser, action: argparse.Action,
           token: str):
    """The token through the action's type and choices, as argparse runs
    it; raises ``argparse.ArgumentError`` where argparse would reject it."""
    value = parser._get_value(action, token)
    parser._check_value(action, value)
    return value


def _fill(g: _Grammar, argv: list, i: int, values: dict) -> int | None:
    """Read the positionals of g, then its options, from argv[i:] into
    values.  Returns the index of the first token that is not one of its
    options, or None where argparse might read the tokens otherwise or
    reject them."""
    parser, present = g.parser, set()
    try:
        for action in g.positionals:
            if i < len(argv) and _is_value(argv[i]):
                values[action.dest] = _value(parser, action, argv[i])
                present.add(action)
                i += 1
            elif action.nargs is None:
                return None
        while i < len(argv) and argv[i] in g.options:
            action = g.options[argv[i]]
            if action in present:
                return None
            present.add(action)
            if action.nargs == 0:
                values[action.dest] = action.const
                i += 1
            elif i + 1 < len(argv) and _is_value(argv[i + 1]):
                values[action.dest] = _value(parser, action, argv[i + 1])
                i += 2
            else:
                return None
    except argparse.ArgumentError:
        return None
    if (any(a not in present for a in g.required)
            or any(len(group & present) > 1 for group in g.groups)):
        return None
    return i


def _parse(argv: list) -> argparse.Namespace | None:
    """The namespace ``build_parser().parse_args(argv)`` gives, for an
    argv of the documented shape, else None.

    The shape is the global options, the subcommand, its positionals and
    then its options, each option spelled exactly and given once.  Each
    value is a token argparse takes as one and passes the action's own
    type and choices; the required options are present, and no two of
    one exclusive group.  Anything else (``-h``, ``--opt=value``, an
    abbreviation, ``--``, a repeat, a bad value) gives None.  The global
    parser scans the subcommand's tokens too, and rejects one only as an
    ambiguous prefix of two global options; no subcommand option is one.
    """
    top, subs = _grammars()
    values = dict(top.defaults)
    i = _fill(top, argv, 0, values)
    if i is None or i == len(argv) or (sub := subs.get(argv[i])) is None:
        return None
    sub_values = dict(sub.defaults)
    if _fill(sub, argv, i + 1, sub_values) != len(argv):
        return None
    # argparse sets the subcommand, then copies the subparser's namespace
    values["command"] = argv[i]
    values.update(sub_values)
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    dispatch = {
        "examples": run_examples,
        "curve": run_curve,
        "report": run_report,
        "scan-beta": run_scan_beta,
        "mwp": run_mwp,
    }
    try:
        if not (math.isfinite(args.hbar) and args.hbar > 0):
            raise ValueError("hbar must be positive and finite")
        if not 0 < args.tol < 1:
            raise ValueError("--tol must lie in (0, 1)")
        return dispatch[args.command](args)
    except DegenerateStateError as exc:
        print(f"error: state is not normalizable: {exc}", file=sys.stderr)
        return STATE_ERROR
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
