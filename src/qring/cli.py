"""Command-line front end.

Subcommands: ``examples`` (worked-example verification with closed-form
expectations), ``curve`` (CSV traces of ratio/f/h/packet profiles),
``report`` (full JSON analysis of a state file), ``scan-beta`` (window
dependence of the raw angle moments), and ``mwp`` (packet construction).

Machine-readable output (JSON or CSV) goes to stdout, human diagnostics to
stderr.  Exit codes: 0 all comparisons passed, 1 a comparison failed,
2 usage/parse error (an overflowing bound or sigma_Lz included),
3 unusable state (non-normalizable).  The subcommands only raise: ``main``
alone writes a failure's ``error:`` line and exits 3 on a
``DegenerateStateError``, 2 on any other ``ValueError`` or ``OverflowError``.

``examples`` is one table: each case gives its (quantity, expected,
measured) rows, and its product row measures the total bound's left side.
``curve`` and ``scan-beta`` share one row range, from + k*step up to --to.
``report`` reads its n-series from ``uncertainty.series_columns``, one
array pass over every n.  Every JSON document goes through
``_write_json``, which writes exactly the bytes of ``json.dumps(obj,
indent=2)`` but encodes each innermost container in one call of the
standard library's C encoder.  A row table (a list of flat dicts, such as
the report's ``observables`` and ``uncertainty`` lists) is one encoder
call too: the encoder escapes every newline inside a string, so the text
``"}" + separator + "{"`` only ever joins two rows, and one replace indents
it.  ``_write_table`` writes every ``curve``, ``scan-beta`` and
``mwp --emit-curve`` table, its CSV in one format call; the report's stderr
check table is one format call as well.  Each packet curve is one array
``evaluate`` call.

``build_parser`` is the one grammar.  ``main`` parses a command line of
the documented shape (global options, the subcommand, its positionals,
then its options, each spelled in full and given once) with ``_parse``,
which reads the parser's own option strings, actions, exclusive groups
and negative-number matcher on the first call, and runs each value
through its action's type and choices.  It gives the namespace argparse
would, at a fraction of argparse's cost, and None for anything else:
``-h``, ``--opt=value``, abbreviations, ``--``, repeats, unknown tokens,
bad values or missing arguments.  Those go to ``parse_args``, so argparse
alone reads every other spelling and writes all help, usage and error
text.
"""

import argparse
import dataclasses
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
    Config,
    cos_harmonic_state,
    dump_state,
    load_state,
    sin_half_power_state,
    superposition_state,
)
from .uncertainty import (
    URKind,
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


def _fields(record) -> dict:
    """The fields of a dataclass of scalars, in declaration order.

    A shallow dict: ``dataclasses.asdict`` would deep-copy every value,
    which scalars do not need.
    """
    return {f.name: getattr(record, f.name)
            for f in dataclasses.fields(record)}


_CONTAINERS = (dict, list, tuple)
# exact types that are never containers, so a quick check by type suffices
_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _flat_encoder(depth: int) -> json.JSONEncoder:
    """Encoder of a container of scalars whose items sit ``depth`` indents
    deep.  The item separator carries the newline and the indent; with no
    ``indent`` set, CPython runs its C encoder."""
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": "),
                            check_circular=False)


def _key(key) -> str:
    """A dict key as ``json.dumps`` writes it: a str as itself, an int,
    float, bool or None as its JSON spelling, quoted."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return encode_basestring_ascii(json.dumps(key))
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
        out.append(json.dumps(obj))
        return
    is_dict = isinstance(obj, dict)
    inner = "\n" + "  " * (depth + 1)
    outer = "\n" + "  " * depth
    if not is_dict and _is_table(obj):
        # the encoder escapes every newline in a string, so a literal one
        # is a separator, and "}" separator "{" only ever joins two rows
        field = "\n" + "  " * (depth + 2)
        text = _flat_encoder(depth + 2).encode(obj)
        rows = text[2:-2].replace("}," + field + "{",
                                  inner + "}," + inner + "{" + field)
        out += ("[", inner, "{", field, rows, inner, "}", outer, "]")
        return
    values = obj.values() if is_dict else obj
    if (_SCALARS.issuperset(map(type, values))
            or not any(isinstance(v, _CONTAINERS) for v in values)):
        text = _flat_encoder(depth + 1).encode(obj)
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


def _check(quantity: str, expected: float, measured: float, tol: float) -> dict:
    if math.isinf(expected) or math.isinf(measured):
        ok = math.isinf(expected) and math.isinf(measured)
    else:
        ok = abs(measured - expected) <= tol * max(1.0, abs(expected))
    return {"quantity": quantity, "expected": expected,
            "measured": measured, "pass": bool(ok)}


def _example(name: str, args, cfg: Config) -> tuple[dict, list]:
    """The params of one worked example and its (quantity, expected,
    measured) rows.

    Each case checks the total bound at its harmonic index n: sigma_n
    (``sigma_r`` at n = 1) against its closed form, and the product
    against the bound's left side, ``check_total_ur(state, n).lhs``.  The
    one documented infinity is a superposition with |k - m| != 1, whose
    sigma_r and product are infinite; an infinite sigma_Lz is an overflow.
    """
    hb, s3 = cfg.hbar, math.sqrt(3)
    if name == "superposition":
        k, m, n = args.k, args.m, 1
        state, params = superposition_state(k, m), {"k": k, "m": m}
        d = abs(k - m)
        expected = [("mean_x", 0.5 if d == 1 else 0.0), ("mean_y", 0.0),
                    ("sigma_lz", 0.5 * hb * d),
                    ("sigma_r", s3 if d == 1 else math.inf),
                    ("total_product", 0.5 * s3 * hb if d == 1 else math.inf)]
    elif name == "sin-power":
        p, n = args.n, 1
        state, params = sin_half_power_state(p), {"n": p}
        expected = [("mean_x", -p / (p + 1)),
                    ("sigma_r", math.sqrt(2 * p + 1) / p),
                    ("sigma_lz", 0.5 * hb * p / math.sqrt(2 * p - 1)),
                    ("total_product",
                     0.5 * hb * math.sqrt((2 * p + 1) / (2 * p - 1)))]
    elif name == "von-mises":
        alpha, n = args.alpha, 1
        state, params = mwp_x(1, 0, alpha)[1], {"alpha": alpha}
        i0, i1, f, _ = bessel.von_mises(alpha)
        r = i1 / i0
        expected = [("mean_x", 0.0), ("mean_y", r),
                    ("sigma_lz", 0.5 * hb * math.sqrt(alpha * r)),
                    ("total_product", 0.5 * hb * f)]
    elif name == "cos-phi":
        state, params, n = cos_harmonic_state(1), {}, 2
        expected = [("r_1", 0.0), ("sigma_lz", hb), ("mean_x2", 0.5),
                    ("sigma_2", 0.5 * s3),
                    ("total_product_n2", 0.5 * s3 * hb)]
    else:
        state, params, n = cos_harmonic_state(2), {}, 4
        expected = [("r_1", 0.0), ("r_4", 0.5), ("sigma_4", 0.25 * s3),
                    ("sigma_lz", 2.0 * hb),
                    ("total_product_n4", 0.5 * s3 * hb)]
    total = check_total_ur(state, n, cfg).lhs
    slz = sigma_lz(state, cfg)
    if not math.isfinite(slz):
        raise OverflowError(f"sigma_Lz of the {name} example overflows "
                            f"float64 (hbar={hb!r}); use a smaller hbar")
    ex, ey = expect_xy(state, 1)
    measured = {"mean_x": ex, "mean_y": ey, "mean_x2": expect_xy(state, 2)[0],
                "r_1": mean_resultant(state, 1),
                "r_4": mean_resultant(state, 4), "sigma_lz": slz,
                "sigma_r" if n == 1 else f"sigma_{n}":
                    sigma_total(state, n, cfg),
                "total_product" if n == 1 else f"total_product_n{n}": total}
    return params, [(q, e, measured[q]) for q, e in expected]


def run_examples(args, cfg: Config) -> int:
    selected = [args.case] if args.case else CASE_NAMES
    if "von-mises" in selected and args.alpha == 0.0:
        raise ValueError("the von Mises example needs a nonzero --alpha")
    report = {"cases": [], "all_pass": True}
    for name in selected:
        params, rows = _example(name, args, cfg)
        checks = [_check(*row, cfg.cmp_tol) for row in rows]
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
    # either way
    xs = start + np.arange(math.floor((stop - start) / step) + 2) * step
    xs = xs[:np.count_nonzero(xs <= stop + 1e-12 * step)]
    # a step lost to rounding at large |x| repeats a point
    if xs.size > MAX_SCAN_ROWS or np.any(np.diff(xs) <= 0):
        raise ValueError(message)
    return xs


def run_curve(args, _cfg: Config) -> int:
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
    """The state in the file at path.  A file it cannot read or parse raises
    a ``ValueError`` that names it; a ``DegenerateStateError`` passes."""
    try:
        with open(path, encoding="utf-8") as fh:
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


def _bound_rows(kind: str, ns: list, bounds) -> list:
    """The ``report`` rows of one bound family, in ``URReport`` field
    order, from its columns."""
    return [{"kind": kind, "n": n, "lhs": lhs, "rhs": rhs, "slack": slack,
             "holds": holds, "saturated": saturated}
            for n, lhs, rhs, slack, holds, saturated in zip(
                ns, bounds.lhs.tolist(), bounds.rhs.tolist(),
                bounds.slack.tolist(), bounds.holds.tolist(),
                bounds.saturated.tolist())]


def run_report(args, cfg: Config) -> int:
    if not 1 <= args.nmax <= MAX_SCAN_ROWS:
        raise ValueError(f"--nmax must lie in [1, {MAX_SCAN_ROWS}]")
    state = _load_state_file(args.state_file)
    cols = series_columns(state, args.nmax, cfg)
    ns = cols.n.tolist()
    mean_phi, slz = mean_angle(state, cfg), sigma_lz(state, cfg)
    observables = [
        {"n": n, "ex": ex, "ey": ey, "r_n": r, "mean_phi": mean_phi,
         "sigma_x": sx, "sigma_y": sy, "sigma_lz": slz, "sigma_tilde": st,
         "sigma_n": sn}
        for n, ex, ey, r, sx, sy, st, sn in zip(
            ns, cols.ex.tolist(), cols.ey.tolist(), cols.r_n.tolist(),
            cols.sigma_x.tolist(), cols.sigma_y.tolist(),
            cols.sigma_tilde.tolist(), cols.sigma_n.tolist())
    ]
    families = [_bound_rows(kind.value, ns, bounds) for kind, bounds in (
        (URKind.X_AXIS, cols.x_axis), (URKind.Y_AXIS, cols.y_axis),
        (URKind.TOTAL, cols.total))]
    # per n: X, Y, TOTAL, as the scalar checks run
    checks = [row for rows in zip(*families) for row in rows]
    if state.is_periodic:
        fujikawa = check_fujikawa(state, cfg)
        checks.append({**_fields(fujikawa), "kind": fujikawa.kind.value})
    # built before any output, as it validates the two symmetry flags
    payload = {
        "hbar": cfg.hbar,
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


def run_scan_beta(args, _cfg: Config) -> int:
    state = _load_state_file(args.state_file)
    betas = _row_range(args.start, args.stop, args.step)
    means, _, sigmas = angle_moments_beta(state, betas)
    _write_table(("beta", "mean_phi_beta", "sigma_phi_beta"),
                 (betas.tolist(), means.tolist(), sigmas.tolist()), args.json)
    return 0


def run_mwp(args, cfg: Config) -> int:
    if not 1 <= args.points <= MAX_SCAN_ROWS:
        raise ValueError(f"--points must lie in [1, {MAX_SCAN_ROWS}]")
    builder = mwp_x if Axis(args.axis) is Axis.X else mwp_y
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
    verification = verify_packet(packet, state, cfg)
    payload = {
        "axis": packet.axis.value,
        "n": packet.n,
        "m": packet.m,
        "kappa": packet.kappa,
        "predicted": _fields(verification.predicted),
        "measured": verification.measured,
        "verification": {"ok": verification.ok, "tol": verification.tol,
                         "deltas": verification.deltas},
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
                        help="comparison tolerance (default 1e-9)")
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
    prefixes: tuple     # the prefix characters of an option
    negative: object    # the negative-number matcher, None when such
                        # numbers are options


def _grammar(parser: argparse.ArgumentParser,
             positionals: list) -> _Grammar | None:
    """The grammar of one parser with the given positionals, or None when
    one has a nargs other than None or "?", which ``_parse`` leaves to
    argparse."""
    actions = parser._actions
    if any(a.nargs not in (None, "?") for a in positionals):
        return None
    defaults = {}
    for a in actions:
        if argparse.SUPPRESS not in (a.dest, a.default):
            defaults.setdefault(a.dest, a.default)
    for dest, value in parser._defaults.items():
        defaults.setdefault(dest, value)
    options = {s: a for a in actions for s in a.option_strings
               if type(a) is argparse._StoreTrueAction
               or (type(a) is argparse._StoreAction and a.nargs is None)}
    return _Grammar(
        parser, defaults, positionals, options,
        [a for a in actions if a.required and a.option_strings],
        [frozenset(g._group_actions)
         for g in parser._mutually_exclusive_groups],
        tuple(parser.prefix_chars),
        None if parser._has_negative_number_optionals
        else parser._negative_number_matcher)


@functools.cache
def _grammars() -> tuple:
    """The global options' grammar, the subcommand action and each
    subcommand's grammar by name, read once from ``build_parser()``."""
    top = build_parser()
    command, = [a for a in top._actions if not a.option_strings]
    return _grammar(top, []), command, {
        name: _grammar(p, [a for a in p._actions if not a.option_strings])
        for name, p in command.choices.items()}


def _is_value(g: _Grammar, token: str) -> bool:
    """Whether argparse takes the token as a value, not as an option."""
    return (not token.startswith(g.prefixes)
            or (g.negative is not None and g.negative.match(token) is not None))


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
            if i < len(argv) and _is_value(g, argv[i]):
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
            elif i + 1 < len(argv) and _is_value(g, argv[i + 1]):
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
    top, command, subs = _grammars()
    values = dict(top.defaults)
    i = _fill(top, argv, 0, values)
    if i is None or i == len(argv) or (sub := subs.get(argv[i])) is None:
        return None
    sub_values = dict(sub.defaults)
    if _fill(sub, argv, i + 1, sub_values) != len(argv):
        return None
    # argparse sets the subcommand, then copies the subparser's namespace
    values[command.dest] = argv[i]
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
        return dispatch[args.command](args, Config(args.hbar, args.tol))
    except DegenerateStateError as exc:
        print(f"error: state is not normalizable: {exc}", file=sys.stderr)
        return STATE_ERROR
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
