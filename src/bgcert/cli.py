"""Command-line surface: geometry reports, candidate enumeration,
certification, and scalar evaluation, in human or JSON form.

Exit codes: 0 certified and all plain reports, 1 conditional certification,
2 hypothesis failure, 3 malformed input or configuration (a degree with too
many candidates included), 4 internal error (a fault of the program, never a
verdict). A reader that closes the output early ends the process by SIGPIPE,
as with other Unix filters.

For geom, certify and eval, the JSON and human renderings are generated from
the same report value; enumerate writes both, row by row, from the same row
iterator, `certifier.candidate_rows`. So the two views can never disagree.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from .certifier import (
    Verdict,
    candidate_rows,
    certificate_to_jsonable,
    certify_theorem,
    ch2H_by_c2H,
    check_ineq_1_2,
    hypothesis_checks,
)
from .chern import ChernVector, euler_characteristic
from .errors import BgcertError, ConfigError
from .geometry import (
    CurveBound,
    PolarizedCY3,
    from_preset,
    geometry_from_config,
    load_geometry_config,
)
from .rationals import format_rational, parse_rational, to_jsonable
from .stability import bg_discriminant, slope_mu, tilt_slope_nu

EXIT_OK = 0
EXIT_CONDITIONAL = 1
EXIT_HYPOTHESIS_FAIL = 2
EXIT_CONFIG = 3
EXIT_INTERNAL = 4

_VERDICT_EXIT = {
    Verdict.CERTIFIED_STRICT.value: EXIT_OK,
    Verdict.CONDITIONAL.value: EXIT_CONDITIONAL,
    Verdict.HYPOTHESIS_FAIL.value: EXIT_HYPOTHESIS_FAIL,
}

_MODES = {"auto": "auto", "full": "full_1_3", "even": "even_variant"}


# ---------------------------------------------------------------------------
# Argument plumbing.


def _add_geometry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", help="named geometry: quintic, ci24 or ci223")
    parser.add_argument("--d", type=int, help="degree H^3 of a custom geometry")
    parser.add_argument("--c2h", type=int, help="c2(X).H of a custom geometry")
    parser.add_argument("--dimh", type=int, help="dim|H| override (must match Riemann-Roch)")
    parser.add_argument(
        "--castelnuovo-known",
        action="store_true",
        help="assert the curve hypothesis for a custom geometry",
    )
    parser.add_argument("--config", help="geometry config file (JSON or key = value lines)")
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgcert",
        description="Exact-rational certification of a Bogomolov-Gieseker type "
        "inequality on polarized Calabi-Yau threefolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_geom = sub.add_parser("geom", help="report geometry invariants and hypothesis status")
    _add_geometry_args(p_geom)
    p_geom.set_defaults(func=cmd_geom)

    p_enum = sub.add_parser("enumerate", help="list admissible (rank, c2.H) candidates")
    _add_geometry_args(p_enum)
    p_enum.set_defaults(func=cmd_enumerate)

    p_cert = sub.add_parser("certify", help="run the case analysis and emit a certificate")
    _add_geometry_args(p_cert)
    p_cert.add_argument(
        "--curve-bound",
        action="append",
        default=[],
        metavar="BETA:CHI",
        help="measured curve bound, repeatable, e.g. 2:-1",
    )
    p_cert.add_argument("--mode", choices=sorted(_MODES), default="auto")
    p_cert.set_defaults(func=cmd_certify)

    p_eval = sub.add_parser("eval", help="evaluate a scalar on a Chern vector")
    _add_geometry_args(p_eval)
    p_eval.add_argument("--op", required=True, choices=["chi", "mu", "nu", "bg", "ineq12"])
    p_eval.add_argument("--ch", required=True, metavar="CH0,C1,CH2H,CH3")
    p_eval.add_argument("--t", help="tilt scale, a positive rational (nu only)")
    p_eval.set_defaults(func=cmd_eval)

    return parser


def _resolve_geometry(args) -> tuple[PolarizedCY3 | None, str | None]:
    """Geometry from --preset, flags, or --config; flags beat the file."""
    file_conf = load_geometry_config(args.config) if args.config else {}
    flags = {"d": args.d, "c2h": args.c2h, "dimh": args.dimh,
             "castelnuovo_known": args.castelnuovo_known or None}
    merged = {**file_conf, **{key: value for key, value in flags.items() if value is not None}}
    if args.preset and merged:
        raise ConfigError("give either --preset or a custom geometry (--d/--c2h/--config), not both")
    if args.preset:
        return from_preset(args.preset), args.preset
    if not merged:
        return None, None
    return geometry_from_config(merged), None


def _require_geometry(args) -> tuple[PolarizedCY3, str | None]:
    geom, preset = _resolve_geometry(args)
    if geom is None:
        raise ConfigError("no geometry given: use --preset or --d/--c2h (or --config)")
    return geom, preset


def _parse_ch(text: str) -> ChernVector:
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError(f"--ch expects ch0,c1,ch2H,ch3 (4 fields), got {text!r}")
    try:
        values = [parse_rational(part) for part in parts]
    except ValueError as exc:
        raise ConfigError(f"--ch: {exc}") from None
    ch0, c1 = values[0], values[1]
    if ch0.denominator != 1 or c1.denominator != 1:
        raise ConfigError(f"--ch: ch0 and c1 must be integers, got {parts[0]},{parts[1]}")
    return ChernVector(int(ch0), int(c1), values[2], values[3])


def _parse_curve_bound(text: str) -> CurveBound:
    beta_str, sep, chi_str = text.partition(":")
    if not sep:
        raise ConfigError(f"--curve-bound expects BETA:CHI, got {text!r}")
    try:
        beta, chi = int(beta_str), int(chi_str)
    except ValueError:
        raise ConfigError(f"--curve-bound expects integers BETA:CHI, got {text!r}") from None
    try:
        return CurveBound(beta, chi)
    except ValueError as exc:
        raise ConfigError(f"--curve-bound: {exc}") from None


def _emit(args, report, render) -> None:
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render(report))


# ---------------------------------------------------------------------------
# geom


def build_geom_report(geom: PolarizedCY3, preset: str | None) -> dict:
    full, even = hypothesis_checks(geom)
    return {
        "preset": preset,
        "d": geom.d,
        "c2XH": geom.c2XH,
        "dimH": geom.dimH,
        "chi_OH": geom.chi_OH,
        "castelnuovo_known": geom.castelnuovo_known,
        "hypothesis_full": {"threshold": format_rational(full.threshold), "holds": full.holds},
        "hypothesis_even": {
            "applicable": even.applicable,
            "threshold": format_rational(even.threshold) if even.applicable else None,
            "holds": even.holds if even.applicable else None,
        },
    }


def render_geom(report: dict) -> str:
    name = report["preset"] or "custom"
    lines = [
        f"geometry {name}: d = {report['d']}, c2(X).H = {report['c2XH']}, "
        f"dim|H| = {report['dimH']}, chi(O(H)) = {report['chi_OH']}",
        f"castelnuovo bound known: {'yes' if report['castelnuovo_known'] else 'no'}",
    ]
    full = report["hypothesis_full"]
    lines.append(
        f"hypothesis dim|H| >= 7d/6 - 3: {'pass' if full['holds'] else 'fail'} "
        f"({report['dimH']} vs {full['threshold']})"
    )
    even = report["hypothesis_even"]
    if even["applicable"]:
        lines.append(
            f"even-degree variant dim|H| >= 2d/3 - 3: {'pass' if even['holds'] else 'fail'} "
            f"({report['dimH']} vs {even['threshold']})"
        )
    else:
        lines.append("even-degree variant dim|H| >= 2d/3 - 3: n/a (odd degree)")
    return "\n".join(lines)


def cmd_geom(args) -> int:
    geom, preset = _require_geometry(args)
    _emit(args, build_geom_report(geom, preset), render_geom)
    return EXIT_OK


# ---------------------------------------------------------------------------
# enumerate


def render_enumerate(geom: PolarizedCY3, as_json: bool) -> None:
    """Write the candidates to stdout row by row, in the bytes of one text or
    json.dumps(indent=2) rendering of the whole list.

    Each ch2H string is made once per c2H and joined to the row's rank as it
    is written, so memory stays at O(d) while the output grows as d log d.
    """
    rows = candidate_rows(geom.d)  # TooManyCandidates here, before any byte is written
    labels = map(format_rational, ch2H_by_c2H(geom.d))
    write = sys.stdout.write
    if as_json:
        tails = [f',\n    "c2H": {c},\n    "ch2H": "{s}"\n  }}' for c, s in enumerate(labels)]
        sep = "\n"
        write("[")
        for r, c in rows:
            write(f'{sep}  {{\n    "r": {r}{tails[c]}')
            sep = ",\n"
        write("]\n" if sep == "\n" else "\n]\n")
    else:
        tails = [f", {c})  ch2H = {s}\n" for c, s in enumerate(labels)]
        n = 0
        for n, (r, c) in enumerate(rows, 1):
            write(f"({r}{tails[c]}")
        write(f"{n} candidate(s)\n")


def cmd_enumerate(args) -> int:
    geom, _ = _require_geometry(args)
    render_enumerate(geom, args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify


def build_certify_report(geom: PolarizedCY3, preset: str | None, curve_bounds, mode) -> dict:
    cert = certify_theorem(geom, curve_bounds, mode)
    return {"preset": preset, **certificate_to_jsonable(cert)}


def render_certificate(report: dict) -> str:
    geom = report["geometry"]
    name = report["preset"] or "custom"
    lines = [
        f"certificate for {name}: d = {geom['d']}, c2(X).H = {geom['c2XH']}, "
        f"dim|H| = {geom['dimH']}",
        f"hypothesis mode: {report['hypothesis_mode']}",
    ]
    hyp = report["hypothesis"]
    if hyp["applicable"]:
        lines.append(
            f"linear-system hypothesis: dim|H| = {hyp['dimH']} vs threshold "
            f"{hyp['threshold']} -> {'pass' if hyp['holds'] else 'fail'}"
        )
    else:
        lines.append("linear-system hypothesis: not applicable (odd degree)")
    lines.append(f"castelnuovo status: {report['castelnuovo_status']}")
    case1 = report["case1"]
    lines.append(
        f"Case 1 (points): ch3 bound holds for all lengths: "
        f"{'yes' if case1['holds_for_all_lengths'] else 'no'}; equality at lengths "
        f"{case1['equality_lengths']} with value {case1['equality_value']}"
    )
    lines.append("Case 2 (curves):")
    for row in report["case2"]:
        lines.append(
            f"  beta = {row['beta']}: chi_min = {row['chi_min']} ({row['source']}), "
            f"ch3 bound = {row['ch3_bound']} -> {'ok' if row['ok'] else 'VIOLATED'}"
        )
    case3 = report["case3"]
    status = "impossible (vacuous)" if case3["impossible"] else ("ok" if case3["ok"] else "FAIL")
    lines.append(
        f"Case 3 (higher rank): min ch2H = {case3['min_ch2H']}, ext1 cap = "
        f"{case3['ext1_cap']}, worst ch3 bound = {case3['worst_bound']} -> {status}"
    )
    pairs = " ".join(f"({c['r']},{c['c2H']})" for c in report["candidates"])
    lines.append(f"candidates (r, c2H): {pairs}")
    if report["violated_betas"]:
        lines.append(f"curve hypothesis violated at beta = {report['violated_betas']}")
    lines.append(f"verdict: {report['verdict']}")
    return "\n".join(lines)


def cmd_certify(args) -> int:
    geom, preset = _require_geometry(args)
    bounds = [_parse_curve_bound(text) for text in args.curve_bound]
    report = build_certify_report(geom, preset, bounds, _MODES[args.mode])
    _emit(args, report, render_certificate)
    return _VERDICT_EXIT[report["verdict"]]


# ---------------------------------------------------------------------------
# eval


def build_eval_report(op: str, geom: PolarizedCY3 | None, ch: ChernVector, t) -> dict:
    report: dict = {"op": op, "ch": to_jsonable(ch)}
    if op == "chi":
        report["value"] = format_rational(euler_characteristic(geom, ch))
    elif op == "mu":
        report["value"] = to_jsonable(slope_mu(geom, ch))
    elif op == "nu":
        report["t"] = format_rational(t)
        report["value"] = to_jsonable(tilt_slope_nu(geom, ch, t))
    elif op == "bg":
        value = bg_discriminant(geom, ch)
        report["value"] = format_rational(value)
        report["bg_ok"] = value >= 0
    elif op == "ineq12":
        report.update(to_jsonable(check_ineq_1_2(ch)))
    return report


def render_eval(report: dict) -> str:
    op = report["op"]
    if op == "nu":
        return f"nu(t = {report['t']}) = {report['value']}"
    if op == "bg":
        return (
            f"bg discriminant = {report['value']} "
            f"(bg_ok: {'pass' if report['bg_ok'] else 'fail'})"
        )
    if op == "ineq12":
        if report["equality"]:
            relation = "equality"
        elif report["holds"]:
            relation = "holds strictly"
        else:
            relation = "violated"
        return f"ineq12: lhs = {report['lhs']}, rhs = {report['rhs']} -> {relation}"
    return f"{op} = {report['value']}"


def cmd_eval(args) -> int:
    ch = _parse_ch(args.ch)
    if args.op == "ineq12":
        geom = _resolve_geometry(args)[0]  # optional for this op
    else:
        geom = _require_geometry(args)[0]
    t = None
    if args.op == "nu":
        if args.t is None:
            raise ConfigError("--t is required for op nu")
        try:
            t = parse_rational(args.t)
        except ValueError as exc:
            raise ConfigError(f"--t: {exc}") from None
        if t <= 0:
            raise ConfigError(f"--t must be positive, got {args.t}")
    _emit(args, build_eval_report(args.op, geom, ch, t), render_eval)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry points.


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is taken by HYPOTHESIS_FAIL.
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        return args.func(args)
    except (BgcertError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        # Any other exception is a fault of the program; exit 1 would read as CONDITIONAL.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    # Python ignores SIGPIPE; the default lets `bgcert enumerate | head` end quietly.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
