"""Command-line surface: geometry reports, candidate enumeration,
certification, and scalar evaluation, in human or JSON form.

Exit codes: 0 certified and all plain reports, 1 conditional certification,
2 hypothesis failure, 3 malformed input or configuration (a degree with too
many candidates included), 4 internal error (a fault of the program, never a
verdict). A reader that closes the output early ends the process by SIGPIPE,
as with other Unix filters.

For geom, certify and eval, the JSON and human renderings are generated from
the same report value. The candidates of enumerate and certify are written from
the same rank iterator, `certifier.candidate_ranks`, a rank's rows as one C join
of its head over their tails, and never held as a list. So the two views can
never disagree. certify's Case 2 rows stream likewise, from `certifier.case2_rows`.
"""

from __future__ import annotations

import argparse
import signal
import sys
from itertools import islice

from .certifier import (
    Verdict,
    _certify,
    candidate_ranks,
    case2_rows,
    certificate_to_jsonable,
    check_ineq_1_2,
    hypothesis_checks,
    supplied_case2_rows,
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
from .rationals import _shown, format_rational, parse_int, parse_rational, to_jsonable
from .stability import bg_discriminant, bg_ok, slope_mu, tilt_slope_nu

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

# Rows per write call of `enumerate` and of certify's two long lists. Larger
# blocks save little more time and hold more memory at once; the traced peak
# must stay below the output.
_BLOCK_ROWS = 256


# ---------------------------------------------------------------------------
# Argument plumbing.


def _add_geometry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", help="named geometry: quintic, ci24 or ci223")
    parser.add_argument("--d", help="degree H^3 of a custom geometry")
    parser.add_argument("--c2h", help="c2(X).H of a custom geometry")
    parser.add_argument("--dimh", help="dim|H| override (must match Riemann-Roch)")
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


def _resolve_geometry(args) -> PolarizedCY3 | None:
    """Geometry from --preset, flags, or --config; flags beat the file, as config fields."""
    file_conf = load_geometry_config(args.config) if args.config is not None else {}
    flags = {"d": args.d, "c2h": args.c2h, "dimh": args.dimh,
             "castelnuovo_known": args.castelnuovo_known or None}
    merged = {**file_conf, **{key: value for key, value in flags.items() if value is not None}}
    if args.preset is not None and merged:
        raise ConfigError("give either --preset or a custom geometry (--d/--c2h/--config), not both")
    if args.preset is not None:
        return from_preset(args.preset)
    if not merged:
        return None
    return geometry_from_config(merged)


def _require_geometry(args) -> PolarizedCY3:
    geom = _resolve_geometry(args)
    if geom is None:
        raise ConfigError("no geometry given: use --preset or --d/--c2h (or --config)")
    return geom


def _parse_ch(text: str) -> ChernVector:
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError(f"--ch expects ch0,c1,ch2H,ch3 (4 fields), got {_shown(text)}")
    try:
        values = [parse_rational(part) for part in parts]
    except ValueError as exc:
        raise ConfigError(f"--ch: {exc}") from None
    ch0, c1 = values[0], values[1]
    if ch0.denominator != 1 or c1.denominator != 1:
        raise ConfigError(f"--ch: ch0 and c1 must be integers, got {_shown(','.join(parts[:2]))}")
    return ChernVector(int(ch0), int(c1), values[2], values[3])


def _parse_curve_bound(text: str) -> CurveBound:
    beta_str, sep, chi_str = text.partition(":")
    if not sep:
        raise ConfigError(f"--curve-bound expects BETA:CHI, got {_shown(text)}")
    try:
        beta, chi = parse_int(beta_str), parse_int(chi_str)
    except ValueError:
        raise ConfigError(f"--curve-bound expects integers BETA:CHI, got {_shown(text)}") from None
    try:
        return CurveBound(beta, chi)
    except ValueError as exc:
        raise ConfigError(f"--curve-bound: {exc}") from None


def _emit(args, report, render) -> None:
    if args.json:
        import json  # here only: a text command never loads it
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
        "hypothesis_full": to_jsonable(full),
        "hypothesis_even": to_jsonable(even),
    }


def render_geom(report: dict) -> str:
    name = report["preset"] or "custom"
    lines = [
        f"geometry {name}: d = {report['d']}, c2(X).H = {report['c2XH']}, "
        f"dim|H| = {report['dimH']}, chi(O(H)) = {report['chi_OH']}",
        f"castelnuovo bound known: {'yes' if report['castelnuovo_known'] else 'no'}",
    ]
    for key, claim in (("hypothesis_full", "hypothesis dim|H| >= 7d/6 - 3"),
                       ("hypothesis_even", "even-degree variant dim|H| >= 2d/3 - 3")):
        check = report[key]  # the full check always applies
        result = (f"{'pass' if check['holds'] else 'fail'} ({check['dimH']} vs {check['threshold']})"
                  if check["applicable"] else "n/a (odd degree)")
        lines.append(f"{claim}: {result}")
    return "\n".join(lines)


def cmd_geom(args) -> int:
    geom = _require_geometry(args)
    _emit(args, build_geom_report(geom, args.preset), render_geom)
    return EXIT_OK


# ---------------------------------------------------------------------------
# enumerate


def _write_rows(d: int, ranks, indent: int | None) -> int:
    """Write the candidates of `ranks` to stdout as text rows, or as "[" and the rows of
    a json.dumps list at `indent`, 256 rows per write call; return the number of rows.

    A row is its rank's head and its c2H's tail, `%`-formatted from integers. Ranks 3 and
    up start at rank 3's floor ceil(d/3) or later, so the tails from there on are made
    once and kept, and a rank's rows are one C join of its head over them, cut where a
    block fills. Below the floor, ranks 1 and 2 join their head over tails made per block.
    About half the ranks have the last c2H alone: their rows are one join of the ranks
    over that tail. So the Python-level work is per rank and per block, none per row, and
    memory holds d/6 tails and one block while the output grows as d log d.
    """
    stop = (d + 1) // 2
    # ch2H = (d - 2 c2H)/2: an odd numerator over 2 for odd d, else the whole d/2 - c2H.
    nums, half = (range(d, 0, -2), "/2") if d % 2 else (range(d // 2, 0, -1), "")
    if indent is None:
        pre, tail = "(", ", %d)  ch2H = %d" + half + "\n"
    else:  # a row ends in the comma before the next one; the last row drops it
        pad = "\n" + " " * indent
        pre, tail = f'{pad}{{{pad}  "r": ', f',{pad}  "c2H": %d,{pad}  "ch2H": "%d{half}"{pad}}},'
    keep = min(-(-d // 3), stop - 1)
    tails = list(map(tail.__mod__, zip(range(keep, stop), nums[keep:])))
    write = sys.stdout.write
    pieces, n = ["["] if indent is not None else [], 0  # the block not yet written; the rows so far
    for r, lo in ranks:
        if lo == stop - 1:
            break
        head = pre + str(r)
        while lo < stop:
            j = min(stop, lo + _BLOCK_ROWS - n % _BLOCK_ROWS, keep if lo < keep else stop)
            if lo < keep:
                pieces.append(head + head.join(map(tail.__mod__, zip(range(lo, j), nums[lo:j]))))
            else:
                pieces.append(head + head.join(tails[lo - keep:j - keep]))
            n += j - lo
            lo = j
            if not n % _BLOCK_ROWS:
                write("".join(pieces))
                pieces = []
    # Every rank from r to the last, d // (d - 2 c2H), has the one row (rank, c2H = stop - 1).
    last, r_max = tails[-1], d // (d - 2 * (stop - 1))
    while r <= r_max:
        j = min(r_max + 1, r + _BLOCK_ROWS - n % _BLOCK_ROWS)
        end = last if j <= r_max else last.rstrip(",")
        pieces.append(pre + (last + pre).join(map(str, range(r, j))) + end)
        n += j - r
        r = j
        if not n % _BLOCK_ROWS:
            write("".join(pieces))
            pieces = []
    if pieces:
        write("".join(pieces))
    return n


def render_enumerate(geom: PolarizedCY3, as_json: bool) -> None:
    """Write the candidates to stdout as one text or json.dumps(indent=2) rendering."""
    n = _write_rows(geom.d, candidate_ranks(geom.d), 2 if as_json else None)
    sys.stdout.write("\n]\n" if as_json else f"{n} candidate(s)\n")


def cmd_enumerate(args) -> int:
    geom = _require_geometry(args)
    render_enumerate(geom, args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify


# Where cmd_certify writes the two long lists into the rendering of a certify report.
_CASE2, _CANDIDATES = "<case2>", "<candidates>"
# A Case 2 row in text and in JSON, from its record, ch3 bound and word for ok, with
# the words and the separator between rows.
_CASE2_ROW = {
    False: ("\n  beta = {0.beta}: chi_min = {0.chi_min} ({0.source}), ch3 bound = {1} -> {2}",
            ("VIOLATED", "ok"), ""),
    True: ('\n    {{\n      "beta": {0.beta},\n      "chi_min": {0.chi_min},\n      "ch3_bound": '
           '"{1}",\n      "ok": {2},\n      "source": "{0.source}"\n    }}', ("false", "true"), ","),
}


def build_certify_report(geom: PolarizedCY3, preset: str | None, curve_bounds, mode) -> dict:
    """The certificate of the supplied Case 2 rows alone and no candidates as JSON values,
    with _CASE2 and _CANDIDATES in place of the two lists."""
    rows = supplied_case2_rows(geom, curve_bounds)
    report = {"preset": preset, **certificate_to_jsonable(_certify(geom, mode, rows, ()))}
    return {**report, "case2": _CASE2, "candidates": _CANDIDATES}


def _write_case2(rows, as_json: bool) -> None:
    """Write the Case 2 rows of an iterator to stdout, 256 per write call: text lines, or
    the list of a json.dumps(indent=2) report, "[]" when there is no row (d <= 2)."""
    template, words, sep = _CASE2_ROW[as_json]
    write, lead = sys.stdout.write, "[" if as_json else ""
    while block := [template.format(row, format_rational(row.ch3_bound), words[row.ok])
                    for row in islice(rows, _BLOCK_ROWS)]:
        write(lead + sep.join(block))
        lead = sep
    if as_json:
        write("\n  ]" if lead == sep else "[]")


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
    lines.append(f"Case 2 (curves):{report['case2']}")
    case3 = report["case3"]
    status = "impossible (vacuous)" if case3["impossible"] else ("ok" if case3["ok"] else "FAIL")
    lines.append(
        f"Case 3 (higher rank): min ch2H = {case3['min_ch2H']}, ext1 cap = "
        f"{case3['ext1_cap']}, worst ch3 bound = {case3['worst_bound']} -> {status}"
    )
    lines.append(f"candidates (r, c2H):{report['candidates']}")
    if report["violated_betas"]:
        lines.append(f"curve hypothesis violated at beta = {report['violated_betas']}")
    lines.append(f"verdict: {report['verdict']}")
    return "\n".join(lines)


def cmd_certify(args) -> int:
    geom = _require_geometry(args)
    bounds = [_parse_curve_bound(text) for text in args.curve_bound]
    ranks = candidate_ranks(geom.d)  # TooManyCandidates here, before any byte is written
    report = build_certify_report(geom, args.preset, bounds, _MODES[args.mode])  # and BetaOutOfRange
    if args.json:
        import json  # here only: a text command never loads it
        rendering, quote = json.dumps(report, indent=2), '"'
    else:
        rendering, quote = render_certificate(report), ""
    head, _, rest = rendering.partition(quote + _CASE2 + quote)
    middle, _, tail = rest.partition(quote + _CANDIDATES + quote)
    write = sys.stdout.write
    write(head)
    _write_case2(case2_rows(geom, bounds), args.json)
    write(middle)
    if args.json:
        _write_rows(geom.d, ranks, 4)
        write("\n  ]")
    else:  # " (r,c2H)" per candidate, one join per rank
        pairs = list(map(",%d)".__mod__, range((geom.d + 1) // 2)))
        for r, lo in ranks:
            write(f" ({r}" + f" ({r}".join(pairs[lo:]))
    write(tail + "\n")
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
        report["value"] = format_rational(bg_discriminant(geom, ch))
        report["bg_ok"] = bg_ok(geom, ch)
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
        _resolve_geometry(args)  # optional for this op, but checked when given
        geom = None
    else:
        geom = _require_geometry(args)
    t = None
    if args.t is not None:  # checked whenever given, used by nu alone
        try:
            t = parse_rational(args.t)
        except ValueError as exc:
            raise ConfigError(f"--t: {exc}") from None
    elif args.op == "nu":
        raise ConfigError("--t is required for op nu")
    _emit(args, build_eval_report(args.op, geom, ch, t), render_eval)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry points.


# Options whose value may start with "-". argparse takes "-1,1,0,0" or "-1/2"
# for an option name, since it is not a plain negative number, so such a value
# is joined to its option as "--ch=-1,1,0,0" before parsing.
_SIGNED_VALUE_OPTIONS = ("--ch", "--t")


def _join_signed_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _SIGNED_VALUE_OPTIONS and token[:1] == "-" and token[1:2].isdigit():
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_signed_values(sys.argv[1:] if argv is None else list(argv)))
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
