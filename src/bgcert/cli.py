"""Command-line surface: geometry reports, candidate enumeration,
certification, and scalar evaluation, in human or JSON form.

Exit codes: 0 certified and all plain reports, 1 conditional certification,
2 hypothesis failure, 3 malformed input or configuration (a degree with too
many candidates included), 4 internal error (a fault of the program, never a
verdict). A reader that closes the output early ends the process by SIGPIPE,
as with other Unix filters.

For geom, certify and eval, the JSON and human renderings are generated from
the same report value. All four candidate lists (enumerate's text and JSON,
certify's " (r,c2H)" pairs and JSON) are written by one writer, `_write_rows`,
from the rank iterator `certifier.candidate_ranks`, a rank's rows as one C join
of its head over their tails, and never held as a list. So the views can never
disagree. certify's Case 2 rows stream likewise, the default ones from the
closed form of `certifier.case2_default`.

The command line is parsed by `getopt` from one table of options, `_COMMANDS`.
A usage error is exit 3 with one stderr line that starts with "bgcert: error: ".
"""

from __future__ import annotations

import getopt
import signal
import sys
from itertools import chain, islice
from types import SimpleNamespace

from .certifier import (
    Verdict,
    _certify,
    candidate_ranks,
    case2_default,
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


def _resolve_geometry(args, required: bool = True) -> PolarizedCY3 | None:
    """Geometry from --preset, flags, or --config; flags beat the file, as config fields.
    None when none is given and none is required."""
    file_conf = load_geometry_config(args.config) if args.config is not None else {}
    flags = {"d": args.d, "c2h": args.c2h, "dimh": args.dimh,
             "castelnuovo_known": args.castelnuovo_known or None}
    merged = {**file_conf, **{key: value for key, value in flags.items() if value is not None}}
    if args.preset is not None and merged:
        raise ConfigError("give either --preset or a custom geometry (--d/--c2h/--config), not both")
    if args.preset is not None:
        return from_preset(args.preset)
    if not merged and required:
        raise ConfigError("no geometry given: use --preset or --d/--c2h (or --config)")
    return geometry_from_config(merged) if merged else None


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
    geom = _resolve_geometry(args)
    _emit(args, build_geom_report(geom, args.preset), render_geom)
    return EXIT_OK


# ---------------------------------------------------------------------------
# enumerate


def _write_rows(d: int, ranks, form: str | int) -> int:
    """Write the candidates of `ranks` to stdout in the format `form`, 256 rows per write
    call; return the number of rows. `form` is "text" (enumerate's lines), "pairs"
    (certify's " (r,c2H)" list) or an indent, for "[" and the rows of a json.dumps list.

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
    if form == "text":
        lead, pre, tail = "", "(", ", %d)  ch2H = %d" + half + "\n"
    elif form == "pairs":  # %.0s drops the ch2H numerator
        lead, pre, tail = "", " (", ",%d)%.0s"
    else:  # a row ends in the comma before the next one; the last row drops it
        pad = "\n" + " " * form
        lead, pre = "[", f'{pad}{{{pad}  "r": '
        tail = f',{pad}  "c2H": %d,{pad}  "ch2H": "%d{half}"{pad}}},'
    keep = min(-(-d // 3), stop - 1)
    tails = list(map(tail.__mod__, zip(range(keep, stop), nums[keep:])))
    write = sys.stdout.write
    pieces, n = [lead], 0  # the block not yet written; the rows so far
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
    n = _write_rows(geom.d, candidate_ranks(geom.d), 2 if as_json else "text")
    sys.stdout.write("\n]\n" if as_json else f"{n} candidate(s)\n")


def cmd_enumerate(args) -> int:
    geom = _resolve_geometry(args)
    render_enumerate(geom, args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify


# Where cmd_certify writes the two long lists into the rendering of a certify report.
_CASE2, _CANDIDATES = "<case2>", "<candidates>"
# A Case 2 row in text and in JSON, from its beta, chi_min, source, ch3 bound and word for
# ok, with the words and the separator between rows.
_CASE2_ROW = {
    False: ("\n  beta = {0}: chi_min = {1} ({2}), ch3 bound = {3} -> {4}", ("VIOLATED", "ok"), ""),
    True: ('\n    {{\n      "beta": {0},\n      "chi_min": {1},\n      "ch3_bound": "{3}",'
           '\n      "ok": {4},\n      "source": "{2}"\n    }}', ("false", "true"), ","),
}


def build_certify_report(geom: PolarizedCY3, preset: str | None, rows, mode) -> dict:
    """The certificate of these supplied Case 2 rows and no candidates as JSON values,
    with _CASE2 and _CANDIDATES in place of the two lists."""
    report = {"preset": preset, **certificate_to_jsonable(_certify(geom, mode, rows, ()))}
    return {**report, "case2": _CASE2, "candidates": _CANDIDATES}


def _write_case2(d: int, supplied, as_json: bool) -> None:
    """Write the Case 2 rows of degree d to stdout, 256 per write call: text lines, or the
    list of a json.dumps(indent=2) report, "[]" when there is no row (d <= 2).

    The supplied rows, by beta, are written from their records. Each run of default rows
    between them is one `%` template, its one bound formatted once, mapped over beta and
    chi_min, so no default row is made as a record.
    """
    template, words, sep = _CASE2_ROW[as_json]
    top, bound = case2_default(d)
    default = template.format("%d", "%d", "default", format_rational(bound), words[True])
    runs, beta = [], 1
    for row in [*supplied, None]:
        end = row.beta if row else (d + 1) // 2
        runs.append(map(default.__mod__, zip(range(beta, end), range(top - beta, top - end, -1))))
        if row:
            runs.append([template.format(row.beta, row.chi_min, row.source,
                                         format_rational(row.ch3_bound), words[row.ok])])
            beta = end + 1
    rows, write, lead = chain.from_iterable(runs), sys.stdout.write, "[" if as_json else ""
    while block := list(islice(rows, _BLOCK_ROWS)):
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
    geom = _resolve_geometry(args)
    bounds = [_parse_curve_bound(text) for text in args.curve_bound]
    ranks = candidate_ranks(geom.d)  # TooManyCandidates here, before any byte is written
    rows = supplied_case2_rows(geom, bounds)  # and BetaOutOfRange
    report = build_certify_report(geom, args.preset, rows, _MODES[args.mode])
    if args.json:
        import json  # here only: a text command never loads it
        rendering, quote = json.dumps(report, indent=2), '"'
    else:
        rendering, quote = render_certificate(report), ""
    head, _, rest = rendering.partition(quote + _CASE2 + quote)
    middle, _, tail = rest.partition(quote + _CANDIDATES + quote)
    write = sys.stdout.write
    write(head)
    _write_case2(geom.d, rows, args.json)
    write(middle)
    _write_rows(geom.d, ranks, 4 if args.json else "pairs")
    write(("\n  ]" if args.json else "") + tail + "\n")
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
    geom = _resolve_geometry(args, args.op != "ineq12")  # ineq12 needs none, but checks one given
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


# Every option of each command, the one place they are declared: (name, kind, metavar,
# help). A kind is "flag", "value" (the last one given counts), "values" (each one given,
# in order) or a tuple of choices, the first the default. The parser and --help read these.
_GEOMETRY_OPTIONS = (
    ("preset", "value", "NAME", "named geometry: quintic, ci24 or ci223"),
    ("d", "value", "N", "degree H^3 of a custom geometry"),
    ("c2h", "value", "N", "c2(X).H of a custom geometry"),
    ("dimh", "value", "N", "dim|H| override (must match Riemann-Roch)"),
    ("castelnuovo-known", "flag", "", "assert the curve hypothesis for a custom geometry"),
    ("config", "value", "PATH", "geometry config file (JSON or key = value lines)"),
    ("json", "flag", "", "emit JSON instead of text"),
)
# Each command: its help, its options past the geometry's, the ones it requires. It runs as
# cmd_<command>, looked up at each parse, so a wrapper put on that name (perfbench/) runs.
_COMMANDS = {
    "geom": ("report geometry invariants and hypothesis status", (), ()),
    "enumerate": ("list admissible (rank, c2.H) candidates", (), ()),
    "certify": ("run the case analysis and emit a certificate", (
        ("curve-bound", "values", "BETA:CHI", "measured curve bound, repeatable, e.g. 2:-1"),
        ("mode", tuple(_MODES), "", "hypothesis mode, default auto"),
    ), ()),
    "eval": ("evaluate a scalar on a Chern vector", (
        ("op", ("chi", "mu", "nu", "bg", "ineq12"), "", "the scalar (required)"),
        ("ch", "value", "CH0,C1,CH2H,CH3", "the Chern vector (required)"),
        ("t", "value", "T", "tilt scale, a positive rational (nu only)"),
    ), ("op", "ch")),
}


def _help(command: str | None) -> str:
    """The --help text of a command, or of bgcert when command is None."""
    if command is None:
        return "usage: bgcert COMMAND [options], where COMMAND is one of\n" + "\n".join(
            f"  {name:<11}{entry[0]}" for name, entry in _COMMANDS.items())
    rows = [(f"--{name} {'{' + ','.join(kind) + '}' if isinstance(kind, tuple) else metavar}", text)
            for name, kind, metavar, text in _GEOMETRY_OPTIONS + _COMMANDS[command][1]]
    rows.append(("-h, --help", "show this help"))
    head = f"usage: bgcert {command} [options]\n\n{_COMMANDS[command][0]}\n\noptions:\n"
    return head + "\n".join(f"  {usage.rstrip():<26} {text}" for usage, text in rows)


def build_parser(argv: list[str]) -> SimpleNamespace | str:
    """The command line by _COMMANDS: the command's function and its options as a namespace,
    or the help text asked for. A usage error raises getopt.GetoptError with one short line.
    (perfbench/ times the parse by this name.)"""
    command = argv[0] if argv else None
    if "-h" in argv or "--help" in argv:
        return _help(command if command in _COMMANDS else None)
    if command not in _COMMANDS:
        raise getopt.GetoptError(f"expected a command, got {_shown(command) if argv else 'none'}")
    _, options, required = _COMMANDS[command]
    args, kinds, longopts = SimpleNamespace(command=command, func=globals()["cmd_" + command]), {}, []
    for name, kind, _, _ in _GEOMETRY_OPTIONS + options:
        kinds[name] = kind
        longopts.append(name if kind == "flag" else name + "=")
        default = kind[0] if isinstance(kind, tuple) else {"flag": False, "values": []}.get(kind)
        setattr(args, name.replace("-", "_"), default)
    try:  # the word after a value option is its value, whatever it starts with
        opts, stray = getopt.gnu_getopt(argv[1:], "", longopts)
    except getopt.GetoptError as exc:  # "option -NAME REASON" or "option --NAME REASON"
        name = ("--" if exc.msg.startswith("option --" + exc.opt) else "-") + exc.opt
        raise getopt.GetoptError(f"option {_shown(name)} {exc.msg[len(name) + 8:]}") from None
    if stray or "--" in argv:  # bgcert takes no arguments, so nothing may follow a "--"
        raise getopt.GetoptError(f"unexpected argument {_shown([*stray, '--'][0])}")
    for opt, value in opts:
        kind, attr = kinds[opt[2:]], opt[2:].replace("-", "_")
        if isinstance(kind, tuple) and value not in kind:
            raise getopt.GetoptError(f"{opt} expects one of {', '.join(kind)}, got {_shown(value)}")
        setattr(args, attr, True if kind == "flag" else [*getattr(args, attr), value]
                if kind == "values" else value)
    if missing := [f"--{name}" for name in required if f"--{name}" not in dict(opts)]:
        raise getopt.GetoptError(f"{command} requires {' and '.join(missing)}")
    return args


def main(argv=None) -> int:
    try:
        args = build_parser(sys.argv[1:] if argv is None else list(argv))
    except getopt.GetoptError as exc:
        print(f"bgcert: error: {exc.msg}", file=sys.stderr)
        return EXIT_CONFIG
    if isinstance(args, str):
        print(args)
        return EXIT_OK
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
