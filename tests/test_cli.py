import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import resource
except ImportError:  # not on every platform
    resource = None

from _oracles import naive_candidates
import bgcert
from bgcert import certifier
from bgcert.cli import (
    build_certify_report,
    build_eval_report,
    build_geom_report,
    main,
)
from bgcert.chern import ChernVector
from bgcert.geometry import from_preset
from bgcert.rationals import to_jsonable


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# For the tests that need a whole `python -m bgcert` process.
_CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(bgcert.__file__).resolve().parents[1])}


# --- geom ------------------------------------------------------------------------

def test_geom_quintic_human(capsys):
    code, out, err = run(capsys, "geom", "--preset", "quintic")
    assert code == 0 and not err
    assert "d = 5" in out and "c2(X).H = 50" in out and "dim|H| = 4" in out
    assert "chi(O(H)) = 5" in out
    assert "7d/6 - 3: pass" in out
    assert "n/a (odd degree)" in out


def test_geom_ci24_human(capsys):
    code, out, _ = run(capsys, "geom", "--preset", "ci24")
    assert code == 0
    assert "7d/6 - 3: fail" in out
    assert "2d/3 - 3: pass" in out


def test_geom_json_round_trip(capsys):
    code, out, _ = run(capsys, "geom", "--preset", "quintic", "--json")
    assert code == 0
    assert json.loads(out) == build_geom_report(from_preset("quintic"), "quintic")


def test_geom_non_integral_custom(capsys):
    code, out, err = run(capsys, "geom", "--d", "5", "--c2h", "49")
    assert code == 3
    assert "NonIntegralGeometry" in err


def test_geom_custom_valid(capsys):
    code, out, _ = run(capsys, "geom", "--d", "5", "--c2h", "50", "--castelnuovo-known")
    assert code == 0
    assert "geometry custom" in out
    assert "castelnuovo bound known: yes" in out


def test_geom_requires_a_geometry(capsys):
    code, _, err = run(capsys, "geom")
    assert code == 3
    assert "no geometry" in err


def test_preset_and_custom_conflict(capsys):
    code, _, err = run(capsys, "geom", "--preset", "quintic", "--d", "5")
    assert code == 3
    assert "not both" in err


def test_unknown_preset(capsys):
    code, _, err = run(capsys, "geom", "--preset", "sextic")
    assert code == 3
    assert "UnknownPreset" in err


# --- enumerate --------------------------------------------------------------------

def test_enumerate_quintic(capsys):
    code, out, _ = run(capsys, "enumerate", "--preset", "quintic")
    assert code == 0
    assert out.splitlines()[-1] == "7 candidate(s)"
    assert out.splitlines()[0] == "(1, 0)  ch2H = 5/2"


def test_enumerate_quintic_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--preset", "quintic", "--json")
    assert code == 0
    data = json.loads(out)
    assert isinstance(data, list)
    assert [(c["r"], c["c2H"]) for c in data] == [
        (1, 0), (1, 1), (1, 2), (2, 2), (3, 2), (4, 2), (5, 2),
    ]
    assert data == to_jsonable(certifier.enumerate_candidates(from_preset("quintic")))


def test_enumerate_small_custom_geometry(capsys):
    # valid (d, c2h) pair found by the integrality scan: chi(O(H)) = 2
    code, out, _ = run(capsys, "enumerate", "--d", "2", "--c2h", "20", "--json")
    assert code == 0
    assert [(c["r"], c["c2H"]) for c in json.loads(out)] == [(1, 0)]


def _half_minus(d, c):
    # d/2 - c as the CLI prints it, worked out in integers.
    twice = d - 2 * c
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


# d = 1..60 holds the edge shapes (one candidate, one rank, both parities);
# c2h = 12 (d // 6 + 1) - 2d makes chi(O(H)) = d // 6 + 1 an integer.
# d = 2001 is odd, so every ch2H is a half-integer; chi(O(H)) = 334 for both.
@pytest.mark.parametrize(
    "d,c2h", [(d, 12 * (d // 6 + 1) - 2 * d) for d in range(1, 61)] + [(2001, 6), (2000, 8)]
)
def test_enumerate_large_degree_matches_naive_scan(capsys, d, c2h):
    pairs = naive_candidates(d)
    rows = [{"r": r, "c2H": c, "ch2H": _half_minus(d, c)} for r, c in pairs]

    code, out, err = run(capsys, "enumerate", "--d", str(d), "--c2h", str(c2h))
    assert (code, err) == (0, "")
    lines = [f"({r}, {c})  ch2H = {_half_minus(d, c)}" for r, c in pairs]
    assert out == "\n".join(lines) + f"\n{len(pairs)} candidate(s)\n"

    code, out, err = run(capsys, "enumerate", "--d", str(d), "--c2h", str(c2h), "--json")
    assert (code, err) == (0, "")
    assert out == json.dumps(rows, indent=2) + "\n"


class _CountingSink:
    """A stdout that keeps nothing: it counts the characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
def test_enumerate_memory_stays_below_its_output(flags):
    # Rows are written as they are made: the traced peak must stay below the output
    # (about 0.6x in text and 0.3x in JSON; a whole report held at once was about 17x).
    argv = ["enumerate", "--d", "2001", "--c2h", "6", *flags]
    with contextlib.redirect_stdout(_CountingSink()):
        assert main(argv) == 0  # one-time costs (imports, parser caches) before tracing
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars > 190_000
    assert peak < sink.chars


def _run_capped(*argv):
    """`python -m bgcert ARGV` in a child whose address space is capped at 1 GiB."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "bgcert", *argv],
        capture_output=True,
        env=_CHILD_ENV,
        preexec_fn=cap,
        timeout=60,
    )


# d = 10**12 + 2 is divisible by 6, so c2h = 12 gives chi(O(H)) = d/6 + 1.
@pytest.mark.skipif(resource is None, reason="needs resource.setrlimit")
@pytest.mark.parametrize("command", ["enumerate", "certify"])
@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
def test_too_many_candidates_is_exit_3_before_any_output(command, flags):
    proc = _run_capped(command, "--d", str(10**12 + 2), "--c2h", "12", *flags)
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert proc.stderr == (
        b"error: TooManyCandidates: d = 1000000000002 has more than 200000 candidates\n"
    )


# --- certify -----------------------------------------------------------------------

def test_certify_quintic(capsys):
    code, out, _ = run(capsys, "certify", "--preset", "quintic")
    assert code == 0
    assert "verdict: CERTIFIED_STRICT" in out
    assert "Case 1" in out and "Case 2" in out and "Case 3" in out


def test_certify_ci24_even(capsys):
    code, out, _ = run(capsys, "certify", "--preset", "ci24", "--mode", "even")
    assert code == 1
    assert "verdict: CONDITIONAL" in out


def test_certify_ci24_full(capsys):
    code, out, _ = run(capsys, "certify", "--preset", "ci24", "--mode", "full")
    assert code == 2
    assert "verdict: HYPOTHESIS_FAIL" in out


def test_certify_quintic_violating_curve_bound(capsys):
    code, out, _ = run(capsys, "certify", "--preset", "quintic", "--curve-bound", "2:-2")
    assert code == 2
    assert "VIOLATED" in out
    assert "violated at beta = [2]" in out


def test_certify_json_round_trip(capsys):
    code, out, _ = run(capsys, "certify", "--preset", "quintic", "--json")
    assert code == 0
    assert json.loads(out) == build_certify_report(from_preset("quintic"), "quintic", [], "auto")


def test_certify_bad_curve_bound_syntax(capsys):
    code, _, err = run(capsys, "certify", "--preset", "quintic", "--curve-bound", "2")
    assert code == 3
    assert "BETA:CHI" in err


def test_certify_out_of_range_curve_bound(capsys):
    code, _, err = run(capsys, "certify", "--preset", "quintic", "--curve-bound", "9:0")
    assert code == 3
    assert err == "error: BetaOutOfRange: beta = 9 outside 1 <= beta < d/2 = 5/2\n"


# --- eval --------------------------------------------------------------------------

def test_eval_chi(capsys):
    code, out, _ = run(capsys, "eval", "--op", "chi", "--preset", "quintic", "--ch", "1,1,5/2,5/6")
    assert code == 0
    assert out.strip() == "chi = 5"


def test_eval_mu(capsys):
    code, out, _ = run(capsys, "eval", "--op", "mu", "--preset", "quintic", "--ch", "2,1,0,0")
    assert code == 0
    assert out.strip() == "mu = 5/2"
    code, out, _ = run(capsys, "eval", "--op", "mu", "--preset", "quintic", "--ch", "0,0,1,0")
    assert out.strip() == "mu = +inf"


def test_eval_nu(capsys):
    code, out, _ = run(
        capsys, "eval", "--op", "nu", "--preset", "quintic", "--ch", "1,1,5/2,5/6", "--t", "1"
    )
    assert code == 0
    assert out.strip() == "nu(t = 1) = 1/3"


def test_eval_bg(capsys):
    code, out, _ = run(capsys, "eval", "--op", "bg", "--preset", "quintic", "--ch", "3,1,1/2,0")
    assert code == 0
    assert out.strip() == "bg discriminant = 2 (bg_ok: pass)"
    # O(H) sits on the Bogomolov-Gieseker boundary, which passes
    code, out, _ = run(capsys, "eval", "--op", "bg", "--preset", "quintic", "--ch", "1,1,5/2,5/6")
    assert code == 0
    assert out == "bg discriminant = 0 (bg_ok: pass)\n"


def test_eval_ineq12_no_geometry_needed(capsys):
    code, out, _ = run(capsys, "eval", "--op", "ineq12", "--ch", "1,1,5/2,5/6")
    assert code == 0
    assert "equality" in out


def test_eval_json(capsys):
    code, out, _ = run(
        capsys, "eval", "--op", "nu", "--preset", "quintic", "--ch", "1,1,5/2,5/6", "--t", "1", "--json"
    )
    assert code == 0
    report = build_eval_report(
        "nu",
        from_preset("quintic"),
        ChernVector(1, 1, Fraction(5, 2), Fraction(5, 6)),
        Fraction(1),
    )
    assert json.loads(out) == report


def test_eval_malformed_rational(capsys):
    code, _, err = run(capsys, "eval", "--op", "chi", "--preset", "quintic", "--ch", "1,1,2.5,0")
    assert code == 3
    assert "malformed rational" in err


def test_eval_wrong_arity(capsys):
    code, _, err = run(capsys, "eval", "--op", "chi", "--preset", "quintic", "--ch", "1,1,1")
    assert code == 3


def test_eval_nu_requires_t(capsys):
    code, _, err = run(capsys, "eval", "--op", "nu", "--preset", "quintic", "--ch", "1,1,5/2,5/6")
    assert code == 3
    assert "--t" in err
    code, _, err = run(
        capsys, "eval", "--op", "nu", "--preset", "quintic", "--ch", "1,1,5/2,5/6", "--t", "0"
    )
    assert code == 3


@pytest.mark.parametrize("t", [["--t", "0"], ["--t=-1/2"], ["--t", "-1/2"]])
def test_eval_nu_t_must_be_positive(capsys, t):
    code, out, err = run(capsys, "eval", "--op", "nu", "--preset", "quintic", "--ch", "1,1,5/2,5/6", *t)
    assert code == 3 and out == ""
    assert "t must be positive" in err


def test_eval_ch_takes_a_negative_value_after_a_space(capsys):
    # "-1,1,0,0" is not a plain negative number, so argparse alone reads it as an option name.
    spaced = run(capsys, "eval", "--op", "bg", "--preset", "quintic", "--ch", "-1,1,0,0")
    joined = run(capsys, "eval", "--op", "bg", "--preset", "quintic", "--ch=-1,1,0,0")
    assert spaced == joined == (0, "bg discriminant = 5 (bg_ok: pass)\n", "")


def test_eval_zero_rank_ineq(capsys):
    code, _, err = run(capsys, "eval", "--op", "ineq12", "--ch", "0,1,1,1")
    assert code == 3
    assert "ZeroRank" in err


# --- config files ----------------------------------------------------------------------

def test_config_file_json(capsys, tmp_path):
    path = tmp_path / "geom.json"
    path.write_text('{"d": 5, "c2h": 50, "castelnuovo_known": true}')
    code, out, _ = run(capsys, "certify", "--config", str(path))
    assert code == 0
    assert "verdict: CERTIFIED_STRICT" in out


def test_config_file_flags_win(capsys, tmp_path):
    path = tmp_path / "geom.cfg"
    path.write_text("d = 5\nc2h = 49\n")
    code, out, _ = run(capsys, "geom", "--config", str(path), "--c2h", "50")
    assert code == 0
    assert "d = 5" in out


def test_config_file_missing(capsys, tmp_path):
    code, _, err = run(capsys, "geom", "--config", str(tmp_path / "nope.json"))
    assert code == 3


def test_config_file_nested_too_deeply(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    proc = subprocess.run(
        [sys.executable, "-m", "bgcert", "geom", "--config", str(path)],
        capture_output=True,
        env=_CHILD_ENV,
        timeout=120,
    )
    assert proc.returncode == 3
    assert b"Traceback" not in proc.stderr
    assert str(path).encode() in proc.stderr


def test_import_loads_no_code_generating_modules():
    # dataclasses brings in inspect, ast, dis and tokenize, about 30 ms of every process;
    # pathlib brings in urllib.parse and ipaddress. Without `site` nothing imports them first.
    probe = ("import sys, bgcert.cli; print(sorted(set(sys.modules) & "
             "{'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'pathlib'}))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, env=_CHILD_ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("argv, config, code, line", [
    (["certify", "--preset", "quintic", "--mode", "even"], None, 2,
     "linear-system hypothesis: not applicable (odd degree)"),
    (["eval", "--op", "chi", "--ch", "1/2,1,0,0"], None, 3,
     "--ch: ch0 and c1 must be integers, got 1/2,1"),
    (["certify", "--preset", "quintic", "--curve-bound", "0:1"], None, 3,
     "--curve-bound: beta must be >= 1, got 0"),
    (["eval", "--op", "nu", "--preset", "quintic", "--ch", "1,1,5/2,5/6", "--t", "1/0"], None, 3,
     "--t: malformed rational '1/0': denominator is zero"),
    (["geom"], "[1]", 3, "expected a JSON object"),
    (["geom"], "null", 3, "expected a JSON object"),
    (["geom"], '{"d": [5], "c2h": 50}', 3, "field d: expected an integer, got [5]"),
    (["certify", "--preset", "quintic", "--curve-bound", "1:-1_0"], None, 3,
     "--curve-bound expects integers BETA:CHI, got '1:-1_0'"),
    (["geom"], "d = 5_0\nc2h = 50\n", 3, "field d: expected an integer, got '5_0'"),
    (["geom"], '{"d": 5, "c2h": "\\u0665\\u0660"}', 3,
     "field c2h: expected an integer, got '\u0665\u0660'"),
    (["geom"], "d = 5\nc2h = 50\nd = 8\n", 3, "ConfigError: field d: given more than once"),
    (["geom"], '{"d": 5, "c2h": 50, "d": 8}', 3, "ConfigError: field d: given more than once"),
    (["geom", "--d", "5", "--c2h", "50", "--dimh", "5"], None, 3,
     "InconsistentGeometry: field dimh = 5 contradicts d/6 + c2h/12 - 1 = 4"),
    (["geom"], '{"d": 5, "c2h": 50, "dimh": 3}', 3,
     "InconsistentGeometry: field dimh = 3 contradicts d/6 + c2h/12 - 1 = 4"),
    (["geom"], '{"d": 5, "c2h": 50, "dimh": null}', 0,
     "geometry custom: d = 5, c2(X).H = 50, dim|H| = 4, chi(O(H)) = 5"),
], ids=["odd-d-even-mode", "fractional-rank", "curve-bound-beta-0", "t-over-zero",
        "config-list", "config-null", "config-d-list", "curve-bound-underscore",
        "config-line-underscore", "config-json-arabic-indic", "config-line-duplicate",
        "config-json-duplicate", "dimh-flag-contradicts", "config-dimh-contradicts",
        "config-dimh-null"])
def test_input_branches_end_in_their_line(capsys, tmp_path, argv, config, code, line):
    if config is not None:
        path = tmp_path / "geom.cfg"
        path.write_text(config)
        argv = [*argv, "--config", str(path)]
    got, out, err = run(capsys, *argv)
    assert got == code
    if code == 3:
        assert out == "" and err.count("\n") == 1 and line in err, err
    else:
        assert line in out.splitlines() and err == ""


@pytest.mark.parametrize("flag, value", [("--d", "5_0"), ("--d", "\u0665"), ("--d", "+5"),
                                         ("--c2h", "5_0"), ("--dimh", "4_")])
def test_integer_flags_follow_the_rational_grammar(capsys, flag, value):
    flags = {"--d": "5", "--c2h": "50", flag: value}
    code, out, err = run(capsys, "certify", *(item for pair in flags.items() for item in pair))
    assert code == 3 and out == ""
    assert err.splitlines()[-1].endswith(f"argument {flag}: invalid parse_int value: {value!r}")


def test_config_file_not_utf8_is_exit_3(capsys, tmp_path):
    path = tmp_path / "geom.cfg"
    path.write_bytes("d = 5\nc2h = 50  # caf\u00e9\n".encode("latin-1"))
    code, out, err = run(capsys, "geom", "--config", str(path))
    assert code == 3 and out == ""
    assert err.startswith("error: UnicodeDecodeError: 'utf-8' codec") and err.count("\n") == 1


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_enumerate_into_closed_pipe_ends_quietly():
    # d = 2000 prints about 146 kB, more than a pipe holds, so the child is
    # still writing when the reader goes away.
    proc = subprocess.Popen(
        [sys.executable, "-m", "bgcert", "enumerate", "--d", "2000", "--c2h", "8"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_CHILD_ENV,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    code = proc.wait(timeout=120)
    assert first == b"(1, 0)  ch2H = 1000\n"
    assert err == b""
    assert code == -signal.SIGPIPE


# --- argparse interplay -------------------------------------------------------------------

def test_internal_fault_is_exit_4_not_a_verdict(capsys, monkeypatch):
    # A broken cross-check inside certify_theorem must not read as exit 1 (CONDITIONAL).
    trace = certifier._case3_trace

    def broken_trace(geom):  # the real trace, with ok=False
        t = trace(geom)
        return certifier.Case3Trace(t.min_ch2H, t.ch0F, t.ext1_cap, t.worst_bound, t.impossible, ok=False)

    monkeypatch.setattr(certifier, "_case3_trace", broken_trace)
    code, out, err = run(capsys, "certify", "--preset", "quintic")
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: RuntimeError: ")
    assert "Traceback" not in err


def test_unknown_subcommand_maps_to_config_exit(capsys):
    assert main(["frobnicate"]) == 3


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_version_like_usage_error(capsys):
    assert main([]) == 3


# --- fuzz ------------------------------------------------------------------------

def _valid_custom(d, dimh, known):
    return ["--d", str(d), "--c2h", str(12 * (dimh + 1) - 2 * d)] + ["--castelnuovo-known"] * known


def _weighted(valid, invalid):
    """Three draws in four from `valid`."""
    return st.integers(0, 3).flatmap(lambda k: invalid if k == 3 else valid)


_INTS = st.integers(-3, 70).map(str)
_SMALL = st.integers(-9, 9).map(str)
_POSITIVE = st.integers(1, 9)
_FRACTIONS = st.builds("{}/{}".format, st.integers(-9, 9), _POSITIVE) | _SMALL
_RATIONALS = _weighted(_FRACTIONS, st.sampled_from(["", "x", "1.5", "1/0", "1/-2", "+3", "9" * 40]))
# Mostly small degrees, whose every command runs to a verdict; one draw in ten
# is at least 400,000, where every degree is over the candidate limit.
_DEGREES = st.integers(0, 9).flatmap(
    lambda k: st.integers(4 * 10**5, 10**12) if k == 0 else st.integers(1, 60)
)
_CUSTOM = _DEGREES.flatmap(
    lambda d: st.builds(_valid_custom, st.just(d), st.integers(0, d // 6 + 4), st.booleans())
)
_GEOMETRY = _weighted(
    _CUSTOM | st.sampled_from(["quintic", "ci24", "ci223"]).map(lambda p: ["--preset", p]),
    st.lists(st.sampled_from(["--d", "--c2h", "--dimh", "--preset"]), max_size=3).flatmap(
        lambda flags: st.tuples(*(st.tuples(st.just(f), _INTS) for f in flags))
    ).map(lambda pairs: [x for pair in pairs for x in pair]),
)
_CURVE_BOUND = _weighted(
    st.builds("{}:{}".format, st.integers(1, 6), st.integers(-20, 3)),
    st.builds("{}:{}".format, st.integers(-1, 40), st.integers(-30, 5))
    | st.sampled_from(["2", "a:b", ":", "1:1:1"]),
)
_EXTRAS = {
    "geom": st.just([]),
    "enumerate": st.just([]),
    "certify": st.tuples(
        st.lists(_CURVE_BOUND, max_size=2),
        st.sampled_from([[], *(["--mode", m] for m in ("auto", "full", "even", "x"))]),
    ).map(lambda t: [f"--curve-bound={cb}" for cb in t[0]] + t[1]),
    "eval": st.tuples(
        st.sampled_from(["chi", "mu", "nu", "bg", "ineq12"]),
        _weighted(
            st.tuples(_SMALL, _SMALL, _FRACTIONS, _FRACTIONS).map(",".join),
            st.lists(_RATIONALS, max_size=5).map(",".join),
        ),
        _weighted(st.builds("{}/{}".format, _POSITIVE, _POSITIVE), st.none() | _RATIONALS),
        st.booleans(),  # a value after "=" or as the next word
    ).map(lambda t: ["--op", t[0], *_option("--ch", t[1], t[3])]
          + ([] if t[2] is None else _option("--t", t[2], t[3]))),
}


def _option(name, value, spaced):
    return [name, value] if spaced else [f"{name}={value}"]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_EXTRAS)))
    argv = [command, *draw(_GEOMETRY), *draw(_EXTRAS[command])]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(deadline=None)  # the first example pays for imports and parser set-up
@given(_argv())
def test_cli_fuzz_ends_in_a_verdict_or_exit_3(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    if code == 3:
        assert out.getvalue() == "" and err.getvalue() != ""
    elif "--json" in argv:
        json.loads(out.getvalue())
