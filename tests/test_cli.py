import contextlib
import getopt
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
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

import _oracles
from _oracles import held_certify_outputs, naive_candidates, row_by_row_render_enumerate
import bgcert
from bgcert import certifier
from bgcert.cli import (
    _MODES,
    build_certify_report,
    build_eval_report,
    build_geom_report,
    build_parser,
    main,
    render_enumerate,
)
from bgcert.chern import ChernVector
from bgcert.geometry import CONFIG_MAX_BYTES, PRESETS, CurveBound, PolarizedCY3, from_preset
from bgcert.rationals import _shown, to_jsonable


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


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_geom_json_states_its_hypotheses_through_the_records(capsys, preset):
    # The same serialization as a certificate's `hypothesis`, an inapplicable check included.
    code, out, _ = run(capsys, "geom", "--preset", preset, "--json")
    full, even = certifier.hypothesis_checks(from_preset(preset))
    report = json.loads(out)
    assert code == 0
    assert report["hypothesis_full"] == to_jsonable(full)
    assert report["hypothesis_even"] == to_jsonable(even)


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
    """A stdout that keeps nothing: it counts the characters written to it and the write calls."""

    def __init__(self):
        self.chars = 0
        self.writes = 0

    def write(self, text):
        self.chars += len(text)
        self.writes += 1
        return len(text)

    def flush(self):
        pass


def _traced(call):
    """(traced peak, characters written) of call(), run once untraced first so that
    one-time costs (imports, parser caches) stay out of the peak."""
    with contextlib.redirect_stdout(_CountingSink()):
        call()
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sink.chars


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
def test_enumerate_memory_stays_below_its_output(flags):
    # Rows are written in blocks of 256 as they are made: the traced peak must stay
    # below the output (about 0.5x in text and 0.25x in JSON; blocks of 512 rows
    # were above it in text; a whole report held at once was about 17x).
    argv = ["enumerate", "--d", "2001", "--c2h", "6", *flags]
    peak, chars = _traced(lambda: main(argv))
    assert chars > 190_000
    assert peak < chars


def test_enumerate_keeps_only_the_tails_that_ranks_3_and_up_share():
    # The tails below rank 3's floor ceil(d/3) serve ranks 1 and 2 alone, and are made per
    # block: the traced peak is about 380 kB, against 550 kB with the tails kept from d/4
    # and 1,073 kB with every tail kept. With none kept it is 47 kB, and the rows take
    # about 3 times as long to write.
    peak, chars = _traced(lambda: render_enumerate(PolarizedCY3.derive(20001, 6), True))
    assert chars == 6_369_021
    assert 250_000 < peak < 470_000


def test_certify_memory_stays_below_its_output():
    # The Case 2 rows and the candidates are written in blocks into one rendering of the
    # rest: the traced peak is about 0.47x the output in text and 0.05x in JSON. With the
    # Case 2 rows held it was 2.7x and 0.5x; with the certificate held whole, about 14x.
    for flags, size in (((), 1_800_000), (("--json",), 8_000_000)):
        peak, chars = _traced(lambda: main(["certify", "--d", "20001", "--c2h", "6", *flags]))
        assert chars > size
        assert peak < chars, flags


def _rendered(render, d, as_json):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        render(PolarizedCY3(d, 12 - 2 * d, 0), as_json)
    return out.getvalue()


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_enumerate_blocks_match_the_row_by_row_writer(as_json):
    # Both parities, one-row ranks, and d = 1 and 2 with a single candidate.
    for d in range(1, 301):
        assert _rendered(render_enumerate, d, as_json) == _rendered(
            row_by_row_render_enumerate, d, as_json
        ), d


# 298: exactly 3 blocks of 256 rows; 311: one row past 4 blocks. The ranks with one row
# each start on a block edge at 295 and 1031 (and span three blocks at 1031), with one
# row left in their first block at 410, and mid-block, ending on an edge, at 1165.
@pytest.mark.parametrize("d,count", [(298, 768), (311, 1025), (2000, 7069), (2001, 8457),
                                     (295, 965), (410, 1126), (1031, 4016), (1165, 4608)])
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_enumerate_blocks_match_the_row_by_row_writer_at_block_edges(d, count, as_json):
    assert certifier.candidate_count(d) == count
    out = _rendered(render_enumerate, d, as_json)
    assert out == _rendered(row_by_row_render_enumerate, d, as_json)
    if as_json:
        assert len(json.loads(out)) == count
    else:
        assert out.endswith(f"\n{count} candidate(s)\n")


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_enumerate_writes_a_block_per_call(as_json):
    # 107,517 rows at d = 20001: one write per 256 rows, plus the closing line.
    sink = _CountingSink()
    with contextlib.redirect_stdout(sink):
        render_enumerate(PolarizedCY3.derive(20001, 6), as_json)
    assert certifier.candidate_count(20001) == 107_517
    assert sink.writes == -(-107_517 // 256) + 1


def test_certify_writes_its_candidates_a_block_per_call():
    # The same writer as enumerate's: the 107,517 pairs and the 10,000 Case 2 rows at
    # d = 20001 one write per 256 rows, plus the rendering before, between and after them.
    sink = _CountingSink()
    with contextlib.redirect_stdout(sink):
        main(["certify", "--d", "20001", "--c2h", "6"])
    assert sink.writes == -(-107_517 // 256) + -(-10_000 // 256) + 3


class _BlockSink:
    """A stdout that keeps the text of each write call apart."""

    def __init__(self):
        self.blocks = []

    def write(self, text):
        self.blocks.append(text)
        return len(text)

    def flush(self):
        pass


# 298 ends on a block edge; at 2000, 2001 and 15000 the one-row ranks start mid-block.
@pytest.mark.parametrize("d", [298, 2000, 2001, 15000])
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_enumerate_writes_256_rows_per_call_but_the_last_block(d, as_json):
    sink = _BlockSink()
    with contextlib.redirect_stdout(sink):
        render_enumerate(PolarizedCY3(d, 12 - 2 * d, 0), as_json)
    count = certifier.candidate_count(d)
    *blocks, last_block, footer = sink.blocks
    row = '"r": ' if as_json else "("  # once in every row
    assert [block.count(row) for block in blocks] == [256] * len(blocks)
    assert 0 < last_block.count(row) <= 256
    assert 256 * len(blocks) + last_block.count(row) == count
    assert footer == ("\n]\n" if as_json else f"{count} candidate(s)\n")


@pytest.mark.parametrize(
    "d,c2h,flags,size,digest",
    [
        ("20001", "6", (), 2_713_460,
         "27cdf7b9e3963cc8adb5e52799b01405489dd1b6e44b6f207fb19c461ca9a4c8"),
        ("20001", "6", ("--json",), 6_369_021,
         "4d390a10efd1c02117116d96ef7e3e15e590beeaa7b79abb2f6d70c4352989f2"),
        # Even d, so every ch2H label is whole: the median rung of `enumerate-large`.
        ("15000", "12", (), 1_538_061,
         "097b1d78a397441554b71bb0a83a8c5f7f4350c5dcfcc652ce538218dd82ba24"),
    ],
    ids=["text", "json", "even-d-text"],
)
def test_enumerate_at_the_benchmark_scale_is_pinned(capsys, d, c2h, flags, size, digest):
    code, out, err = run(capsys, "enumerate", "--d", d, "--c2h", c2h, *flags)
    assert (code, err) == (0, "")
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


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
    # The report holds a placeholder for each long list, where cmd_certify writes its rows.
    report = build_certify_report(from_preset("quintic"), "quintic", [], "auto")
    assert (report["case2"], report["candidates"]) == ("<case2>", "<candidates>")
    case2 = to_jsonable(certifier.case2_check(from_preset("quintic")))
    candidates = to_jsonable(certifier.enumerate_candidates(from_preset("quintic")))
    assert json.loads(out) == {**report, "case2": case2, "candidates": candidates}


def test_certify_report_makes_the_supplied_case2_rows_alone(monkeypatch):
    # Near the candidate limit there are 17,666 Case 2 degrees; a certify process makes
    # the three supplied rows as records, once, and writes the rest from the closed form.
    made = []

    class CountedRow(certifier.Case2Row):
        __slots__ = ()

        def __init__(self, *values):
            made.append(values[0])
            super().__init__(*values)

    monkeypatch.setattr(certifier, "Case2Row", CountedRow)
    bounds = ["--curve-bound=8833:-2944", "--curve-bound=2:0", "--curve-bound=1:5888"]
    with contextlib.redirect_stdout(_CountingSink()):
        assert main(["certify", "--d", "35333", "--c2h", "2", *bounds]) == 2
    assert made == [1, 2, 8833]  # beta = 2 is violated: exit 2


def _assert_certify_is_held_certificate(capsys, argv, geom, preset, bounds, mode):
    """certify's stdout, text and --json, is the bytes of the whole certificate held."""
    for flags, want in zip(((), ("--json",)), held_certify_outputs(geom, preset, bounds, mode)):
        code, out, err = run(capsys, "certify", *argv, *flags)
        assert code in (0, 1, 2) and err == ""
        assert (len(out), hashlib.sha256(out.encode()).hexdigest()) == (
            len(want), hashlib.sha256(want.encode()).hexdigest()), (argv, flags)


@pytest.mark.parametrize("mode", sorted(_MODES))
@pytest.mark.parametrize("preset", ["quintic", "ci24", "ci223"])
def test_certify_streams_the_held_certificate_for_every_preset(capsys, preset, mode):
    argv = ["--preset", preset, "--mode", mode]
    _assert_certify_is_held_certificate(capsys, argv, from_preset(preset), preset, [], _MODES[mode])


# Odd and even d, d = 1 and 2 with no Case 2 row, supplied curve bounds (held, violated
# and given twice), block-edge degrees, and 35,333, the largest d under the limit.
@pytest.mark.parametrize("d,c2h,bounds,known", [
    (1, 10, (), False), (2, 8, (), False), (2001, 6, (), False), (2000, 8, (), False),
    (5, 50, ((2, -1), (1, 0)), True), (5, 50, ((2, -2),), False),
    (30, 60, ((3, -5), (3, -4), (14, 0)), True),
    *((d, 12 - 2 * d, (), False) for d in (295, 298, 311, 410, 1031, 1165)),
    (35333, 2, (), False),
    # Supplied bounds on the edges of the 256-row Case 2 blocks, one violated (at 512).
    (2001, 6, ((1, 333), (256, 78), (257, 100), (512, -200), (1000, -600)), False),
    (35333, 2, ((1, 5888), (8833, -2944), (17666, 0)), True),  # first, middle, last beta
])
def test_certify_streams_the_held_certificate(capsys, d, c2h, bounds, known):
    argv = ["--d", str(d), "--c2h", str(c2h), *(f"--curve-bound={b}:{c}" for b, c in bounds)]
    geom = PolarizedCY3.derive(d, c2h, known)
    _assert_certify_is_held_certificate(capsys, argv + ["--castelnuovo-known"] * known, geom,
                                        None, [CurveBound(b, c) for b, c in bounds], "auto")


@pytest.mark.parametrize("d", [*range(1, 25), 2000, 2001])
def test_certify_writes_the_default_case2_rows_of_the_floor(capsys, d):
    # A default row takes chi_min = ceil(d/6 - beta), and its bound is d/6 - beta - chi_min:
    # computed here in fractions, apart from the program's closed form and its template.
    code, out, _ = run(capsys, "certify", "--d", str(d), "--c2h", str(12 - 2 * d), "--json")
    rows = []
    for beta in range(1, (d + 1) // 2):
        chi = math.ceil(Fraction(d, 6) - beta)
        bound = Fraction(d, 6) - beta - chi
        shown = str(bound.numerator) + (f"/{bound.denominator}" if bound.denominator != 1 else "")
        rows.append({"beta": beta, "chi_min": chi, "ch3_bound": shown, "ok": True, "source": "default"})
    assert code in (0, 1, 2) and json.loads(out)["case2"] == rows


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
def test_certify_past_the_limit_by_one_degree_is_exit_3_before_any_output(capsys, flags):
    # 35,335 is the smallest degree with more than MAX_CANDIDATES candidates.
    assert certifier.candidate_count(35333) <= certifier.MAX_CANDIDATES
    code, out, err = run(capsys, "certify", "--d", "35335", "--c2h", "10", *flags)
    assert (code, out) == (3, "")
    assert err == "error: TooManyCandidates: d = 35335 has more than 200000 candidates\n"


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


def test_eval_ineq12_still_checks_a_given_geometry(capsys):
    # ineq12 does not use the geometry, but one that is given must be valid.
    ch = ("--ch", "1,1,5/2,5/6")
    code, out, err = run(capsys, "eval", "--op", "ineq12", "--d", "0", "--c2h", "1", *ch)
    assert (code, out) == (3, "")
    assert err.splitlines() == ["error: ValueError: d must be a positive integer, got 0"]
    code, out, err = run(capsys, "eval", "--op", "ineq12", "--preset", "nope", *ch)
    assert (code, out) == (3, "")
    assert "unknown preset 'nope'" in err
    code, out, _ = run(capsys, "eval", "--op", "ineq12", "--preset", "quintic", *ch)
    assert code == 0
    assert out == "ineq12: lhs = 5/6, rhs = 5/6 -> equality\n"


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
    # The word after a value option is its value, whatever it starts with.
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
    path = str(tmp_path / "nope.json")
    code, _, err = run(capsys, "geom", "--config", path)
    assert code == 3
    assert err == f"error: ConfigError: config {_shown(path)}: No such file or directory\n"


def test_config_file_nested_too_deeply(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 50000)  # under the 64 KiB cap, so the JSON parser reads it
    proc = subprocess.run(
        [sys.executable, "-m", "bgcert", "geom", "--config", str(path)],
        capture_output=True,
        env=_CHILD_ENV,
        timeout=120,
    )
    assert proc.returncode == 3
    assert b"Traceback" not in proc.stderr
    want = f"error: ConfigError: config {_shown(str(path))}: JSON nested too deeply\n"
    assert proc.stderr == want.encode()


_OVER_THE_DIGIT_LIMIT = "1" + "0" * sys.get_int_max_str_digits()  # int() refuses it


@pytest.mark.parametrize("config, message", [
    (f'{{"d": {_OVER_THE_DIGIT_LIMIT}, "c2h": 50}}',
     f"config {{path}}: an integer has more than {sys.get_int_max_str_digits()} digits"),
    (f"d = {_OVER_THE_DIGIT_LIMIT}\nc2h = 50\n",
     f"field d: expected an integer, got '10000000000000000000…' "
     f"({len(_OVER_THE_DIGIT_LIMIT)} characters)"),
], ids=["json", "lines"])
def test_config_integer_over_the_digit_limit_is_exit_3(capsys, tmp_path, config, message):
    path = tmp_path / "geom.cfg"
    path.write_text(config)
    code, out, err = run(capsys, "geom", "--config", str(path))
    assert (code, out) == (3, "")
    assert err == f"error: ConfigError: {message.format(path=_shown(str(path)))}\n"
    assert len(err.encode()) < 200  # neither the value nor the path is echoed in full


def test_import_loads_no_code_generating_modules():
    # dataclasses brings in inspect, ast, dis and tokenize, about 30 ms of every process;
    # pathlib brings in urllib.parse and ipaddress. Without `site` nothing imports them first.
    probe = ("import sys, bgcert.cli; print(sorted(set(sys.modules) & "
             "{'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'pathlib'}))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, env=_CHILD_ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


_LAZY_JSON_PROBE = """
import contextlib, io, sys
import bgcert
print("json" in sys.modules)
import bgcert.cli
print("json" in sys.modules)
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = bgcert.cli.main(argv.split())
    print(code, "json" in sys.modules, out.getvalue().splitlines()[-1])
"""


_PARSER_MODULES_PROBE = """
import contextlib, io, sys
import bgcert.cli
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = bgcert.cli.main(argv.split())
    print(code, "argparse" in sys.modules, "locale" in sys.modules)
"""


def test_a_process_loads_neither_argparse_nor_locale():
    # getopt parses; it loads locale only to translate its own error message. Without
    # `site` nothing imports either module first.
    commands = ["geom --preset quintic", "enumerate --preset quintic --json",
                "certify --d 5 --c2h 50 --curve-bound 1:0", "eval --op chi --preset quintic --ch 1,1,0,0",
                "certify --help", "certify --preset quintic --mode bogus", "geom --bogus"]
    proc = subprocess.run([sys.executable, "-S", "-c", _PARSER_MODULES_PROBE, *commands],
                          capture_output=True, text=True, env=_CHILD_ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:5] == ["0 False False", "0 False False", "1 False False", "0 False False",
                         "0 False False"]
    assert [line.split()[:2] for line in lines[5:]] == [["3", "False"], ["3", "False"]]


def test_json_is_imported_only_to_read_or_write_json(tmp_path):
    # A text command from flags or a preset never loads json; a JSON --config and --json
    # load it where they use it. Without `site` nothing imports it first.
    config = tmp_path / "geom.json"
    config.write_text('{"d": 5, "c2h": 50}')  # the line format would read key '{"d"'
    commands = ["enumerate --preset quintic", "certify --d 5 --c2h 50",
                f"geom --config {config}", "enumerate --preset quintic --json"]
    proc = subprocess.run([sys.executable, "-S", "-c", _LAZY_JSON_PROBE, *commands],
                          capture_output=True, text=True, env=_CHILD_ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "False",
        "False",
        "0 False 7 candidate(s)",
        "1 False verdict: CONDITIONAL",
        "0 True even-degree variant dim|H| >= 2d/3 - 3: n/a (odd degree)",
        "0 True ]",
    ]


@pytest.mark.parametrize("argv, config, code, line", [
    (["certify", "--preset", "quintic", "--mode", "even"], None, 2,
     "linear-system hypothesis: not applicable (odd degree)"),
    (["eval", "--op", "chi", "--ch", "1/2,1,0,0"], None, 3,
     "--ch: ch0 and c1 must be integers, got '1/2,1'"),
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
    (["geom"], "d = 5\nc2h = 50\nd = 8\n", 3, "ConfigError: field 'd': given more than once"),
    (["geom"], '{"d": 5, "c2h": 50, "d": 8}', 3, "ConfigError: field 'd': given more than once"),
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


@pytest.mark.parametrize("argv, line", [
    (["--preset", "", "--d", "5", "--c2h", "50"], "error: ConfigError: give either --preset or "
     "a custom geometry (--d/--c2h/--config), not both"),
    (["--preset", ""], "error: UnknownPreset: unknown preset ''; available: ci223, ci24, quintic"),
    (["--config", "", "--preset", "quintic"],
     "error: ConfigError: config '': No such file or directory"),
], ids=["preset-with-flags", "preset-alone", "config-with-preset"])
def test_an_empty_preset_or_config_is_given_not_absent(capsys, argv, line):
    code, out, err = run(capsys, "geom", *argv)
    assert (code, out) == (3, "")
    assert err.startswith(line) and err.count("\n") == 1, err


@pytest.mark.parametrize("flag, value", [("--d", "5_0"), ("--d", "\u0665"), ("--d", "+5"),
                                         ("--c2h", "5_0"), ("--dimh", "4_")])
def test_integer_flags_follow_the_rational_grammar(capsys, tmp_path, flag, value):
    # A flag is read as the config field of its name: the same line, byte for byte.
    fields = {"d": "5", "c2h": "50", flag[2:]: value}
    code, out, err = run(capsys, "certify", *(f"--{key}={v}" for key, v in fields.items()))
    assert (code, out) == (3, "")
    assert err == f"error: ConfigError: field {flag[2:]}: expected an integer, got {value!r}\n"
    path = tmp_path / "geom.cfg"
    path.write_text("".join(f"{key} = {v}\n" for key, v in fields.items()), encoding="utf-8")
    assert run(capsys, "certify", "--config", str(path)) == (code, out, err)


def test_t_is_checked_whenever_given(capsys):
    argv = ["eval", "--op", "chi", "--preset", "quintic", "--ch", "1,1,5/2,5/6"]
    assert run(capsys, *argv, "--t", "xyz") == (
        3, "", "error: ConfigError: --t: malformed rational 'xyz': expected p or p/q\n")
    for op in ("chi", "mu", "bg", "ineq12"):
        argv[2] = op
        assert run(capsys, *argv, "--t", "-3/2") == run(capsys, *argv), op


def test_config_file_not_utf8_is_exit_3(capsys, tmp_path):
    path = tmp_path / "geom.cfg"
    path.write_bytes("d = 5\nc2h = 50  # caf\u00e9\n".encode("latin-1"))
    code, out, err = run(capsys, "geom", "--config", str(path))
    assert code == 3 and out == ""
    assert err == (f"error: ConfigError: config {_shown(str(path))}: not UTF-8: byte 0xe9 at position 21: "
                   "invalid continuation byte\n")


def test_config_file_not_utf8_after_a_bom_counts_the_bom(capsys, tmp_path):
    path = tmp_path / "geom.cfg"
    path.write_bytes(b"\xef\xbb\xbfd = 5\n\xff")
    code, out, err = run(capsys, "geom", "--config", str(path))
    assert (code, out) == (3, "")
    assert err == (f"error: ConfigError: config {_shown(str(path))}: not UTF-8: byte 0xff at position 9: "
                   "invalid start byte\n")


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero on this platform")
def test_config_from_dev_zero_is_exit_3_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "geom", "--config", "/dev/zero")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (3, "")
    assert err == "error: ConfigError: config '/dev/zero': not a regular file\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_config_from_a_fifo_with_no_writer_is_exit_3(tmp_path):
    # In a child, so that a blocking open fails the test by its timeout instead of hanging it.
    path = tmp_path / "geom.fifo"
    os.mkfifo(path)
    proc = subprocess.run(
        [sys.executable, "-m", "bgcert", "geom", "--config", str(path)],
        capture_output=True,
        env=_CHILD_ENV,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (3, b"")
    assert proc.stderr == f"error: ConfigError: config {_shown(str(path))}: not a regular file\n".encode()


@pytest.mark.parametrize("config", ["d = 5\nc2h = 50\n", '{"d": 5, "c2h": 50}'],
                         ids=["lines", "json"])
def test_config_at_the_cap_reads_and_one_byte_over_is_exit_3(capsys, tmp_path, config):
    path = tmp_path / "geom.cfg"
    path.write_bytes(config.encode().ljust(CONFIG_MAX_BYTES, b" "))
    code, out, err = run(capsys, "geom", "--config", str(path))
    assert (code, err) == (0, "")
    assert out.startswith("geometry custom: d = 5, c2(X).H = 50,")
    path.write_bytes(config.encode().ljust(CONFIG_MAX_BYTES + 1, b" "))
    code, out, err = run(capsys, "geom", "--config", str(path))
    assert (code, out) == (3, "")
    assert err == f"error: ConfigError: config {_shown(str(path))}: longer than the cap of 65536 bytes\n"


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


# --- the command line -------------------------------------------------------------------

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


@pytest.mark.parametrize("command", ["geom", "enumerate", "certify"])
def test_main_runs_the_command_by_its_name_at_each_parse(capsys, monkeypatch, command):
    # A wrapper put on cli.cmd_<command> after import, as perfbench's tracer does, is what runs.
    seen = []
    monkeypatch.setattr(bgcert.cli, f"cmd_{command}", lambda args: seen.append(args.command) or 7)
    assert run(capsys, command, "--preset", "quintic") == (7, "", "") and seen == [command]


def test_unknown_subcommand_maps_to_config_exit(capsys):
    assert main(["frobnicate"]) == 3


@pytest.mark.parametrize("first", ["-1", "10", "-1/2"])
def test_a_number_in_place_of_the_subcommand_is_exit_3(capsys, first):
    # Only a command, or a help option, may come first.
    code, out, err = run(capsys, first, "geom", "--preset", "quintic")
    assert (code, out) == (3, "")
    assert "bgcert: error: " in err


# Each command's options, by name; --help names every one of them.
_OPTIONS = {"geom": [], "enumerate": [], "certify": ["curve-bound", "mode"], "eval": ["op", "ch", "t"]}
_GEOMETRY_OPTION_NAMES = ["preset", "d", "c2h", "dimh", "castelnuovo-known", "config", "json"]


def test_help_exits_zero(capsys):
    for flag in ("-h", "--help"):
        code, out, err = run(capsys, flag)
        assert (code, err) == (0, "") and out.startswith("usage: bgcert ")
        assert all(f"  {command} " in out for command in _OPTIONS)
        for command, names in _OPTIONS.items():
            code, out, err = run(capsys, command, flag)
            assert (code, err) == (0, "") and out.startswith(f"usage: bgcert {command} ")
            assert all(f"  --{name} " in out for name in _GEOMETRY_OPTION_NAMES + names), command


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
@given(_argv(), st.none() | st.binary(max_size=300))
def test_cli_fuzz_ends_in_a_verdict_or_exit_3(argv, config):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:  # random bytes as a config file
            path = os.path.join(tmp, "geom.cfg")
            with open(path, "wb") as file:
                file.write(config)
            argv = [*argv, "--config", path]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    if code == 3:
        assert out.getvalue() == "" and err.getvalue() != ""
    elif "--json" in argv:
        json.loads(out.getvalue())


_FLAG_NAMES = {"castelnuovo-known", "json"}
_WORD = st.sampled_from(["", "-1", "-1/2", "-x", "auto", "bogus", "quintic", "full", "chi", "5",
                         "-1,1,0,0", "1,1,5/2,5/6", "2:-1"])


@st.composite
def _option_words(draw, names):
    """An option of `names`, written in full or as a prefix, unique or ambiguous ("c", "c2"),
    alone or with a value after "=" or as the next word; mostly as its kind asks."""
    name = draw(st.sampled_from(names))
    spelled = draw(_weighted(st.just(name), st.sampled_from([name[:k] for k in range(1, len(name) + 1)])))
    if draw(_weighted(st.just(name in _FLAG_NAMES), st.booleans())):
        return ["--" + spelled]
    word = draw(_WORD)
    return [f"--{spelled}={word}"] if draw(st.booleans()) else ["--" + spelled, word]


@st.composite
def _command_lines(draw):
    """A command or a junk word, then options, with or without values, repeats, stray words
    and "--"; no help option. eval is given --op and --ch first more often than not."""
    first = draw(_weighted(st.sampled_from(sorted(_OPTIONS)),
                           st.sampled_from(["frobnicate", "-1", "--json", ""])))
    words = [first] + ["--op", "nu", "--ch", "1,1,5/2,5/6"] * (first == "eval" and draw(st.booleans()))
    every = _GEOMETRY_OPTION_NAMES + [name for names in _OPTIONS.values() for name in names]
    tokens = _weighted(_option_words(_GEOMETRY_OPTION_NAMES + _OPTIONS.get(first, [])),
                       _option_words(every) | st.sampled_from([["--"], ["stray"], ["-x"], ["-1"], [""]]))
    return words + [word for option in draw(st.lists(tokens, max_size=6)) for word in option]


def _parsed(parse, argv, refused):
    """vars() of parse(argv), or None where it raises `refused`."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return vars(parse(argv))
    except refused:
        return None


@settings(deadline=None, max_examples=500)
@given(_command_lines())
def test_the_parser_accepts_what_argparse_accepted_alike(argv):
    # argparse refused a value that starts with "-" (unless it joined one to --ch or --t);
    # getopt takes the word after a value option, whatever it is. So that is the one thing
    # only the new parser accepts, and the two agree on every line argparse accepts.
    ours = _parsed(build_parser, argv, getopt.GetoptError)
    theirs = _parsed(lambda words: _oracles.build_parser().parse_args(
        _oracles._join_signed_values(words)), argv, SystemExit)
    if theirs is not None:
        assert ours == theirs, argv
    if ours is None:
        assert theirs is None, argv
    elif theirs is None:
        values = [v for value in ours.values() for v in (value if isinstance(value, list) else [value])]
        assert any(isinstance(v, str) and v.startswith("-") for v in values), (argv, ours)


# One typed value 5,000 characters long, made by repeating a filler. No filler makes an
# integer of 13 digits or fewer; "7" makes one over int()'s digit limit.
_LONG = st.sampled_from(["x", "7", "7/", "1,", "1:", "-", "é", "٥", "\n", "'", '"',
                         " ", "=", "#"]).map(lambda filler: (filler * 5000)[:5000])
# A well-formed integer of 21 digits up to int()'s limit of 4,300, which a domain error may
# echo: chi(O(H)), a contradicted dimh, a beta out of range, a rank of zero or below.
_NUMBER = st.builds(lambda sign, digit, n: sign + digit * n, st.sampled_from(["", "-"]),
                    st.sampled_from("123456789"), st.integers(21, 4300))
_LONG_SLOTS = ["--preset", "--d", "--c2h", "--dimh", "--ch", "--t", "--curve-bound",
               "config value", "config key twice"]


@st.composite
def _one_long_value(draw):
    """(argv, config text or None) in which one typed value is long: 5,000 characters, or
    a well-formed integer of up to 4,300 digits."""
    value, slot = draw(_LONG | _NUMBER), draw(st.sampled_from(_LONG_SLOTS))
    command = draw(st.sampled_from(["geom", "enumerate", "certify"]))
    op = draw(st.sampled_from(["chi", "mu", "nu", "bg", "ineq12"]))
    if slot == "--preset":
        return [command, f"--preset={value}"], None
    if slot in ("--d", "--c2h", "--dimh"):
        fields = {"d": "5", "c2h": "50", slot[2:]: value}
        return [command, *(f"--{key}={v}" for key, v in fields.items())], None
    if slot == "--ch":  # the value whole, as a c1 of 4,000 characters over 2, or as ch0
        ch = draw(st.sampled_from([value, f"1,{value[:4000]}/2,1,0", f"{value},1,0,0"]))
        return ["eval", "--op", op, "--preset", "quintic", f"--ch={ch}"], None
    if slot == "--t":
        return ["eval", "--op", op, "--preset", "quintic", "--ch", "1,1,5/2,5/6",
                f"--t={value}"], None
    if slot == "--curve-bound":
        bound = draw(st.sampled_from([value, f"{value}:0", f"1:{value}"]))
        return ["certify", "--preset", "quintic", f"--curve-bound={bound}"], None
    if slot == "config value":
        field = draw(st.sampled_from(["d", "c2h", "dimh", "castelnuovo_known"]))
        pairs = [*{"d": "5", "c2h": "50", field: value}.items()]
    else:
        pairs = [("d", "5"), ("c2h", "50"), (value, "1"), (value, "2")]
    if draw(st.booleans()):
        body = ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs)
        return [command], "{" + body + "}"
    return [command], "".join(f"{k} = {v}\n" for k, v in pairs)


@st.composite
def _one_long_usage_error(draw):
    """(argv, None) with a 5,000-character option name or --mode or --op value."""
    value, slot = draw(_LONG), draw(st.sampled_from(["option", "--mode", "--op"]))
    if slot == "option":
        return [draw(st.sampled_from(sorted(_OPTIONS))), "--" + value], None
    if slot == "--mode":
        return ["certify", "--preset", "quintic", "--mode", value], None
    return ["eval", "--op", value, "--preset", "quintic", "--ch", "1,1,0,0"], None


@st.composite
def _one_long_path(draw):
    """(argv, (name, made)) for a --config path of that name in an empty directory: 5,000
    characters with nothing there, or a name with a newline made as a directory or as a
    file with a line that is not key = value."""
    command = draw(st.sampled_from(["geom", "enumerate", "certify"]))
    if draw(st.booleans()):
        return [command], (draw(_LONG), None)
    name = draw(st.sampled_from(["a\nb", "\n", "geom.cfg\n"]))
    return [command], (name, draw(st.sampled_from(["directory", "d 5\n"])))


@settings(deadline=None)
@given(_one_long_value().map(lambda case: (*case, "error: "))
       | _one_long_path().map(lambda case: (*case, "error: ConfigError: config "))
       | _one_long_usage_error().map(lambda case: (*case, "bgcert: error: ")))
def test_a_long_typed_value_gives_one_short_error_line(case):
    # Every typed value is quoted by one rule, so the error line stays short however long
    # the value; so is the --config path, and every word a usage error echoes.
    argv, config, prefix = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            name, made = config if isinstance(config, tuple) else ("geom.cfg", config)
            path = os.path.join(tmp, name)
            if made == "directory":
                os.mkdir(path)
            elif made is not None:  # else nothing is there
                with open(path, "w", encoding="utf-8") as file:
                    file.write(made)
            argv = [*argv, "--config", path]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    line = err.getvalue()
    assert code in (0, 1, 2, 3), (argv, line)
    if code != 3:  # a filler that a config file reads as a comment or blank leaves a verdict
        assert line == ""
        return
    assert out.getvalue() == "" and line.startswith(prefix), (argv, line)
    assert line.endswith("\n") and line.count("\n") == 1 and len(line.encode()) < 300, line


def test_a_number_past_the_digit_limit_of_str_is_shown_by_its_size(capsys):
    # 2d + c2h has 4,301 digits, one past what str() writes of an int, and 12 does not
    # divide it, so chi(O(H)) cannot be echoed even in part.
    code, out, err = run(capsys, "geom", "--d", "9" * 4300, "--c2h", "1")
    assert (code, out) == (3, "")
    assert err == ("error: NonIntegralGeometry: chi(O(H)) = a number of 14286 bits is not an "
                   "integer for fields d='99999999999999999999…' (4300 characters), c2h=1\n")


@pytest.mark.parametrize("argv, bits", [
    (["geom", "--d", "9" * 4300, "--c2h", "6"], 14286),  # 7d - 18 in the full threshold
    (["geom", "--d", "9" * 4300, "--c2h", "6", "--json"], 14286),
    (["eval", "--op", "bg", "--d", "5", "--c2h", "50", "--ch", f"1,{'9' * 4000},0,0"], 26578),
    (["certify", "--preset", "quintic", "--curve-bound", f"1:{'9' * 4300}"], 14287),
], ids=["geom", "geom-json", "eval-bg", "certify-curve-bound"])
def test_a_result_past_the_digit_limit_of_str_is_one_typed_line(capsys, argv, bits):
    # Every input is within the limit; the printed result is not. format_rational, which
    # prints every computed number, answers for it before any byte is written.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == (f"error: NumberTooLong: a result of {bits} bits has more than "
                   f"{sys.get_int_max_str_digits()} digits to print\n")


# Every integer the command line accepts: 1 to 4,300 digits, either sign, drawn long
# and positive more often than not, where a result computed from it can pass the limit.
_INTEGER = st.builds(lambda sign, digit, n: sign + digit * n, st.sampled_from(["", "", "-"]),
                     st.sampled_from("123456789"),
                     st.integers(1, 4300) | st.sampled_from([1500, 2200, 4299, 4300]))


@st.composite
def _an_integer_in_every_slot(draw):
    """argv of any subcommand with a drawn integer in each of its numeric slots. c2h is
    sometimes the one that makes d consistent, and beta sometimes 1, so that results
    computed from long inputs are printed too."""
    command = draw(st.sampled_from(["geom", "enumerate", "certify", "eval"]))
    d = draw(_INTEGER | st.sampled_from(["5", "30"]))
    c2h = draw(_INTEGER | st.just(str(-2 * int(d) % 12)))  # 12 divides 2d + c2h
    argv = [command, f"--d={d}", f"--c2h={c2h}"]
    if draw(st.integers(0, 3)) == 0:
        argv.append(f"--dimh={draw(_INTEGER)}")
    if command == "certify":
        argv.append(f"--curve-bound={draw(_INTEGER | st.just('1'))}:{draw(_INTEGER)}")
    if command == "eval":
        fields = [draw(_INTEGER) for _ in range(4)]
        fields[2] += draw(st.just("") | _INTEGER.map(lambda q: "/" + q.lstrip("-")))
        argv += ["--op", draw(st.sampled_from(["chi", "mu", "nu", "bg", "ineq12"])),
                 f"--ch={','.join(fields)}", f"--t={draw(_INTEGER)}"]
    return argv + ["--json"] * draw(st.booleans())


@settings(deadline=None, max_examples=60)
@given(_an_integer_in_every_slot())
def test_any_accepted_integer_ends_in_a_verdict_or_one_short_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    line = err.getvalue()
    assert code in (0, 1, 2, 3) and "Exceeds" not in line, (argv, line)
    assert line.count("\n") <= 1 and len(line.encode()) < 300, line
    if code == 3:
        assert out.getvalue() == "" and line.startswith("error: "), line
