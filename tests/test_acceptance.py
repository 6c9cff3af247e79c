"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they go.
Everything asserted here is exact; the few runtime ceilings are generous.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction as Q
from pathlib import Path

import bgcert
from bgcert.certifier import ext1_cap
from bgcert.chern import (
    ChernVector,
    dual_ch,
    euler_characteristic,
    extend_by_trivial,
    line_bundle_ch,
    quotient_by_trivial,
)
from bgcert.cli import main
from bgcert.geometry import (
    PolarizedCY3,
    check_h_assumption,
    check_h_assumption_even,
    from_preset,
)
from bgcert.stability import bg_discriminant, lemma1_slope_window, lemma2_slope_window, tilt_slope_nu

from _oracles import naive_candidates


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {label}")
        raise
    print(f"PASS criterion {label}")


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_criterion_1_quintic_enumeration(capsys):
    with criterion("1: quintic candidate enumeration, exact order, < 1 s"):
        start = time.monotonic()
        code, out, _ = run_cli(capsys, "enumerate", "--preset", "quintic", "--json")
        elapsed = time.monotonic() - start
        assert code == 0
        pairs = [(c["r"], c["c2H"]) for c in json.loads(out)]
        assert pairs == [(1, 0), (1, 1), (1, 2), (2, 2), (3, 2), (4, 2), (5, 2)]
        assert elapsed < 1.0


def test_criterion_2_quintic_certification(capsys):
    with criterion("2: quintic certification is CERTIFIED_STRICT with exact traces, < 1 s"):
        start = time.monotonic()
        code, out, _ = run_cli(capsys, "certify", "--preset", "quintic", "--json")
        elapsed = time.monotonic() - start
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "CERTIFIED_STRICT"
        assert report["case3"]["worst_bound"] == "-7/6"
        assert [(row["beta"], row["ch3_bound"]) for row in report["case2"]] == [
            (1, "-1/6"),
            (2, "-1/6"),
        ]
        assert [(row["beta"], row["chi_min"]) for row in report["case2"]] == [(1, 0), (2, -1)]
        assert report["case1"]["equality_lengths"] == [0]
        assert report["case1"]["equality_value"] == "5/6"
        assert elapsed < 1.0


def test_criterion_3_hypothesis_table():
    with criterion("3: hypothesis table for quintic / ci24 / ci223, exact"):
        quintic, ci24, ci223 = from_preset("quintic"), from_preset("ci24"), from_preset("ci223")
        assert check_h_assumption(quintic)
        assert Q(quintic.dimH) >= Q(17, 6)
        assert not check_h_assumption(ci24)
        assert Q(ci24.dimH) < Q(19, 3)
        assert check_h_assumption_even(ci24)
        assert Q(ci24.dimH) >= Q(7, 3)
        assert check_h_assumption_even(ci223)
        assert Q(ci223.dimH) >= Q(5)


def test_criterion_4_slope_windows_exhaustive():
    with criterion("4: slope windows for all ranks up to 1000, < 5 s"):
        start = time.monotonic()
        for r in range(1, 1001):
            assert lemma1_slope_window(r) == [(1, r)]
        for r in range(2, 1001):
            assert lemma2_slope_window(r) == []
        assert time.monotonic() - start < 5.0


def test_criterion_5_riemann_roch_spine():
    with criterion("5: chi(O(H)) both ways equals 5/6/7 and chi(O_X) = 0, exact"):
        expected = {"quintic": 5, "ci24": 6, "ci223": 7}
        structure_sheaf = ChernVector(1, 0, Q(0), Q(0))
        for name, chi in expected.items():
            geom = from_preset(name)
            assert Q(geom.d, 6) + Q(geom.c2XH, 12) == chi
            assert geom.dimH + 1 == chi
            assert euler_characteristic(geom, line_bundle_ch(geom.d, 1)) == chi
            assert euler_characteristic(geom, structure_sheaf) == 0


def test_criterion_6_property_suite():
    with criterion("6: exact property suite (additivity, dual, BG, nu, enumeration), < 10 s"):
        start = time.monotonic()
        quintic = from_preset("quintic")

        samples = [
            ChernVector(r, a, Q(p, 2), Q(q, 3))
            for r in (-2, 0, 1, 3)
            for a in (-1, 0, 2)
            for p in (-3, 1)
            for q in (-2, 5)
        ]
        import warnings

        from bgcert.errors import VirtualClassWarning

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", VirtualClassWarning)
            for ch in samples:
                for m in (0, 1, 4):
                    assert quotient_by_trivial(extend_by_trivial(ch, m), m) == ch
                    assert extend_by_trivial(ch, m) == ch + m * ChernVector(1, 0, Q(0), Q(0))
                assert dual_ch(dual_ch(ch)) == ch

        for d in range(1, 31):
            geom = PolarizedCY3(d, 12 - 2 * d, 0)
            for n in range(-20, 21):
                assert bg_discriminant(geom, line_bundle_ch(d, n)) == 0

        for ch in samples:
            for t in (Q(1), Q(1, 2), Q(7, 3)):
                base = tilt_slope_nu(quintic, ch, t)
                for k in (1, 2, 5):
                    assert tilt_slope_nu(quintic, k * ch, t) == base

        from bgcert.certifier import enumerate_candidates

        for d in range(1, 31):
            geom = PolarizedCY3(d, 12 - 2 * d, 0)
            assert [(c.r, c.c2H) for c in enumerate_candidates(geom)] == naive_candidates(d)

        assert time.monotonic() - start < 10.0


def test_criterion_7_negative_controls(capsys):
    with criterion("7: negative controls (violating bound, bad geometry, impossible cap)"):
        code, out, _ = run_cli(capsys, "certify", "--preset", "quintic", "--curve-bound", "2:-2")
        assert code == 2
        assert "VIOLATED" in out and "beta = [2]" in out

        code, _, err = run_cli(capsys, "geom", "--d", "5", "--c2h", "49")
        assert code == 3
        assert "NonIntegralGeometry" in err

        cap = ext1_cap(from_preset("quintic"), Q(5, 2), 2)
        assert cap == -1
        assert cap < 0  # the certifier marks such configurations impossible


_CLI_MATRIX = [
    ["geom", "--preset", "quintic"],
    ["geom", "--preset", "quintic", "--json"],
    ["geom", "--preset", "ci24"],
    ["geom", "--preset", "ci24", "--json"],
    ["geom", "--preset", "ci223", "--json"],
    ["geom", "--d", "5", "--c2h", "49"],
    ["enumerate", "--preset", "quintic"],
    ["enumerate", "--preset", "quintic", "--json"],
    ["enumerate", "--d", "2", "--c2h", "20", "--json"],
    ["certify", "--preset", "quintic"],
    ["certify", "--preset", "quintic", "--json"],
    ["certify", "--preset", "ci24", "--mode", "even", "--json"],
    ["certify", "--preset", "ci24", "--mode", "full"],
    ["certify", "--preset", "ci223"],
    ["certify", "--preset", "quintic", "--curve-bound", "2:-2"],
    ["certify", "--preset", "quintic", "--curve-bound", "1:1", "--curve-bound", "2:0", "--json"],
    ["eval", "--op", "chi", "--preset", "quintic", "--ch", "1,1,5/2,5/6"],
    ["eval", "--op", "mu", "--preset", "quintic", "--ch", "0,0,1,0", "--json"],
    ["eval", "--op", "nu", "--preset", "quintic", "--ch", "1,1,5/2,5/6", "--t", "1"],
    ["eval", "--op", "bg", "--preset", "quintic", "--ch", "6,1,1/2,0", "--json"],
    ["eval", "--op", "ineq12", "--ch", "1,1,5/2,5/6"],
    ["eval", "--op", "chi", "--preset", "quintic", "--ch", "1,1,bad,0"],
]


# The expected bytes of _run_matrix(). A change to the CLI output has to update
# this file in the same change, where it shows as a diff.
_GOLDEN = Path(__file__).with_name("cli_matrix.golden")

# Children import the same bgcert as this process; if they could not import it
# at all, both runs would print the same ModuleNotFoundError and still agree.
_CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(bgcert.__file__).resolve().parents[1])}


def _run_matrix() -> bytes:
    blobs = []
    for argv in _CLI_MATRIX:
        proc = subprocess.run(
            [sys.executable, "-m", "bgcert", *argv],
            capture_output=True,
            check=False,
            env=_CHILD_ENV,
        )
        blobs.append(b"$ " + " ".join(argv).encode() + b"\n")
        blobs.append(f"exit={proc.returncode}\n".encode())
        blobs.append(proc.stdout)
        blobs.append(proc.stderr)
    return b"".join(blobs)


# Criterion 8's first run, kept for the golden test so the matrix runs twice, not three times.
_first_matrix_run = functools.cache(_run_matrix)


def test_criterion_8_determinism():
    with criterion("8: two runs of the CLI matrix are byte-identical"):
        first = _first_matrix_run()
        second = _run_matrix()
        assert first == second
        assert len(first) > 0


def test_cli_matrix_matches_golden():
    assert _first_matrix_run() == _GOLDEN.read_bytes()
