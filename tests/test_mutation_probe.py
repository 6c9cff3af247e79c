"""tools/mutation_probe.py on a one-file package of its own: a verdict for every mutant,
a hung one included, and no mutant at all when the tests fail unmutated."""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path

import pytest

pytest.importorskip("resource")  # the probe caps its children with it; not on every platform

_SPEC = importlib.util.spec_from_file_location(
    "mutation_probe", Path(__file__).resolve().parents[1] / "tools" / "mutation_probe.py")
probe = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(probe)

# Line 4, `i += 1`, has two mutants: `i += 2` returns 4 and fails the test, and
# `i += 0` never ends.
_LOOP = "def count_to(n):\n    i = 0\n    while i < n:\n        i += 1\n    return i\n"


def _checkout(root: Path, test: str) -> None:
    (root / "src").mkdir()
    (root / "src" / "loop.py").write_text(_LOOP)
    (root / "tests").mkdir()
    (root / "tests" / "test_loop.py").write_text(f"from loop import count_to\n\n\n{test}")
    (root / "pyproject.toml").write_text('[tool.pytest.ini_options]\npythonpath = ["src"]\n')


def test_a_mutant_that_never_ends_is_killed_by_the_timeout(tmp_path, capsys):
    _checkout(tmp_path, "def test_count():\n    assert count_to(3) == 3\n")
    jobs = [("src/loop.py", row, mutated)
            for row, mutated in probe.mutants(_LOOP, probe.line_targets("src/loop.py:4")[1])]
    assert [mutated.strip() for _, _, mutated in jobs] == ["i += 2", "i += 0"]
    # The timeout comes from an unmodified run, as in main, with a margin for running two
    # at a time under load, where `i += 2` must still fail before it, not time out.
    start = time.monotonic()
    assert probe.outcomes(str(tmp_path), [None], ["tests/test_loop.py"], None) == ["passed"]
    timeout = 4 * (time.monotonic() - start) + 2
    start = time.monotonic()
    assert probe.run_all(str(tmp_path), jobs, ["tests/test_loop.py"], timeout) == 0
    assert time.monotonic() - start < 60
    assert capsys.readouterr().out == (
        "killed (timeout) src/loop.py:4: i += 0\n2 mutants, 2 killed, 0 survived\n")


def test_tests_that_fail_unmutated_run_no_mutant(tmp_path, monkeypatch, capsys):
    _checkout(tmp_path, "def test_count():\n    assert count_to(3) == 4\n")
    monkeypatch.chdir(tmp_path)

    def no_mutant(*args):
        raise AssertionError("a mutant ran after a failing baseline")

    monkeypatch.setattr(probe, "run_all", no_mutant)
    assert probe.main(["src/loop.py:4", "--", "tests/test_loop.py"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "the named tests fail on the unmodified checkout: no mutant was run\n"


def test_the_copies_hold_perfbench_when_there_is_one(tmp_path):
    # A test that loads perfbench/ passes unmutated, so the lines it covers can be probed.
    _checkout(tmp_path, "from pathlib import Path\n\n\ndef test_bench():\n"
                        "    bench = Path(__file__).resolve().parents[1] / 'perfbench'\n"
                        "    assert (bench / 'run.py').read_text() == 'RUNS = 1\\n'\n")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("RUNS = 1\n")
    assert probe.outcomes(str(tmp_path), [None], ["tests/test_loop.py"], None) == ["passed"]
