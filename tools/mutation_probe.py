"""Arithmetic mutation probe: does some test fail for each small change of the given lines?

    python tools/mutation_probe.py src/bgcert/stability.py:55 src/bgcert/chern.py:131-133 \
        -- tests/test_stability.py tests/test_chern.py

Each mutant changes one token on one of the named lines: a binary `+` and
`-` trade places, `*` and `//` trade places, a comparison gains or loses its
equality (`<` and `<=`, `>` and `>=` trade places), `and` and `or` trade
places, and an integer constant moves by +1 and by -1.

The named tests first run once on an unmodified copy of the checkout (`src/`,
`tests/`, `perfbench/` when there is one, `pyproject.toml`); if they fail
there, the probe says so in one line and exits 2 without running a mutant.
Then each mutant runs the named tests with `pytest -x` in its own throwaway
copy under the system temporary directory, two mutants at a time. A mutant is
killed when pytest exits non-zero, or when it runs past 10 times the
unmodified run plus 60 s: then it is killed with its whole process group and
printed as `killed (timeout)`. Each run's address space is capped at 1 GiB.
The survivors are printed with their line; the last line is the count. Run it
from the root of a checkout.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize

SWAPS = {"+": "-", "-": "+", "*": "//", "//": "*", "<": "<=", "<=": "<", ">": ">=", ">=": ">",
         "and": "or", "or": "and"}
WORKERS = 2


def line_targets(spec: str) -> tuple[str, list[int]]:
    """"path:55" or "path:131-133" as (path, [line numbers])."""
    path, _, lines = spec.rpartition(":")
    first, _, last = lines.partition("-")
    return path, list(range(int(first), int(last or first) + 1))


def mutants(source: str, lines: list[int]):
    """(line number, mutated line) for every mutation of the given lines."""
    text = source.splitlines(keepends=True)
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    for index, token in enumerate(tokens):
        row, col = token.start
        if row not in lines or token.end[0] != row:
            continue
        before = tokens[index - 1]
        binary = before.type in (tokenize.NAME, tokenize.NUMBER) or before.string in (")", "]")
        if token.string in SWAPS and (token.type == tokenize.NAME or binary):  # NAME: and, or
            replacements = [SWAPS[token.string]]
        elif token.type == tokenize.NUMBER and token.string.isdigit():
            replacements = [str(int(token.string) + 1), str(int(token.string) - 1)]
        else:
            continue
        line = text[row - 1]
        for new in replacements:
            yield row, line[:col] + new + line[token.end[1]:]


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def start_tests(copy: str, root: str, tests: list[str], mutant=None) -> subprocess.Popen:
    """pytest -x on the named tests in `copy`, made a copy of the checkout at `root` with
    the one (path, row, mutated line) of `mutant` written into it."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests", "perfbench"):  # some tests load perfbench/, when there is one
        if os.path.isdir(os.path.join(root, name)):
            shutil.copytree(os.path.join(root, name), os.path.join(copy, name), ignore=ignore)
    shutil.copy(os.path.join(root, "pyproject.toml"), copy)
    if mutant is not None:
        path, row, mutated = mutant
        target = os.path.join(copy, path)
        with open(target) as file:
            lines = file.read().splitlines(keepends=True)
        with open(target, "w") as file:
            file.writelines(lines[:row - 1] + [mutated] + lines[row:])
    # No threads run in this process, so preexec_fn is safe; a new session lets a
    # timeout kill pytest together with whatever it started.
    return subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),  # a stale .pyc hides a mutant
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        preexec_fn=_cap_memory, start_new_session=True)


def outcomes(root: str, jobs: list, tests: list[str], timeout: float | None) -> list[str]:
    """"passed", "failed" or "timeout" for each job, a mutant or None for the unmodified
    checkout, each in its own throwaway copy, WORKERS at a time. A run past `timeout`
    seconds is killed."""
    found = []
    for k in range(0, len(jobs), WORKERS):
        with contextlib.ExitStack() as stack:
            procs = []
            for job in jobs[k:k + WORKERS]:
                copy = stack.enter_context(tempfile.TemporaryDirectory())
                procs.append(start_tests(copy, root, tests, job))
                stack.callback(_stop, procs[-1])  # before its copy is removed
            deadline = None if timeout is None else time.monotonic() + timeout
            for proc in procs:
                left = None if deadline is None else max(0.0, deadline - time.monotonic())
                try:
                    found.append("passed" if proc.wait(left) == 0 else "failed")
                except subprocess.TimeoutExpired:
                    found.append("timeout")
    return found


def _stop(proc: subprocess.Popen) -> None:
    """Kill a run still going, past its deadline or left by an interrupt, with its group."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def run_all(root: str, jobs: list, tests: list[str], timeout: float) -> int:
    """Run each (path, row, mutated line), print the survivors, the timeouts and the
    count, and return the number of survivors."""
    results = outcomes(root, jobs, tests, timeout)
    for (path, row, mutated), result in zip(jobs, results):
        if result != "failed":
            verdict = "survived" if result == "passed" else "killed (timeout)"
            print(f"{verdict} {path}:{row}: {mutated.strip()}")
    survivors = results.count("passed")
    print(f"{len(jobs)} mutants, {len(jobs) - survivors} killed, {survivors} survived")
    return survivors


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv[1:]:
        print("usage: mutation_probe.py PATH:LINE[-LAST]... -- TEST...", file=sys.stderr)
        return 2
    cut = argv.index("--")
    targets, tests = argv[:cut], argv[cut + 1:]
    jobs = []
    for spec in targets:
        path, lines = line_targets(spec)
        with open(path) as file:
            jobs += [(path, row, mutated) for row, mutated in mutants(file.read(), lines)]
    root = os.getcwd()
    start = time.monotonic()
    if outcomes(root, [None], tests, None) != ["passed"]:
        print("the named tests fail on the unmodified checkout: no mutant was run",
              file=sys.stderr)
        return 2
    run_all(root, jobs, tests, 10 * (time.monotonic() - start) + 60)
    return 0


if __name__ == "__main__":
    sys.exit(main())
