"""Arithmetic mutation probe: does some test fail for each small change of the given lines?

    python tools/mutation_probe.py src/bgcert/stability.py:55 src/bgcert/chern.py:131-133 \
        -- tests/test_stability.py tests/test_chern.py

Each mutant changes one token on one of the named lines: a binary `+` and
`-` trade places, `*` and `//` trade places, a comparison gains or loses its
equality (`<` and `<=`, `>` and `>=` trade places), and an integer constant
moves by +1 and by -1. For each mutant the named tests run with `pytest -x` in a
copy of the checkout (`src/`, `tests/`, `pyproject.toml`) under the system
temporary directory, two copies at a time. A mutant is killed when pytest
exits non-zero. The survivors are printed with their line; the last line is
the count. Run it from the root of a checkout.
"""

from __future__ import annotations

import io
import os
import shutil
import subprocess
import sys
import tempfile
import tokenize
from concurrent.futures import ThreadPoolExecutor

SWAPS = {"+": "-", "-": "+", "*": "//", "//": "*", "<": "<=", "<=": "<", ">": ">=", ">=": ">"}
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
        if token.type == tokenize.OP and token.string in SWAPS and binary:
            replacements = [SWAPS[token.string]]
        elif token.type == tokenize.NUMBER and token.string.isdigit():
            replacements = [str(int(token.string) + 1), str(int(token.string) - 1)]
        else:
            continue
        line = text[row - 1]
        for new in replacements:
            yield row, line[:col] + new + line[token.end[1]:]


def run_all(root: str, jobs: list, tests: list[str]) -> list:
    """Run each (path, row, mutated line) in a copy of the checkout; return the survivors."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # a stale .pyc would hide a mutant
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")

    def work(share: list) -> list:
        survivors = []
        with tempfile.TemporaryDirectory() as copy:
            for name in ("src", "tests"):
                shutil.copytree(os.path.join(root, name), os.path.join(copy, name), ignore=ignore)
            shutil.copy(os.path.join(root, "pyproject.toml"), copy)
            for path, row, mutated in share:
                target = os.path.join(copy, path)
                with open(target) as file:
                    original = file.read().splitlines(keepends=True)
                with open(target, "w") as file:
                    file.writelines(original[:row - 1] + [mutated] + original[row:])
                proc = subprocess.run(
                    [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                    cwd=copy, env=env, capture_output=True, timeout=600)
                with open(target, "w") as file:
                    file.writelines(original)
                if proc.returncode == 0:
                    survivors.append((path, row, mutated))
        return survivors

    with ThreadPoolExecutor(WORKERS) as pool:
        shares = pool.map(work, [jobs[k::WORKERS] for k in range(WORKERS)])
        return [survivor for share in shares for survivor in share]


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
    survivors = run_all(os.getcwd(), jobs, tests)
    for path, row, mutated in survivors:
        print(f"survived {path}:{row}: {mutated.strip()}")
    print(f"{len(jobs)} mutants, {len(jobs) - len(survivors)} killed, {len(survivors)} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
