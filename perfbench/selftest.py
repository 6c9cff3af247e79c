"""Self-test of the benchmark's checkers: each accepts the program's real
output and rejects every corruption of it.

    python3 perfbench/selftest.py     (from the root of a checkout)

The corruptions are a flipped verdict, a dropped candidate, an altered Case 2
ch3_bound, a wrong exit code and a changed tilt-slope sign, on the inputs of
seeds 1 and 2. Exits 0 when every checker bit, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import sys
from fractions import Fraction

import checks
import workloads

SEEDS = (1, 2)
VERDICTS = ("CERTIFIED_STRICT", "CERTIFIED", "CONDITIONAL", "HYPOTHESIS_FAIL")


class Suite:
    def __init__(self):
        self.passed = 0
        self.failures: list[str] = []

    def accepts(self, label, check, output) -> None:
        try:
            check(output)
        except checks.CheckError as exc:
            self.failures.append(f"{label}: rejects the program's real output: {exc}")
        else:
            self.passed += 1

    def rejects(self, label, check, corrupted) -> None:
        try:
            check(corrupted)
        except checks.CheckError:
            self.passed += 1
        else:
            self.failures.append(f"{label}: accepts a corrupted output")


def certificates(suite: Suite, ctx, seed: int) -> None:
    sweep = workloads.CertifySweep(ctx, seed)
    seen = set()
    for plain, built in sweep.cases:
        g = checks.Geom(plain.geom.d, plain.geom.c2h, plain.geom.known)
        expected = checks.expected_certificate(g, plain.mode, plain.bounds)["verdict"]
        if expected in seen or g.d < 3:  # d >= 3 has Case 2 rows to corrupt
            continue
        seen.add(expected)
        report = json.loads(sweep.run((plain, built)))

        def check(rep, g=g, plain=plain):
            checks.check_certificate_json(rep, g, plain.mode, plain.bounds)

        label = f"certificate d={g.d} {expected}"
        suite.accepts(label, check, report)
        for other in VERDICTS:
            if other != expected:
                bad = copy.deepcopy(report)
                bad["verdict"] = other
                suite.rejects(f"{label}: verdict flipped to {other}", check, bad)
        for i in (0, len(report["candidates"]) // 2, len(report["candidates"]) - 1):
            bad = copy.deepcopy(report)
            del bad["candidates"][i]
            suite.rejects(f"{label}: candidate {i} dropped", check, bad)
        for i, row in enumerate(report["case2"]):
            for delta in (Fraction(1, 6), Fraction(-1, 6), Fraction(1)):
                bad = copy.deepcopy(report)
                value = checks.rat(row["ch3_bound"]) + delta
                bad["case2"][i]["ch3_bound"] = f"{value.numerator}/{value.denominator}"
                suite.rejects(f"{label}: Case 2 ch3_bound at beta={row['beta']} moved by {delta}", check, bad)
    if len(seen) < 3:
        suite.failures.append(f"seed {seed}: only verdicts {sorted(seen)} in the sweep")


def command_lines(suite: Suite, ctx, seed: int) -> None:
    cli = workloads.CliProcess(ctx, seed)
    try:
        cli.setup_once()
        for case in cli.cases:
            code, out, err = cli.run(case)
            label = " ".join(case.argv[:3])

            def check(result, case=case):
                checks.check_cli(case, *result)

            suite.accepts(label, check, (code, out, err))
            for wrong in range(4):
                if wrong != code:
                    suite.rejects(f"{label}: exit {wrong} instead of {code}", check, (wrong, out, err))
            if case.command == "certify" and not case.json:
                verdict = next(x for x in out.splitlines() if x.startswith("verdict: "))
                for other in VERDICTS:
                    if f"verdict: {other}" != verdict:
                        suite.rejects(f"{label}: text verdict flipped to {other}", check,
                                      (code, out.replace(verdict, f"verdict: {other}"), err))
            if case.command == "enumerate":
                if case.json:
                    rows = json.loads(out)
                    dropped = json.dumps(rows[:-1], indent=2) + "\n"
                else:
                    lines = out.splitlines()
                    n = len(lines) - 1
                    dropped = "\n".join(lines[1:n] + [f"{n - 1} candidate(s)"]) + "\n"
                suite.rejects(f"{label}: a candidate dropped", check, (code, dropped, err))
    finally:
        ctx.close()


def tilt_slopes(suite: Suite, ctx, seed: int) -> None:
    tilt = workloads.TiltScan(ctx, seed)
    for case in tilt.cases[:8]:
        plain = workloads.tilt_plain(tilt.run(case))

        def check(result, case=case):
            checks.check_tilt(case[0], result)

        label = f"tilt d={case[0].geom.d}"
        suite.accepts(label, check, plain)
        cands, rows, sandwiches, windows = plain
        flipped = 0
        for i, row in enumerate(rows):
            for j, (nu, nu2) in enumerate(row[1]):
                if nu != checks.INF and nu != 0 and flipped < 3:
                    bad_rows = copy.deepcopy(rows)
                    bad_rows[i][1][j] = (-nu, nu2)
                    suite.rejects(f"{label}: sign of nu flipped on class {i}", check,
                                  (cands, bad_rows, sandwiches, windows))
                    bad_rows[i][1][j] = (-nu, -nu2)
                    suite.rejects(f"{label}: sign of nu and nu(2ch) flipped on class {i}", check,
                                  (cands, bad_rows, sandwiches, windows))
                    flipped += 1
        suite.rejects(f"{label}: a candidate dropped", check, (cands[:-1], rows, sandwiches, windows))


def main() -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bgcert", "__init__.py")):
        print(f"error: no src/bgcert in {root}; run from the root of a bgcert checkout", file=sys.stderr)
        return 2
    ctx = workloads.Context(root)
    suite = Suite()
    for seed in SEEDS:
        certificates(suite, ctx, seed)
        command_lines(suite, ctx, seed)
        tilt_slopes(suite, ctx, seed)
    for failure in suite.failures:
        print(f"FAIL {failure}")
    print(f"{suite.passed} checks bit or accepted as they should, {len(suite.failures)} failed")
    return 1 if suite.failures else 0


if __name__ == "__main__":
    sys.exit(main())
