"""The four workloads: inputs, one timed operation, and its checks.

Each workload is a closed loop: one client, the next operation starts when
the last one has ended, and at most one child `bgcert` process runs at a
time. A round is the workload's fixed list of operations; a run attempts
whole rounds only, so every run attempts the same mix.
"""

from __future__ import annotations

import array
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import checks
import inputs

CHILD_TIMEOUT_S = 120
SETUP_REPEATS = 25  # set-ups per run, spread evenly over it


class Context:
    """Where the checkout is and how to start the program from its sources."""

    def __init__(self, root: str):
        self.root = root
        self.src = os.path.join(root, "src")
        self.tmp = os.path.join(root, ".perfbench_tmp")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=self.src + (os.pathsep + path if path else ""))
        # Children cache bytecode in src/bgcert/__pycache__, as an installed program has
        # its .pyc files; otherwise every process would also time compiling the sources.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self._bgcert = None
        self._spawner = None
        self.child_peak_kib = 0  # the largest ru_maxrss of any child so far

    def bgcert(self):
        """The package under test, imported from this checkout's sources."""
        if self._bgcert is None:
            sys.path.insert(0, self.src)
            import bgcert
            import bgcert.cli  # noqa: F401  (the traced run calls cli.main in process)

            where = os.path.dirname(os.path.abspath(bgcert.__file__))
            if where != os.path.join(os.path.abspath(self.src), "bgcert"):
                raise RuntimeError(f"bgcert imported from {where}, not from {self.src}")
            self._bgcert = bgcert
        return self._bgcert

    def run_child(self, argv) -> tuple[int, str, str]:
        """`python argv...` in the root, started by the spawner (see spawner.py)."""
        if self._spawner is None:
            os.makedirs(self.tmp, exist_ok=True)
            spawner = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spawner.py")
            self._spawner = subprocess.Popen([sys.executable, "-S", spawner], cwd=self.root, env=self.env,
                                             stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        out, err = os.path.join(self.tmp, "stdout"), os.path.join(self.tmp, "stderr")
        self._spawner.stdin.write(json.dumps([[sys.executable, *argv], out, err, CHILD_TIMEOUT_S]) + "\n")
        self._spawner.stdin.flush()
        reply = self._spawner.stdout.readline().split()
        if not reply:
            raise RuntimeError(f"the spawner ended with exit {self._spawner.wait()}")
        if reply[0] == "timeout":
            raise subprocess.TimeoutExpired(argv, CHILD_TIMEOUT_S)
        self.child_peak_kib = max(self.child_peak_kib, int(reply[1]))
        with open(out, "rb") as fh_out, open(err, "rb") as fh_err:
            return int(reply[0]), fh_out.read().decode(), fh_err.read().decode()

    def close(self) -> None:
        """Stop the spawner and remove the benchmark's files."""
        if self._spawner is not None:
            self._spawner.stdin.close()
            self._spawner.wait()
            self._spawner.stdout.close()
            self._spawner = None
        shutil.rmtree(self.tmp, ignore_errors=True)


class OpFailed(Exception):
    """The program did not complete an operation (as opposed to answering wrongly)."""


# ---------------------------------------------------------------------------
# Child-process workloads.


class ChildWorkload:
    """One `python -m bgcert ...` process per operation."""

    in_process = False

    def __init__(self, ctx: Context, seed: int):
        self.ctx, self.seed = ctx, seed
        self.cfg_dir = os.path.join(ctx.tmp, self.name)
        self.cases, self.files = self.make_cases()
        self._text_rows = None

    def make_cases(self):
        raise NotImplementedError

    def setup_once(self) -> float:
        """Write the input files and start one process, as a user's first call does."""
        start = time.perf_counter()
        shutil.rmtree(self.cfg_dir, ignore_errors=True)
        os.makedirs(self.cfg_dir)
        for name, text in self.files.items():
            with open(os.path.join(self.cfg_dir, name), "w") as fh:
                fh.write(text)
        warm = inputs.CliCase(("geom", "--preset", "quintic"), "geom", False, preset="quintic")
        code, out, err = self.ctx.run_child(["-m", "bgcert", *warm.argv])
        elapsed = time.perf_counter() - start
        checks.check_cli(warm, code, out, err)
        return elapsed

    def run(self, case):
        code, out, err = self.ctx.run_child(["-m", "bgcert", *case.argv])
        if code not in (0, 1, 2, 3) or "Traceback" in err:
            raise OpFailed(f"{' '.join(case.argv)}: exit {code}: {err[-300:]}")
        return code, out, err

    def run_in_process(self, case):
        """The same command through `bgcert.cli.main`, for the traced run."""
        cli = self.ctx.bgcert().cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(case.argv))
        return code, out.getvalue(), err.getvalue()

    def check(self, case, output) -> int:
        return checks.check_cli(case, *output)


class CliProcess(ChildWorkload):
    name = "cli-process"

    def make_cases(self):
        return inputs.cli_matrix(self.seed, self.cfg_dir)


class EnumerateLarge(ChildWorkload):
    name = "enumerate-large"

    def make_cases(self):
        cases = []
        for g, with_json in inputs.enumerate_degrees(self.seed):
            flags = ("enumerate", "--d", str(g.d), "--c2h", str(g.c2h))
            cases.append(inputs.CliCase(flags, "enumerate", False, geom=g))
            if with_json:
                cases.append(inputs.CliCase(flags + ("--json",), "enumerate", True, geom=g))
        return cases, {}

    def check(self, case, output) -> int:
        n = checks.check_cli(case, *output)
        # The JSON of a degree comes right after its text: the two must list the same rows.
        if case.json:
            rows = checks.json_rows(json.loads(output[1]))
            checks.expect((case.geom.d, rows) == self._text_rows, f"d={case.geom.d}: text and JSON rows differ")
            self._text_rows = None
        else:
            self._text_rows = (case.geom.d, checks.text_rows(output[1]))
        return n


# ---------------------------------------------------------------------------
# In-process workloads.


class InProcessWorkload:
    in_process = True

    def __init__(self, ctx: Context, seed: int):
        self.ctx, self.seed = ctx, seed
        self.bg = ctx.bgcert()

    def setup_once(self) -> float:
        """Time `import bgcert` plus building the inputs, in a fresh interpreter."""
        probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
        code, out, err = self.ctx.run_child([probe, self.name, str(self.seed), self.ctx.src])
        if code != 0:
            raise OpFailed(f"set-up probe exit {code}: {err[-300:]}")
        return float(out)


class CertifySweep(InProcessWorkload):
    """certify_theorem, certificate_to_jsonable and json.dumps on one seeded geometry."""

    name = "certify-sweep"

    def __init__(self, ctx, seed):
        super().__init__(ctx, seed)
        plain = inputs.certify_cases(seed)
        self.cases = list(zip(plain, inputs.build_certify_inputs(self.bg, plain)))

    def run(self, case):
        geom, bounds, mode = case[1]
        cert = self.bg.certifier.certify_theorem(geom, bounds, mode)
        return json.dumps(self.bg.certifier.certificate_to_jsonable(cert), indent=2)

    def check(self, case, output) -> int:
        c = case[0]
        g = checks.Geom(c.geom.d, c.geom.c2h, c.geom.known)
        checks.check_certificate_json(json.loads(output), g, c.mode, c.bounds)
        return checks.candidate_count(c.geom.d)


class TiltScan(InProcessWorkload):
    """Chern vectors, tilt slopes and slope windows for one seeded geometry."""

    name = "tilt-scan"

    def __init__(self, ctx, seed):
        super().__init__(ctx, seed)
        plain = inputs.tilt_cases(seed)
        self.cases = list(zip(plain, inputs.build_tilt_inputs(self.bg, plain)))

    def run(self, case):
        c, (geom, ts, shift) = case
        chern, stab, cert = self.bg.chern, self.bg.stability, self.bg.certifier
        d = geom.d
        cands = cert.enumerate_candidates(geom)
        classes = [chern.line_bundle_ch(d, n) for n in c.twists]
        classes += [chern.ideal_twist_point_ch(d, length) for length in c.lengths]
        classes += [chern.ideal_twist_curve_ch(d, beta, chi) for beta, chi in c.curves]
        classes += [chern.ChernVector(x.r, 1, x.ch2H, x.ch2H / (3 * x.r) - shift) for x in cands]
        rows = []
        for ch in classes:
            double = ch * 2
            nus = [(stab.tilt_slope_nu(geom, ch, t), stab.tilt_slope_nu(geom, double, t)) for t in ts]
            chern_classes = chern.chern_classes_from_ch(d, ch)
            rows.append((
                ch,
                nus,
                stab.nu_zero_tsq(geom, ch) if ch.ch2H > 0 else None,
                stab.bg_discriminant(geom, ch),
                chern.euler_characteristic(geom, ch),
                chern.ch_from_chern_classes(d, ch.ch0, *chern_classes),
                chern.dual_ch(chern.dual_ch(ch)),
                cert.check_ineq_1_2(ch),
            ))
        sub = chern.line_bundle_ch(d, -1)
        sandwiches = [stab.sandwich_check(geom, sub, ch, t).ordered for ch in classes[-len(cands):] for t in ts]
        windows = [
            (r, stab.lemma1_slope_window(r), stab.lemma2_slope_window(r) if r >= 2 else [])
            for r in sorted({x.r for x in cands})
        ]
        return cands, rows, sandwiches, windows

    def check(self, case, output) -> int:
        checks.check_tilt(case[0], tilt_plain(output))
        return len(output[0])

    def fingerprint(self, output):
        return digest(tilt_plain(output))  # the program's objects need not have a stable repr


def tilt_plain(output):
    """The program's objects as plain numbers for the checker."""
    cands, rows, sandwiches, windows = output

    def vec(ch):
        return (ch.ch0, ch.c1, ch.ch2H, ch.ch3)

    def ext(x):
        return x if isinstance(x, Fraction) else repr(x)  # the +inf sentinel reads "+inf"

    plain_rows = [
        (vec(ch), [(ext(a), ext(b)) for a, b in nus], tsq, bg, chi, vec(rt), vec(dd),
         (ineq.lhs, ineq.rhs, ineq.holds, ineq.equality))
        for ch, nus, tsq, bg, chi, rt, dd, ineq in rows
    ]
    return [(x.r, x.c2H, x.ch2H) for x in cands], plain_rows, sandwiches, windows


def digest(output) -> int:
    """What a pass keeps of an output to compare its repeats with: a hash, not the
    output itself, so the harness adds little to the peak RSS it measures. (The
    built-in hash, since importing hashlib alone adds about 4 MB of OpenSSL to the RSS.)"""
    return hash(repr(output))


WORKLOADS = {w.name: w for w in (CliProcess, CertifySweep, EnumerateLarge, TiltScan)}


# ---------------------------------------------------------------------------
# The closed loop.


class Pass:
    """Whole rounds of a workload for about `seconds`, checking every output.

    The first output of each operation goes through the independent checks;
    every repeat of it in a later round (or a later pass) must be identical
    to the first. A pass asked for `setups` set-up samples takes them between
    operations, evenly over its length, so that they see the same phases of
    the host's speed as the operations do; their time does not count towards
    `seconds`.
    """

    def __init__(self, workload, seconds: float, call=None, reference: "Pass | None" = None,
                 setups: int = 0):
        self.w = workload
        self.call = call or workload.run
        self.fingerprint = getattr(workload, "fingerprint", digest)
        self.seconds = seconds
        self.samples = array.array("d")  # seconds per completed operation; compact, so the
        # harness's own memory barely grows with the number of operations
        self.setups_wanted = setups
        self.setups = array.array("d")  # seconds per set-up sample
        self.candidates = 0
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.errors: list[str] = []
        # Fingerprint and candidate count of each operation's checked output. A pass
        # given a reference must reproduce that pass's outputs instead of re-checking.
        self.first: dict[int, int] = dict(reference.first) if reference else {}
        self.counts: dict[int, int] = dict(reference.counts) if reference else {}

    def _set_up_if_due(self, elapsed: float) -> float:
        """Take the set-up samples due by `elapsed` seconds of operations; their time."""
        start = time.perf_counter()
        n = self.setups_wanted
        while len(self.setups) < n and len(self.setups) <= n * elapsed / self.seconds:
            self.setups.append(self.w.setup_once())
        return time.perf_counter() - start

    def run(self) -> "Pass":
        first, counts = self.first, self.counts
        start = time.perf_counter()
        paused = 0.0  # time spent on set-up samples
        while True:
            for i, op in enumerate(self.w.cases):
                if len(self.setups) < self.setups_wanted:
                    paused += self._set_up_if_due(time.perf_counter() - start - paused)
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    out = self.call(op)
                except Exception as exc:  # a crash or a timeout of the program: count it, keep going
                    self.failed += 1
                    self.errors.append(f"failed: {type(exc).__name__}: {exc}")
                    continue
                self.samples.append(time.perf_counter() - t0)
                if i not in first:
                    try:
                        counts[i] = self.w.check(op, out)
                    except Exception as exc:  # an output the checks cannot even parse is wrong too
                        counts[i] = 0
                        self.errors.append(f"wrong: {type(exc).__name__}: {exc}")
                    first[i] = self.fingerprint(out)
                elif self.fingerprint(out) != first[i]:
                    self.errors.append(f"wrong: operation {i} gave a different output on repeat")
                self.candidates += counts[i]
            self.rounds += 1
            if time.perf_counter() - start - paused >= self.seconds:
                self._set_up_if_due(self.seconds)  # any the last, long operations overtook
                return self

    @property
    def busy_s(self) -> float:
        return sum(self.samples)

    @property
    def ops_per_s(self) -> float:
        return len(self.samples) / self.busy_s
