"""The traced run: per-layer times, counts and memory, from outside the program.

Spans are recorded by replacing attributes of the program's modules and
classes with timing wrappers for the length of a pass, then putting the
originals back; nothing under `src/` is changed. A wrapper is installed in
the namespace the caller looks the name up in (`cli.certify_theorem` as well
as `certifier.certify_theorem`). An attribute the program no longer has is
skipped, and its metric reads 0.

Each layer's busy time counts only the outermost of nested spans of that
layer. A span's self time is its duration minus its direct children's.
Memory peaks come from a separate pass in which `tracemalloc` runs only
inside the outermost memory-tracked call, so its cost does not distort the
times and stays off the rest of the operation. Import times come from `python -X importtime`.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict
from fractions import Fraction

IMPORT_PROBES = 5


def span_targets(bg):
    """metric layer -> [(owner, attribute)] for every span the trace records."""
    cli, certifier, chern, stability, rationals = bg.cli, bg.certifier, bg.chern, bg.stability, bg.rationals
    vec = chern.ChernVector
    return {
        "cli.build_parser": [(cli, "build_parser")],
        "cli.parse_args": [(argparse.ArgumentParser, "parse_args")],
        "cli.command": [(cli, n) for n in ("cmd_geom", "cmd_enumerate", "cmd_certify", "cmd_eval")],
        "cli.render": [(cli, n) for n in ("render_geom", "render_enumerate", "render_certificate", "render_eval")],
        "cli.report": [(cli, n) for n in ("build_geom_report", "build_enumerate_report",
                                          "build_certify_report", "build_eval_report")],
        "geometry.resolve": [(cli, "_resolve_geometry")],
        "geometry.load_geometry_config": [(cli, "load_geometry_config")],
        "certifier.certify_theorem": [(certifier, "certify_theorem"), (cli, "certify_theorem")],
        "certifier.hypothesis": [(certifier, "_resolve_mode")],
        "certifier.case1_check": [(certifier, "case1_check")],
        "certifier.case2_check": [(certifier, "case2_check")],
        "certifier.case3": [(certifier, "_case3_trace")],
        "certifier.enumerate_candidates": [(certifier, "enumerate_candidates"), (cli, "enumerate_candidates")],
        "certifier.certificate_to_jsonable": [(certifier, "certificate_to_jsonable"),
                                              (cli, "certificate_to_jsonable")],
        "serialize.json_dumps": [(json, "dumps")],
        "rationals.format_rational": [(m, "format_rational") for m in (rationals, certifier, chern, cli)],
        "chern.ops": [(vec, n) for n in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__")]
        + [(chern, n) for n in ("line_bundle_ch", "ideal_twist_point_ch", "ideal_twist_curve_ch",
                                "extend_by_trivial", "quotient_by_trivial", "dual_ch", "triangle_ch",
                                "chern_classes_from_ch", "ch_from_chern_classes", "euler_characteristic")]
        + [(cli, "euler_characteristic")],
        "stability.tilt_slope_nu": [(stability, "tilt_slope_nu"), (cli, "tilt_slope_nu")],
        "stability.sandwich_check": [(stability, "sandwich_check")],
        "stability.bg_discriminant": [(stability, "bg_discriminant"), (cli, "bg_discriminant")],
        "stability.slope_windows": [(stability, "lemma1_slope_window"), (stability, "lemma2_slope_window")],
    }


# Result sizes recorded at a span's end: layer -> (counter, size of the result).
RESULT_COUNTS = {
    "certifier.case2_check": ("certifier.case2_rows", len),
    "certifier.enumerate_candidates": ("certifier.candidates", len),
    "serialize.json_dumps": ("serialize.output_bytes", len),
}
MEMORY_LAYERS = ("certifier.enumerate_candidates", "cli.report", "serialize.json_dumps")


class Tracer:
    def __init__(self, bg, memory: bool = False):
        self.bg = bg
        self.memory = memory
        self.busy: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.peak: dict[str, int] = defaultdict(int)
        self.active = False  # record only inside an operation, never during its checks
        self._stack: list = []
        self._mem_stack: list = []
        self._depth: Counter = Counter()
        self._restore: list = []

    # -- installing and removing wrappers ---------------------------------

    def _replace(self, owner, attr, make):
        if isinstance(owner, type):
            if attr not in vars(owner):
                return
            original = vars(owner)[attr]
        elif hasattr(owner, attr):
            original = getattr(owner, attr)
        else:
            return
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> "Tracer":
        for layer, targets in span_targets(self.bg).items():
            if self.memory and layer not in MEMORY_LAYERS:
                continue
            for owner, attr in targets:
                self._replace(owner, attr, lambda f, layer=layer: self._span(layer, f))
        if not self.memory:
            self._replace(Fraction, "__new__",
                          lambda f: staticmethod(self._counter("rationals.fraction_new", f.__func__)))
            self._replace(self.bg.chern.ChernVector, "__init__",
                          lambda f: self._counter("chern.ChernVector", f))
        return self

    def remove(self) -> None:
        if tracemalloc.is_tracing():  # left on by an exception inside a tracked call
            tracemalloc.stop()
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()

    def around(self, call):
        """call, traced while it runs."""

        def traced_call(op):
            self.active = True
            try:
                return call(op)
            finally:
                self.active = False

        return traced_call

    def _counter(self, name, f):
        calls = self.calls

        def wrapper(*args, **kwargs):
            if self.active:
                calls[name] += 1
            return f(*args, **kwargs)

        return wrapper

    def _span(self, layer, f):
        count = RESULT_COUNTS.get(layer)
        tracked = self.memory and layer in MEMORY_LAYERS
        stack, depth = self._stack, self._depth

        def wrapper(*args, **kwargs):
            if not self.active:
                return f(*args, **kwargs)
            if tracked:
                self._mem_enter()
            frame = [layer, 0.0]  # layer, time covered by direct children
            stack.append(frame)
            depth[layer] += 1
            start = time.perf_counter()
            try:
                result = f(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                depth[layer] -= 1
                if not depth[layer]:
                    self.busy[layer] += duration
                self.self_s[layer] += duration - frame[1]
                self.calls[layer] += 1
                if stack:
                    stack[-1][1] += duration
                if tracked:
                    self._mem_exit(layer)
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result

        return wrapper

    # -- tracemalloc peaks of nested spans ---------------------------------

    def _mem_enter(self):
        if not self._mem_stack:
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._mem_stack:
            top = self._mem_stack[-1]
            top[1] = max(top[1], peak)
        tracemalloc.reset_peak()
        self._mem_stack.append([current, current])  # base, highest absolute seen

    def _mem_exit(self, layer):
        frame = self._mem_stack.pop()
        frame[1] = max(frame[1], tracemalloc.get_traced_memory()[1])
        self.peak[layer] = max(self.peak[layer], frame[1] - frame[0])
        if self._mem_stack:
            parent = self._mem_stack[-1]
            parent[1] = max(parent[1], frame[1])
        else:
            tracemalloc.stop()


# ---------------------------------------------------------------------------
# Import times.


def import_times(ctx) -> dict[str, float]:
    """Medians over fresh interpreters of `-X importtime -c "import bgcert.cli"`, in ms."""
    samples = defaultdict(list)
    for _ in range(IMPORT_PROBES):
        code, _, err = ctx.run_child(["-X", "importtime", "-c", "import bgcert.cli"])
        if code != 0:
            raise RuntimeError(f"import probe exit {code}: {err[-300:]}")
        total = own = 0
        for line in err.splitlines():
            m = re.fullmatch(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)", line)
            if not m or not m[4].startswith("bgcert"):
                continue
            own += int(m[1])
            if len(m[3]) == 1:  # top level: the cumulative time of the import statement
                total += int(m[2])
        samples["import.bgcert_cli_ms"].append(total / 1000)
        samples["import.bgcert_self_ms"].append(own / 1000)
        samples["import.stdlib_ms"].append((total - own) / 1000)
    return {k: statistics.median(v) for k, v in samples.items()}


# ---------------------------------------------------------------------------
# The per-layer metrics of a traced run.

PER_LAYER = [
    ("import.bgcert_cli_ms", "ms"),
    ("import.bgcert_self_ms", "ms"),
    ("import.stdlib_ms", "ms"),
    ("cli.build_parser.ms", "ms"),
    ("cli.parse_args.ms", "ms"),
    ("cli.command.ms", "ms"),
    ("cli.render.ms", "ms"),
    ("cli.output_bytes", "B"),
    ("geometry.resolve.ms", "ms"),
    ("geometry.load_geometry_config.ms", "ms"),
    ("certifier.certify_theorem.ms", "ms"),
    ("certifier.certify_theorem.self_ms", "ms"),
    ("certifier.hypothesis.ms", "ms"),
    ("certifier.case1_check.ms", "ms"),
    ("certifier.case2_check.ms", "ms"),
    ("certifier.case2_rows", "count"),
    ("certifier.case3.ms", "ms"),
    ("certifier.enumerate_candidates.ms", "ms"),
    ("certifier.candidates", "count"),
    ("certifier.certificate_to_jsonable.ms", "ms"),
    ("serialize.json_dumps.ms", "ms"),
    ("serialize.output_bytes", "B"),
    ("certifier.enumerate_candidates.peak_mb", "MB"),
    ("cli.report.peak_mb", "MB"),
    ("serialize.json_dumps.peak_mb", "MB"),
    ("rationals.fraction_new.calls", "count"),
    ("rationals.format_rational.calls", "count"),
    ("rationals.format_rational.ms", "ms"),
    ("chern.ChernVector.calls", "count"),
    ("chern.ops.ms", "ms"),
    ("stability.tilt_slope_nu.calls", "count"),
    ("stability.tilt_slope_nu.ms", "ms"),
    ("stability.sandwich_check.ms", "ms"),
    ("stability.bg_discriminant.ms", "ms"),
    ("stability.slope_windows.ms", "ms"),
]


def per_layer(timing: Tracer, n_ops: int, memory: Tracer, imports: dict, output_bytes: int) -> dict:
    """Every per-layer metric, per operation of the traced pass."""
    values = dict(imports)
    for name, unit in PER_LAYER:
        if name in values:
            continue
        layer, _, kind = name.rpartition(".")
        if kind == "ms":
            total = timing.busy[layer] * 1000
        elif kind == "self_ms":
            total = timing.self_s[layer] * 1000
        elif kind == "calls":
            total = timing.calls[layer]
        elif kind == "peak_mb":
            values[name] = memory.peak[layer] / 2 ** 20  # the largest single call, not a mean
            continue
        elif name == "cli.output_bytes":
            total = output_bytes
        else:
            total = timing.counts[name]
        values[name] = total / n_ops
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
