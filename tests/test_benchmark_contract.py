"""What the benchmark in perfbench/ relies on in the program.

perfbench/ is loaded from its files and left unchanged. A rename or deletion
in src/ that the benchmark does not see would make a per-layer metric read 0
or fail every certify-sweep operation; these tests fail first.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import bgcert
import bgcert.cli  # noqa: F401  (span_targets reads bgcert.cli)
from bgcert import certifier

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks, inputs, tracing = _load("checks"), _load("inputs"), _load("tracing")


def _live(owner, attr):
    # The tracer wraps a class attribute only where the class itself defines it.
    return attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)


def test_every_traced_layer_has_a_live_target():
    # Per layer, not per target: some targets (certifier.format_rational) are already dead.
    dead = [layer for layer, targets in tracing.span_targets(bgcert).items()
            if not any(_live(owner, attr) for owner, attr in targets)]
    assert dead == []
    assert _live(bgcert.chern.ChernVector, "__init__")  # the chern.ChernVector.calls counter


@pytest.mark.parametrize("seed", [1, 2])
def test_certify_sweep_cases_pass_the_benchmark_checker(seed):
    cases = inputs.certify_cases(seed)[:120]
    for case, (geom, bounds, mode) in zip(cases, inputs.build_certify_inputs(bgcert, cases)):
        cert = certifier.certify_theorem(geom, bounds, mode)
        report = json.loads(json.dumps(certifier.certificate_to_jsonable(cert)))
        g = checks.Geom(case.geom.d, case.geom.c2h, case.geom.known)
        checks.check_certificate_json(report, g, case.mode, case.bounds)


def test_every_result_count_takes_the_size_of_a_live_result():
    # The tracer applies each layer's size function (len) to what its targets return: a
    # target that returned an iterator would fail every traced run, so it fails here first.
    quintic = bgcert.geometry.from_preset("quintic")
    cert = certifier.certificate_to_jsonable(certifier.certify_theorem(quintic))
    argument = {"certifier.case2_check": quintic, "certifier.enumerate_candidates": quintic,
                "serialize.json_dumps": cert}
    assert set(tracing.RESULT_COUNTS) == set(argument)
    targets = tracing.span_targets(bgcert)
    for layer, (_, size) in tracing.RESULT_COUNTS.items():
        live = [getattr(owner, attr) for owner, attr in targets[layer] if _live(owner, attr)]
        assert live, layer
        for target in live:
            assert size(target(argument[layer])) > 0, (layer, target)
