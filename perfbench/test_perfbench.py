"""Tests of the benchmark's own code: inputs, layer wrappers, verdicts.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import itertools
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import perf_inputs  # noqa: E402
import perf_stats  # noqa: E402
import run  # noqa: E402
from perf_layers import LayerTracer, install_repro_layers, layer_metrics  # noqa: E402

GENERATORS = [
    perf_inputs.fleet_exact_document,
    perf_inputs.advisor_grid_document,
    perf_inputs.serve_novel_document,
    lambda seed, index: perf_inputs.serve_warm_document(seed),
]


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("generate", GENERATORS)
def test_documents_are_a_function_of_seed_and_index(generate):
    for seed, index in itertools.product((0, 1, 7), (0, 3)):
        first = json.dumps(generate(seed, index), sort_keys=True)
        random.seed(12345)  # the global stream must not matter
        assert json.dumps(generate(seed, index), sort_keys=True) == first
    assert generate(1, 0) != generate(2, 0)


def test_fleet_documents_relabel_the_fixture():
    from repro.experiments.fleet import build_fleet_problem

    def profiles(document):
        return sorted(
            json.dumps([t["engine"], t["statements"], t["gain_factor"]])
            for t in document["tenants"]
        )

    def machines(document):
        return sorted(
            (m["name"], m["cpu_work_units_per_second"], m["memory_mb"])
            for m in document["machines"]
        )

    fixture = build_fleet_problem(12, 4).to_dict()
    fixture["tenants"] = [
        {**t, "statements": [list(s) for s in t["statements"]]} for t in fixture["tenants"]
    ]
    for seed in range(5):
        document = perf_inputs.fleet_exact_document(seed, 0)
        assert machines(document) == machines(fixture)
        assert profiles(document) == profiles(fixture)


def test_documents_parse_as_program_inputs():
    from repro.api import Scenario
    from repro.fleet import FleetProblem

    assert FleetProblem.from_dict(perf_inputs.fleet_exact_document(1, 0)).n_tenants == 12
    assert FleetProblem.from_dict(perf_inputs.serve_novel_document(1, 0)).n_machines == 2
    assert len(Scenario.from_dict(perf_inputs.advisor_grid_document(1, 0)).tenants) == 6
    assert len(Scenario.from_dict(perf_inputs.serve_warm_document(1)).tenants) == 2


# ----------------------------------------------------------------------
# Layer wrappers
# ----------------------------------------------------------------------
class FakeClock:
    """Advances one second per reading, so every duration is exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class Outer:
    def run(self, inner, depth):
        if depth:
            return self.run(inner, depth - 1)  # nested call of the same layer
        return inner.work() + inner.work()


class Inner:
    def work(self):
        return 1


def test_nested_calls_of_a_layer_are_counted_once():
    tracer = LayerTracer(clock=FakeClock())
    tracer.wrap(Outer, "run", "outer")
    tracer.wrap(Inner, "work", "inner")
    try:
        assert Outer().run(Inner(), depth=3) == 2
    finally:
        assert tracer.uninstall()
    outer, inner = tracer.layers["outer"], tracer.layers["inner"]
    assert outer.calls == 1 and inner.calls == 2
    # Clock readings: outer start 1, inner 2-3, inner 4-5, outer end 6.
    assert inner.seconds == 2.0 and inner.self_seconds == 2.0
    assert outer.seconds == 5.0 and outer.self_seconds == 3.0
    assert tracer.top_seconds == 5.0


def test_self_time_never_exceeds_inclusive_time():
    rng = random.Random(3)

    class Node:
        def a(self, depth):
            return self._children(depth)

        def b(self, depth):
            return self._children(depth)

        def c(self, depth):
            return self._children(depth)

        def _children(self, depth):
            for _ in range(rng.randrange(3) if depth else 0):
                getattr(self, rng.choice("abc"))(depth - 1)

    tracer = LayerTracer()
    for name in "abc":
        tracer.wrap(Node, name, name)
    try:
        for _ in range(50):
            Node().a(4)
    finally:
        tracer.uninstall()
    for stats in tracer.layers.values():
        assert 0.0 <= stats.self_seconds <= stats.seconds + 1e-12
    assert tracer.top_seconds <= sum(s.seconds for s in tracer.layers.values()) + 1e-12


def test_uninstall_restores_the_originals_even_after_an_error():
    original = Inner.__dict__["work"]

    def fail(self):
        raise ValueError("boom")

    Inner.fail = fail
    try:
        with LayerTracer() as tracer:
            tracer.wrap(Inner, "work", "inner")
            tracer.wrap(Inner, "fail", "inner")
            with pytest.raises(ValueError):
                Inner().fail()
            assert Inner.__dict__["work"] is not original
        assert Inner.__dict__["work"] is original
        assert Inner.__dict__["fail"] is fail
        assert tracer.layers["inner"].calls == 1
    finally:
        del Inner.fail


def test_repro_layers_leave_the_answer_byte_identical_and_restore():
    from repro.api import Advisor, Scenario
    from repro.api.builder import calibrate_engine
    from repro.dbms.interface import DatabaseEngine

    document = perf_inputs.serve_warm_document(5)

    def answer():
        scenario = Scenario.from_dict(document)
        report = Advisor(**scenario.advisor).recommend(scenario.build())
        return json.dumps(report.canonical_dict(), sort_keys=True)

    estimate_query = DatabaseEngine.__dict__["estimate_query"]
    plain = answer()
    tracer = install_repro_layers(LayerTracer())
    try:
        traced = answer()
    finally:
        assert tracer.uninstall()
    assert traced == plain
    assert DatabaseEngine.__dict__["estimate_query"] is estimate_query
    import repro.api.builder

    assert repro.api.builder.calibrate_engine is calibrate_engine
    metrics = layer_metrics(tracer)
    assert metrics["advisor.recommend.calls"] == 1
    assert metrics["dbms.estimate_query.calls"] >= metrics["cost_cache.evaluations"] > 0
    assert metrics["calibration.calibrate_s"] > 0
    assert metrics["advisor.recommend.self_s"] <= metrics["advisor.recommend.s"]


# ----------------------------------------------------------------------
# Verdicts and the BENCHMARK.json contract
# ----------------------------------------------------------------------
def test_verdicts_follow_the_bound_and_the_spread():
    base = [1.0, 1.01, 0.99, 1.0, 1.02]
    verdict = perf_stats.verdict
    assert verdict(base, [0.5, 0.51, 0.49, 0.5, 0.5], "lower", 0.1)["verdict"] == "improved"
    assert verdict(base, [1.5, 1.51, 1.49, 1.5, 1.5], "lower", 0.1)["verdict"] == "worse"
    assert verdict(base, [1.01, 1.0, 0.99, 1.02, 1.0], "lower", 0.1)["verdict"] == "unchanged"
    assert verdict(base, [0.5, 1.5, 0.7, 1.4, 1.0], "lower", 0.1)["verdict"] == "unresolved"
    # Higher-is-better metrics flip the sign.
    assert verdict(base, [1.5, 1.51, 1.49, 1.5, 1.5], "higher", 0.1)["verdict"] == "improved"


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    serve_why = next(w["why"] for w in spec["workloads"] if w["name"] == "serve-mixed")
    for _, rate, _ in run.SERVE_PHASES:
        assert f"{rate:g} " in serve_why
    assert f"{run.LATENCY_LIMIT_S * 1000:g} ms" in serve_why
    assert f"1 in {run.NOVEL_EVERY}" in serve_why
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    per_layer = {m["name"] for m in spec["per_layer"]}
    tracer = LayerTracer()
    assert set(layer_metrics(tracer)) <= per_layer
