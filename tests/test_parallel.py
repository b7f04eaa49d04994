"""Tests for the parallel solver-execution subsystem (:mod:`repro.parallel`).

Covers the backend registry and the two built-in backends (task
ordering, exception propagation, one shared pool under concurrent first
use), the determinism contract — the ``thread`` backend produces
bit-identical fleet reports and replay periods to ``serial`` on the
12-tenant × 4-machine example and under every placement strategy —
backend/jobs provenance in the reports, and the simulated-RPC what-if
estimator the scaling benchmark builds on.
"""

import threading
import time
from concurrent import futures

import pytest

from repro.api import Advisor
from repro.api.strategies import COST_FUNCTIONS
from repro.core.enumerator import GreedyConfigurationEnumerator
from repro.exceptions import ConfigurationError
from repro.experiments.fleet import build_fleet_problem
from repro.fleet import PLACEMENTS, FleetAdvisor, FleetProblem, FleetReport
from repro.parallel import (
    BACKENDS,
    SerialBackend,
    SimulatedRpcWhatIfEstimator,
    ThreadBackend,
    resolve_backend,
)
from repro.traces import FleetTraceReplayer, ReplayReport, TraceReplayer
from repro.traces.generators import diurnal_trace

#: Coarse grid keeps every solve fast, calibration included.
FAST_FLEET_CALIBRATION = {"cpu_shares": [0.25, 0.5, 0.75, 1.0]}


def fast_fleet(n_tenants=12, n_machines=4, **overrides) -> FleetProblem:
    """The 12-tenant × 4-machine example with a fast calibration grid."""
    problem = build_fleet_problem(n_tenants=n_tenants, n_machines=n_machines)
    data = problem.to_dict()
    data["calibration"] = dict(FAST_FLEET_CALIBRATION)
    data.update(overrides)
    return FleetProblem.from_dict(data)


def small_trace_and_fleet(n_tenants=4, n_machines=2, n_periods=3):
    """A small CPU-only fleet plus a diurnal trace over its tenants."""
    tenants = [
        {
            "name": f"t{i + 1}",
            "engine": "postgresql" if i % 2 == 0 else "db2",
            "statements": [["q17" if i % 2 == 0 else "q18", 1.0 + i]],
            "gain_factor": 1.0 + i % 3,
        }
        for i in range(n_tenants)
    ]
    fleet = FleetProblem.from_dict(
        {
            "name": "parallel-replay-fleet",
            "resources": ["cpu"],
            "tenants": tenants,
            "machines": [{"name": f"m{i + 1}"} for i in range(n_machines)],
            "calibration": dict(FAST_FLEET_CALIBRATION),
        }
    )
    specs = [{k: v for k, v in t.items() if k != "gain_factor"} for t in tenants]
    return diurnal_trace(specs, n_periods=n_periods), fleet


# ----------------------------------------------------------------------
# Registry and backend mechanics
# ----------------------------------------------------------------------
class TestBackends:
    def test_registry_names(self):
        assert sorted(BACKENDS.names()) == ["serial", "thread"]

    def test_resolve_by_name_and_default(self):
        assert isinstance(resolve_backend(None), SerialBackend)
        assert isinstance(resolve_backend("thread", jobs=2), ThreadBackend)
        assert resolve_backend("thread", jobs=2).jobs == 2

    @pytest.mark.parametrize("name", ["process", "asyncio"])
    def test_removed_backend_names_are_rejected(self, name):
        with pytest.raises(ConfigurationError) as excinfo:
            resolve_backend(name)
        message = str(excinfo.value)
        assert repr(name) in message
        assert "serial" in message and "thread" in message

    def test_resolve_rejects_jobs_with_instance(self):
        with pytest.raises(ConfigurationError):
            resolve_backend(SerialBackend(), jobs=2)

    def test_resolve_rejects_non_backend(self):
        with pytest.raises(ConfigurationError):
            resolve_backend(object())  # type: ignore[arg-type]

    def test_unknown_name_is_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("gpu")

    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ThreadBackend(jobs=0)

    def test_serial_rejects_explicit_parallel_jobs(self):
        # jobs=8 on the serial backend would be a silent no-op; fail loudly.
        with pytest.raises(ConfigurationError, match="one task at a time"):
            SerialBackend(jobs=8)
        assert SerialBackend(jobs=1).jobs == 1

    def test_serial_runs_in_order(self):
        seen = []

        def make(i):
            def call():
                seen.append(i)
                return i * i

            return call

        backend = SerialBackend()
        assert backend.run([make(i) for i in range(5)]) == [0, 1, 4, 9, 16]
        assert seen == [0, 1, 2, 3, 4]

    def test_thread_preserves_task_order(self):
        with ThreadBackend(jobs=4) as backend:
            tasks = [lambda i=i: i * i for i in range(20)]
            assert backend.run(tasks) == [i * i for i in range(20)]

    def test_thread_propagates_exceptions(self):
        def boom():
            raise ValueError("solver exploded")

        with ThreadBackend(jobs=2) as backend:
            with pytest.raises(ValueError, match="solver exploded"):
                backend.run([boom, lambda: 1])

    def test_thread_pool_is_built_once_under_concurrent_first_use(
        self, monkeypatch
    ):
        # Request threads of the serving tier share one backend: racing
        # first runs must build a single pool, the one close() shuts down.
        built = []
        real_executor = futures.ThreadPoolExecutor

        def counting_executor(*args, **kwargs):
            time.sleep(0.05)  # widen the check-then-build window
            built.append(real_executor(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(
            "repro.parallel.backends.ThreadPoolExecutor", counting_executor
        )
        backend = ThreadBackend(jobs=2)
        n_callers = 6
        barrier = threading.Barrier(n_callers)
        results = [None] * n_callers

        def caller(index):
            barrier.wait()
            results[index] = backend.run([lambda: index, lambda: -index])

        callers = [
            threading.Thread(target=caller, args=(index,))
            for index in range(n_callers)
        ]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=30)
        backend.close()
        assert results == [[index, -index] for index in range(n_callers)]
        assert len(built) == 1
        assert built[0]._shutdown


# ----------------------------------------------------------------------
# Determinism: parallel backends reproduce the serial answer bit for bit
# ----------------------------------------------------------------------
class TestFleetDeterminism:
    @pytest.fixture(scope="class")
    def problem(self):
        return fast_fleet()

    @pytest.fixture(scope="class")
    def serial_report(self, problem):
        return FleetAdvisor(delta=0.25).recommend(problem)

    def test_serial_provenance(self, serial_report):
        assert serial_report.backend == "serial"
        assert serial_report.jobs == 1

    def test_thread_backend_is_bit_identical(self, problem, serial_report):
        threaded = FleetAdvisor(delta=0.25, backend="thread", jobs=4).recommend(
            problem
        )
        assert threaded.backend == "thread"
        assert threaded.jobs == 4
        assert threaded.canonical_dict() == serial_report.canonical_dict()

    @pytest.mark.parametrize("strategy", PLACEMENTS.names())
    def test_every_placement_is_backend_invariant(self, strategy):
        problem = fast_fleet(n_tenants=5, n_machines=3)
        serial = FleetAdvisor(delta=0.25).recommend(problem, placement=strategy)
        advisor = FleetAdvisor(delta=0.25, backend="thread", jobs=4)
        try:
            threaded = advisor.recommend(problem, placement=strategy)
        finally:
            advisor.backend.close()
        assert threaded.canonical_dict() == serial.canonical_dict()

    def test_per_call_backend_override(self, problem, serial_report):
        advisor = FleetAdvisor(delta=0.25)
        threaded = advisor.recommend(problem, backend="thread", jobs=2)
        assert threaded.backend == "thread"
        assert threaded.canonical_dict() == serial_report.canonical_dict()
        # The advisor-level default is untouched by the per-call override.
        assert advisor.recommend(problem).backend == "serial"

    def test_incremental_replacement_is_backend_invariant(self, problem):
        serial_advisor = FleetAdvisor(delta=0.25)
        base = serial_advisor.recommend(problem)
        moved = [problem.tenants[0].name, problem.tenants[5].name]
        serial = serial_advisor.recommend_incremental(problem, base, moved=moved)
        threaded = serial_advisor.recommend_incremental(
            problem, base, moved=moved, backend="thread", jobs=4
        )
        assert threaded.canonical_dict() == serial.canonical_dict()

    def test_canonical_dict_round_trips_through_json(self, serial_report):
        rebuilt = FleetReport.from_json(serial_report.to_json())
        assert rebuilt.canonical_dict() == serial_report.canonical_dict()
        assert rebuilt.backend == serial_report.backend

    def test_portable_config_rejects_unregistered_cost_function(self):
        # Advisor validates cost-function names lazily; the solve-memo key
        # built from this config must not treat a typo as a valid name.
        with pytest.raises(ConfigurationError, match="not a registered"):
            Advisor(cost_function="what-if-typo").portable_config()

    def test_jobs_only_override_requires_registry_backend(self, problem):
        class CustomBackend(SerialBackend):
            name = "custom-rpc"

        advisor = FleetAdvisor(delta=0.25, backend=CustomBackend())
        with pytest.raises(ConfigurationError, match="custom backend"):
            advisor.recommend(problem, jobs=8)

class TestReplayDeterminism:
    @pytest.fixture(scope="class")
    def trace_and_fleet(self):
        return small_trace_and_fleet()

    @pytest.mark.parametrize("policy", ["dynamic", "static"])
    def test_fleet_replay_thread_matches_serial(self, trace_and_fleet, policy):
        trace, fleet = trace_and_fleet
        serial = FleetTraceReplayer(trace, fleet, policy=policy).replay()
        threaded = FleetTraceReplayer(
            trace, fleet, policy=policy, backend="thread", jobs=2
        ).replay()
        assert threaded.backend == "thread"
        assert threaded.canonical_dict() == serial.canonical_dict()
        assert threaded.cumulative_actual_cost == serial.cumulative_actual_cost

    @pytest.mark.parametrize("strategy", PLACEMENTS.names())
    def test_fleet_replay_is_backend_invariant_for_every_placement(
        self, trace_and_fleet, strategy
    ):
        trace, fleet = trace_and_fleet
        serial = FleetTraceReplayer(
            trace, fleet, advisor=FleetAdvisor(placement=strategy)
        ).replay()
        advisor = FleetAdvisor(placement=strategy, backend="thread", jobs=2)
        try:
            threaded = FleetTraceReplayer(trace, fleet, advisor=advisor).replay()
        finally:
            advisor.backend.close()
        assert threaded.canonical_dict() == serial.canonical_dict()

    def test_single_machine_static_replay_fans_out(self, trace_and_fleet):
        trace, _fleet = trace_and_fleet
        serial = TraceReplayer(trace, policy="static").replay()
        threaded = TraceReplayer(
            trace, policy="static", backend="thread", jobs=2
        ).replay()
        assert threaded.canonical_dict() == serial.canonical_dict()

    def test_replayer_rejects_backend_plus_advisor(self, trace_and_fleet):
        trace, fleet = trace_and_fleet
        with pytest.raises(ConfigurationError):
            FleetTraceReplayer(
                trace, fleet, advisor=FleetAdvisor(), backend="thread"
            )

    def test_replay_report_round_trips_backend(self, trace_and_fleet):
        trace, fleet = trace_and_fleet
        report = FleetTraceReplayer(
            trace, fleet, backend="thread", jobs=2
        ).replay()
        rebuilt = ReplayReport.from_json(report.to_json())
        assert rebuilt.backend == "thread"
        assert rebuilt.jobs == 2
        assert rebuilt.canonical_dict() == report.canonical_dict()


# ----------------------------------------------------------------------
# Simulated-RPC what-if estimator (the scaling benchmark's cost function)
# ----------------------------------------------------------------------
class TestSimulatedRpc:
    def test_registered_as_cost_function(self):
        assert "what-if-rpc" in COST_FUNCTIONS

    def test_values_match_plain_what_if(self):
        problem = fast_fleet(n_tenants=2, n_machines=1)
        plain = FleetAdvisor(delta=0.25).recommend(problem)
        via_rpc = FleetAdvisor(delta=0.25, cost_function="what-if-rpc").recommend(
            problem
        )
        # Latency simulation must not change a single number — only the
        # provenance (which names the cost-function strategy) differs.
        assert via_rpc.placement == plain.placement
        assert via_rpc.total_cost == plain.total_cost
        assert via_rpc.total_weighted_cost == plain.total_weighted_cost

    def test_shares_the_what_if_cache_namespace(self):
        from repro.core.cost_estimator import WhatIfCostEstimator

        assert (
            SimulatedRpcWhatIfEstimator.cache_namespace
            == WhatIfCostEstimator.__name__
        )
