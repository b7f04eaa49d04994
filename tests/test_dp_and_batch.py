"""Tests for the DP-exact search engine and the batched cost API.

The dynamic program must return the same optimum as brute-force
:class:`~repro.core.enumerator.ExhaustiveSearch` on every problem both can
solve (checked property-based over random small problems, with and without
degradation limits), and ``cost_many`` must agree with repeated ``cost``
calls — including the ``call_count`` / cache-statistics accounting.
"""

from __future__ import annotations

import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Advisor, CachedCostFunction, CostCache, ENUMERATORS
from repro.core.cost_estimator import (
    ActualCostFunction,
    CostFunction,
    WhatIfCostEstimator,
)
from repro.core.enumerator import (
    DynamicProgrammingSearch,
    ExhaustiveSearch,
    GreedyConfigurationEnumerator,
)
from repro.core.problem import (
    CPU,
    MEMORY,
    ConsolidatedWorkload,
    ResourceAllocation,
    VirtualizationDesignProblem,
)
from repro.exceptions import EstimationError, OptimizationError
from repro.workloads.workload import Workload, WorkloadStatement


class SyntheticCostFunction(CostFunction):
    """Deterministic monotone cost surface for search-equivalence tests.

    ``params[i] = (cpu_weight, mem_weight, base)``; more of either resource
    never hurts, and the weights differentiate the tenants' appetites.
    """

    def __init__(self, problem, params) -> None:
        super().__init__(problem)
        self.params = params

    def _cost(self, tenant_index, allocation):
        cpu_weight, mem_weight, base = self.params[tenant_index]
        return (
            cpu_weight / (allocation.cpu_share + 0.1)
            + mem_weight / (allocation.memory_fraction + 0.1)
            + base
        )


def _problem(tpch_sf1_queries, db2_calibration, gains, limits, resources):
    workload = Workload("w", (WorkloadStatement(tpch_sf1_queries["q18"], 1.0),))
    tenants = tuple(
        ConsolidatedWorkload(
            workload=workload,
            calibration=db2_calibration,
            gain_factor=gain,
            degradation_limit=limit,
        )
        for gain, limit in zip(gains, limits)
    )
    return VirtualizationDesignProblem(
        tenants=tenants, resources=resources, fixed_memory_fraction=0.0625
    )


class TestDynamicProgrammingMatchesBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_same_optimum_on_random_small_problems(
        self, data, tpch_sf1_queries, db2_calibration
    ):
        n = data.draw(st.integers(min_value=2, max_value=3), label="tenants")
        delta = data.draw(st.sampled_from([0.1, 0.2, 0.25, 0.5]), label="delta")
        if round(1.0 / delta) < n:
            delta = 0.25
        multi = data.draw(st.booleans(), label="multi_resource")
        gains = data.draw(
            st.lists(st.floats(1.0, 8.0), min_size=n, max_size=n), label="gains"
        )
        limits = data.draw(
            st.lists(
                st.sampled_from([math.inf, 1.2, 1.5, 2.5]), min_size=n, max_size=n
            ),
            label="limits",
        )
        params = data.draw(
            st.lists(
                st.tuples(
                    st.floats(0.1, 100.0), st.floats(0.1, 100.0), st.floats(0.0, 10.0)
                ),
                min_size=n,
                max_size=n,
            ),
            label="params",
        )
        resources = (CPU, MEMORY) if multi else (CPU,)
        problem = _problem(tpch_sf1_queries, db2_calibration, gains, limits, resources)

        brute = ExhaustiveSearch(delta=delta, min_share=delta)
        dp = DynamicProgrammingSearch(delta=delta, min_share=delta)
        try:
            expected = brute.search(
                problem, SyntheticCostFunction(problem, params)
            )
        except OptimizationError:
            # No feasible grid allocation — the DP must agree.
            with pytest.raises(OptimizationError):
                dp.search(problem, SyntheticCostFunction(problem, params))
            return
        actual = dp.search(problem, SyntheticCostFunction(problem, params))

        assert actual.weighted_cost == pytest.approx(
            expected.weighted_cost, rel=1e-12, abs=1e-12
        )
        problem.validate_allocations(actual.allocations)
        # The DP's allocation really achieves its reported weighted cost
        # (tied optima may differ from the brute force's pick).
        check = SyntheticCostFunction(problem, params)
        assert check.total_weighted_cost(actual.allocations) == pytest.approx(
            actual.weighted_cost, rel=1e-12
        )

    def test_same_optimum_with_what_if_estimator(
        self, tpch_sf1_queries, db2_calibration
    ):
        for resources in ((CPU,), (CPU, MEMORY)):
            problem = _problem(
                tpch_sf1_queries, db2_calibration,
                gains=(2.0, 1.0, 1.0), limits=(math.inf, 1.8, math.inf),
                resources=resources,
            )
            estimator = WhatIfCostEstimator(problem)
            expected = ExhaustiveSearch(delta=0.1, min_share=0.1).search(
                problem, estimator
            )
            actual = DynamicProgrammingSearch(delta=0.1, min_share=0.1).search(
                problem, estimator
            )
            assert actual.weighted_cost == pytest.approx(
                expected.weighted_cost, rel=1e-12
            )

    def test_four_tenant_multi_resource_fine_grid(
        self, tpch_sf1_queries, db2_calibration
    ):
        """delta=0.05 with 4 tenants and both resources: beyond the brute
        force's 2M-combination budget, seconds for the DP."""
        problem = _problem(
            tpch_sf1_queries, db2_calibration,
            gains=(1.0, 2.0, 1.0, 4.0), limits=(math.inf,) * 4,
            resources=(CPU, MEMORY),
        )
        params = [(5.0, 1.0, 0.1), (1.0, 8.0, 0.2), (3.0, 3.0, 0.0), (0.5, 0.5, 1.0)]
        brute = ExhaustiveSearch(delta=0.05, min_share=0.0)
        with pytest.raises(OptimizationError):
            brute.search(problem, SyntheticCostFunction(problem, params))
        started = time.perf_counter()
        result = DynamicProgrammingSearch(delta=0.05, min_share=0.0).search(
            problem, SyntheticCostFunction(problem, params)
        )
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0
        problem.validate_allocations(result.allocations)
        greedy = GreedyConfigurationEnumerator(delta=0.05, min_share=0.0).enumerate(
            problem, SyntheticCostFunction(problem, params)
        )
        assert result.weighted_cost <= greedy.weighted_cost + 1e-9

    def test_min_share_rounds_up_to_one_grid_unit(
        self, tpch_sf1_queries, db2_calibration
    ):
        # delta=0.1 with the advisor's default min_share=0.05 used to
        # compute min_units=round(0.5)=0 (banker's rounding), putting a
        # zero share on the grid and crashing the first cost evaluation.
        # The minimum now rounds *up*: no tenant may fall below one unit.
        search = DynamicProgrammingSearch(delta=0.1, min_share=0.05)
        assert search.effective_min_share == pytest.approx(0.1)
        assert ExhaustiveSearch(
            delta=0.1, min_share=0.05
        ).effective_min_share == pytest.approx(0.1)
        problem = _problem(
            tpch_sf1_queries, db2_calibration,
            gains=(1.0, 2.0), limits=(math.inf, math.inf), resources=(CPU,),
        )
        result = search.search(
            problem, SyntheticCostFunction(problem, ((1.0, 1.0, 0.0),) * 2)
        )
        assert all(a.cpu_share >= 0.1 - 1e-9 for a in result.allocations)
        # The advisor-level pairing from the docs works end to end.
        report = Advisor(enumerator="exhaustive-dp", delta=0.1).recommend(problem)
        assert all(a.cpu_share >= 0.1 - 1e-9 for a in report.allocations)

    def test_registered_as_strategy(self):
        search = ENUMERATORS.create("exhaustive-dp", delta=0.2, min_share=0.2)
        assert isinstance(search, DynamicProgrammingSearch)
        assert search.delta == 0.2


class TestCostMany:
    @pytest.fixture()
    def problem(self, tpch_sf1_queries, db2_calibration):
        return _problem(
            tpch_sf1_queries, db2_calibration,
            gains=(1.0, 2.0), limits=(math.inf, math.inf),
            resources=(CPU, MEMORY),
        )

    @pytest.fixture()
    def allocations(self):
        shares = [0.2, 0.4, 0.6, 0.8]
        batch = [
            ResourceAllocation(cpu_share=cpu, memory_fraction=memory)
            for cpu in shares
            for memory in shares
        ]
        batch.append(batch[0])  # a duplicate: evaluated once, like cost()
        return batch

    @pytest.mark.parametrize("family", [WhatIfCostEstimator, ActualCostFunction])
    def test_matches_repeated_cost_calls(self, family, problem, allocations):
        sequential = family(problem)
        batched = family(problem)
        expected = [sequential.cost(1, a) for a in allocations]
        actual = batched.cost_many(1, allocations)
        assert actual == expected
        assert batched.call_count == sequential.call_count

    def test_cached_cost_function_accounting(self, problem, allocations):
        sequential = CachedCostFunction(problem, WhatIfCostEstimator(problem), CostCache())
        batched = CachedCostFunction(problem, WhatIfCostEstimator(problem), CostCache())
        expected = [sequential.cost(0, a) for a in allocations]
        actual = batched.cost_many(0, allocations)
        assert actual == expected
        assert batched.evaluations == sequential.evaluations
        assert batched.cache.hits == sequential.cache.hits
        assert batched.cache.misses == sequential.cache.misses
        # A second batch is answered entirely from the shared cache.
        evaluations = batched.evaluations
        assert batched.cost_many(0, allocations) == expected
        assert batched.evaluations == evaluations

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_cached_batches_account_like_a_cost_loop(
        self, data, tpch_sf1_queries, db2_calibration
    ):
        """Random batches with duplicates, partly or fully cached.

        Whether the batch takes the all-hit fast path or the per-allocation
        path, values and the hit/miss/evaluation counts must equal those of
        a ``cost()`` loop over a fresh cache given the same warm-up.
        """
        problem = _problem(
            tpch_sf1_queries, db2_calibration,
            gains=(1.0, 2.0), limits=(math.inf, math.inf),
            resources=(CPU, MEMORY),
        )
        grid = st.sampled_from([0.25, 0.5, 0.75])
        allocation = st.builds(ResourceAllocation, grid, grid)
        warm = data.draw(st.lists(allocation, max_size=6), label="warm")
        batches = data.draw(
            st.lists(st.lists(allocation, max_size=8), min_size=1, max_size=3),
            label="batches",
        )
        params = ((1.0, 2.0, 0.5), (3.0, 0.5, 1.0))

        def subject():
            costs = CachedCostFunction(
                problem, SyntheticCostFunction(problem, params), CostCache()
            )
            for allocation_ in warm:
                costs.cost(0, allocation_)
            return costs

        def counts(costs):
            return costs.cache.hits, costs.cache.misses, costs.evaluations

        batched, looped = subject(), subject()
        for batch in batches:
            # Each batch a second time too: the repeat is all hits.
            for _ in range(2):
                expected = [looped.cost(0, allocation_) for allocation_ in batch]
                assert batched.cost_many(0, batch) == expected
                assert counts(batched) == counts(looped)

    def test_cost_many_rejects_bad_tenant_index(self, problem):
        estimator = WhatIfCostEstimator(problem)
        with pytest.raises(EstimationError):
            estimator.cost_many(7, [ResourceAllocation(0.5, 0.5)])


class TestGreedyProbeApplyConsistency:
    def test_share_never_exceeds_one_under_accumulated_drift(
        self, tpch_sf1_queries, db2_calibration
    ):
        """A tenant within delta of a full share gets a clamped step; the
        applied allocation is the probed one, so accumulated 0.05-steps end
        at exactly 1.0 instead of drifting past it."""
        problem = _problem(
            tpch_sf1_queries, db2_calibration,
            gains=(8.0, 1.0), limits=(math.inf, math.inf), resources=(CPU,),
        )
        # Tenant 0 benefits enormously from CPU; tenant 1 barely needs it.
        costs = SyntheticCostFunction(problem, [(1000.0, 0.0, 0.0), (0.01, 0.0, 0.0)])
        result = GreedyConfigurationEnumerator(
            delta=0.05, min_share=0.0
        ).enumerate(problem, costs)
        assert all(a.cpu_share <= 1.0 for a in result.allocations)
        problem.validate_allocations(result.allocations)
        assert result.allocations[0].cpu_share == pytest.approx(1.0)
        # The reported weighted cost matches the final allocations.
        assert result.weighted_cost == pytest.approx(
            costs.total_weighted_cost(result.allocations)
        )


class TestPlanCacheStatistics:
    def test_report_carries_optimizer_and_plan_cache_counters(
        self, tpch_sf1_queries, machine, fast_calibration
    ):
        # A fresh engine and calibration: the counters start from zero, so
        # the report's deltas are deterministic for this test.
        from repro.calibration import calibrate_engine
        from repro.dbms.db2 import DB2Engine
        from repro.workloads.tpch import tpch_database, tpch_queries

        database = tpch_database(1.0)
        queries = tpch_queries(database)
        calibration = calibrate_engine(
            DB2Engine(database), machine, fast_calibration
        )
        # Two distinct workloads over the same query: the cost cache cannot
        # serve one tenant's estimates to the other, but the engine's plan
        # cache reuses the per-configuration plans across both.
        tenants = tuple(
            ConsolidatedWorkload(
                workload=Workload(
                    f"w{index}",
                    (WorkloadStatement(queries["q18"], float(index + 1)),),
                ),
                calibration=calibration,
            )
            for index in range(2)
        )
        problem = VirtualizationDesignProblem(tenants=tenants, resources=(CPU,))
        advisor = Advisor(delta=0.1, min_share=0.1)
        report = advisor.recommend_exhaustive(problem)
        assert report.provenance.enumerator == "exhaustive-dp"
        assert report.cost_stats.optimizer_calls > 0
        # The second tenant shares the first one's workload and engine, so
        # its whole cost table is answered from the plan cache.
        assert report.cost_stats.plan_cache_hits > 0
        document = report.to_dict()
        assert document["cost_stats"]["optimizer_calls"] > 0
        assert document["cost_stats"]["plan_cache_hits"] > 0
