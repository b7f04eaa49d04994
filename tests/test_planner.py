"""Tests for the cost-based planner."""

import random

import pytest

from repro.calibration import calibrate_engine
from repro.dbms.catalog import Database
from repro.dbms.db2 import DB2Engine
from repro.dbms.plans import PlanBuildContext
from repro.dbms.planner import Planner
from repro.dbms.postgres import PostgreSQLEngine
from repro.dbms.postgres.cost_model import PostgreSQLCostModel
from repro.dbms.postgres.params import PostgreSQLParameters
from repro.dbms.query import AggregateSpec, JoinStep, QuerySpec, TableAccess
from repro.exceptions import OptimizationError


@pytest.fixture()
def database():
    db = Database("planner")
    db.create_table("fact", row_count=2_000_000, row_width_bytes=100)
    db.create_table("dim", row_count=10_000, row_width_bytes=80)
    db.create_index("idx_fact", "fact", key_width_bytes=8)
    return db


def cost_model(work_mem_mb=16.0, cache_mb=64.0):
    params = PostgreSQLParameters(work_mem_mb=work_mem_mb,
                                  shared_buffers_mb=cache_mb,
                                  effective_cache_size_mb=cache_mb)
    return PostgreSQLCostModel(params)


def build_context(database, work_mem_mb=16.0, cache_mb=64.0):
    return PlanBuildContext(database=database, work_mem_mb=work_mem_mb,
                            cache_mb=cache_mb)


class TestAccessChoice:
    def test_selective_predicate_uses_index(self, database):
        planner = Planner(database)
        query = QuerySpec(
            name="point", database="planner",
            driver=TableAccess(table="fact", selectivity=1e-4, index="idx_fact",
                               index_selectivity=1e-4),
        )
        plan = planner.build_plan(query, build_context(database), cost_model())
        assert "IndexScan" in plan.signature

    def test_full_scan_uses_seq_scan(self, database):
        planner = Planner(database)
        query = QuerySpec(
            name="scan", database="planner",
            driver=TableAccess(table="fact", selectivity=0.9, index="idx_fact",
                               index_selectivity=0.9),
        )
        plan = planner.build_plan(query, build_context(database), cost_model())
        assert plan.signature.startswith("Result(SeqScan")

    def test_database_mismatch_rejected(self, database):
        planner = Planner(database)
        query = QuerySpec(name="q", database="other",
                          driver=TableAccess(table="fact"))
        with pytest.raises(OptimizationError):
            planner.build_plan(query, build_context(database), cost_model())


class TestJoinChoice:
    def join_query(self, selectivity=1e-4):
        return QuerySpec(
            name="join", database="planner",
            driver=TableAccess(table="fact", selectivity=0.5),
            joins=(JoinStep(access=TableAccess(table="dim"),
                            selectivity=1.0 / 10_000),),
        )

    def test_join_produces_binary_operator(self, database):
        planner = Planner(database)
        plan = planner.build_plan(self.join_query(), build_context(database),
                                  cost_model())
        assert any(label in plan.signature
                   for label in ("HashJoin", "NestLoop", "MergeJoin"))

    def test_join_alternatives_include_all_methods(self, database):
        planner = Planner(database)
        context = build_context(database)
        model = cost_model()
        outer = planner._best_access(TableAccess(table="fact", selectivity=0.5),
                                     context, model)
        step = JoinStep(access=TableAccess(table="dim"), selectivity=1e-4)
        labels = {type(node).__name__
                  for node in planner.join_alternatives(outer, step, context, model)}
        assert "HashJoinNode" in labels
        assert "SortMergeJoinNode" in labels
        assert "NestedLoopJoinNode" in labels  # dim is small enough

    def test_nested_loop_pruned_for_large_inner(self, database):
        planner = Planner(database)
        context = build_context(database)
        model = cost_model()
        outer = planner._best_access(TableAccess(table="dim"), context, model)
        step = JoinStep(access=TableAccess(table="fact", selectivity=0.9),
                        selectivity=1e-6)
        labels = {type(node).__name__
                  for node in planner.join_alternatives(outer, step, context, model)}
        assert "NestedLoopJoinNode" not in labels


class TestMemoryDependentPlans:
    def aggregate_query(self):
        return QuerySpec(
            name="agg", database="planner",
            driver=TableAccess(table="fact", selectivity=0.5),
            aggregate=AggregateSpec(group_fraction=0.02, aggregates=2.0),
            order_by=True,
        )

    def test_plan_changes_with_work_mem(self, database):
        planner = Planner(database)
        query = self.aggregate_query()
        small = planner.build_plan(
            query, build_context(database, work_mem_mb=1.0), cost_model(work_mem_mb=1.0)
        )
        large = planner.build_plan(
            query, build_context(database, work_mem_mb=4096.0),
            cost_model(work_mem_mb=4096.0),
        )
        assert small.signature != large.signature

    def test_cost_never_increases_with_more_memory(self, database):
        planner = Planner(database)
        query = self.aggregate_query()
        costs = []
        for memory in (1.0, 8.0, 64.0, 512.0, 4096.0):
            model = cost_model(work_mem_mb=memory, cache_mb=memory)
            plan = planner.build_plan(
                query, build_context(database, work_mem_mb=memory, cache_mb=memory),
                model,
            )
            costs.append(model.plan_cost(plan.usage))
        assert all(b <= a * 1.0001 for a, b in zip(costs, costs[1:]))

    def test_update_plan_wraps_root(self, database):
        from repro.dbms.query import UpdateProfile

        planner = Planner(database)
        query = QuerySpec(
            name="upd", database="planner",
            driver=TableAccess(table="dim", selectivity=1e-3),
            update=UpdateProfile(rows_written=5, pages_dirtied=2),
        )
        plan = planner.build_plan(query, build_context(database), cost_model())
        assert plan.signature.startswith("Update(")


class TestPlanSpaceReuse:
    """One planner, one memory context, cost models differing in CPU only."""

    def cpu_model(self, cpu_tuple_cost):
        return PostgreSQLCostModel(PostgreSQLParameters(
            work_mem_mb=16.0, shared_buffers_mb=64.0, effective_cache_size_mb=64.0,
            cpu_tuple_cost=cpu_tuple_cost, cpu_operator_cost=cpu_tuple_cost / 4,
            cpu_index_tuple_cost=cpu_tuple_cost / 2,
        ))

    def test_cpu_dependent_inner_choice_reaches_its_own_join_nodes(self, database):
        # Cheap CPU scans the inner table; dear CPU reads it through the
        # index — same build context, so both choices come from one space.
        query = QuerySpec(
            name="inner-flip", database="planner",
            driver=TableAccess(table="dim"),
            joins=(JoinStep(access=TableAccess(table="fact", selectivity=0.01,
                                               index="idx_fact",
                                               index_selectivity=0.01),
                            selectivity=1e-6),),
        )
        context = build_context(database)
        planner = Planner(database)
        signatures = set()
        for cpu_tuple_cost in (0.01, 0.1, 0.01, 0.1):
            model = self.cpu_model(cpu_tuple_cost)
            plan = planner.build_plan(query, context, model)
            expected = Planner(database).build_plan(query, context, model)
            assert plan.signature == expected.signature
            assert plan.usage == expected.usage
            signatures.add(plan.signature)
        assert len(signatures) == 2  # the CPU weights alone changed the plan
        assert planner.space_count() == 1
        planner.clear()
        assert planner.space_count() == 0

    def test_a_reused_query_name_gets_its_own_plan(self, database):
        planner = Planner(database)
        context = build_context(database)
        for table in ("fact", "dim", "fact"):
            query = QuerySpec(name="q", database="planner",
                              driver=TableAccess(table=table))
            plan = planner.build_plan(query, context, cost_model())
            assert plan.query is query
            assert plan.usage == Planner(database).build_plan(
                query, context, cost_model()).usage


#: (cpu_share, memory_fraction) cells: four CPU levels per memory level, so
#: every memory context is planned under several CPU configurations.
GRID = [(cpu, memory) for cpu in (0.1, 0.35, 0.6, 1.0)
        for memory in (0.1, 0.3, 0.55, 0.8)]


def _benchmark_suite(request, name):
    if name == "tpch":
        return (request.getfixturevalue("tpch_sf1"),
                list(request.getfixturevalue("tpch_sf1_queries").values()))
    return (request.getfixturevalue("tpcc_w10"),
            list(request.getfixturevalue("tpcc_w10_transactions").values()))


@pytest.mark.parametrize("engine_class", [PostgreSQLEngine, DB2Engine],
                         ids=["postgresql", "db2"])
@pytest.mark.parametrize("suite", ["tpch", "tpcc"])
class TestPlanSpaces:
    """Plans chosen from the shared plan spaces equal freshly built ones."""

    def setup_engine(self, request, engine_class, suite):
        database, queries = _benchmark_suite(request, suite)
        calibration = calibrate_engine(
            engine_class(database), request.getfixturevalue("machine"),
            request.getfixturevalue("fast_calibration"),
        )
        configurations = [calibration.parameters_for_allocation(cpu, memory)
                          for cpu, memory in GRID]
        return engine_class(database), queries, configurations

    def test_memoized_plans_match_a_fresh_engine(self, request, engine_class,
                                                 suite):
        engine, queries, configurations = self.setup_engine(
            request, engine_class, suite)
        random.Random(7).shuffle(configurations)
        for configuration in configurations:
            # A fresh engine answers each configuration once, from nothing.
            fresh = engine_class(engine.database)
            for query in queries:
                plan, cost = engine.estimate_query(query, configuration)
                expected_plan, expected_cost = fresh.estimate_query(
                    query, configuration)
                assert plan.signature == expected_plan.signature
                assert plan.usage == expected_plan.usage
                assert cost == expected_cost

    def test_spaces_are_shared_across_cpu_configurations(self, request,
                                                         engine_class, suite):
        engine, queries, configurations = self.setup_engine(
            request, engine_class, suite)
        contexts = set()
        for configuration in configurations:
            for query in queries:
                engine.estimate_query(query, configuration)
                contexts.add((query.name, engine.build_context(query, configuration)))
        assert 0 < engine.plan_space_count() <= len(contexts)
        assert engine.plan_space_count() < engine.optimizer_call_count()

        engine.clear_plan_cache()
        assert engine.plan_space_count() == 0
        assert engine.optimizer_call_count() == 0


def test_what_if_call_counts_match_a_recorded_grid(pg_calibration, tpch_sf1_queries):
    """The plan cache answers exactly as often as before plan spaces existed."""
    engine = PostgreSQLEngine(pg_calibration.engine.database)
    statements = [(query, 1.0) for query in tpch_sf1_queries.values()]
    allocations = [(cpu, memory) for cpu, memory in GRID] + GRID[::3]
    for cpu, memory in allocations:
        configuration = pg_calibration.parameters_for_allocation(cpu, memory)
        engine.estimate_statements(statements, configuration)
    # Recorded before the planner memoized plan spaces.
    assert engine.optimizer_call_count() == 352
    assert engine.plan_cache_hit_count() == 132
