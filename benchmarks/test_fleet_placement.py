"""Placement fast-path benchmarks — local search and solve-memo.

Two gates over the placement fast path of :mod:`repro.fleet`:

* **The local-search improver** (``greedy-cost+ls``) must never return a
  costlier placement than plain greedy construction (the improvement
  rounds apply strictly-improving moves and swaps only).
* **The fleet solve-memo** must answer a warm re-solve entirely from
  memoized whole-machine results: zero new DP searches, zero cost-cache
  lookups, zero memo misses — only ``placement_solve_hits``.

Wired into the CI benchmark-smoke job with wall-clock ceilings like the
other benchmarks; measured numbers are quoted in ``docs/performance.md``.
"""

import time

from conftest import run_once

from repro.experiments.fleet import build_fleet_problem
from repro.fleet import FleetAdvisor, FleetProblem

N_TENANTS = 12
N_MACHINES = 4


def _fleet_problem() -> FleetProblem:
    base = build_fleet_problem(n_tenants=N_TENANTS, n_machines=N_MACHINES)
    data = base.to_dict()
    # Coarse calibration grid: the one-time calibration stays cheap.
    data["calibration"] = {"cpu_shares": [0.25, 0.5, 0.75, 1.0]}
    return FleetProblem.from_dict(data)


def _greedy_vs_local_search():
    advisor = FleetAdvisor(delta=0.25)
    problem = _fleet_problem()
    greedy = advisor.recommend(problem, placement="greedy-cost")
    started = time.perf_counter()
    improved = advisor.recommend(problem, placement="greedy-cost+ls")
    elapsed = time.perf_counter() - started
    return advisor, greedy, improved, elapsed


def test_fleet_placement_local_search_never_costlier(benchmark):
    advisor, greedy, improved, elapsed = run_once(
        benchmark, _greedy_vs_local_search
    )

    print(
        f"\nLocal search — {N_TENANTS} tenants × {N_MACHINES} machines:\n"
        f"  greedy-cost    {greedy.total_weighted_cost:.4f}\n"
        f"  greedy-cost+ls {improved.total_weighted_cost:.4f} "
        f"({elapsed:.3f} s on a warm advisor, "
        f"{improved.cost_stats.placement_solve_hits} solve-memo hits)"
    )

    # The improver applies strictly-improving moves/swaps only, so it can
    # never lose to the greedy construction it starts from ...
    assert improved.total_weighted_cost <= greedy.total_weighted_cost + 1e-9
    assert improved.strategy == "greedy-cost+ls"
    # ... and on a warm advisor its candidate pricing rides the solve-memo
    # rather than re-running per-machine searches.
    assert improved.cost_stats.placement_solve_hits > 0


def _warm_resolve():
    advisor = FleetAdvisor(delta=0.25)
    problem = _fleet_problem()
    cold = advisor.recommend(problem)
    misses_before = advisor.solve_memo.misses
    started = time.perf_counter()
    warm = advisor.recommend(problem)
    elapsed = time.perf_counter() - started
    return advisor, cold, warm, misses_before, elapsed


def test_fleet_placement_warm_resolve_is_pure_memo(benchmark):
    advisor, cold, warm, misses_before, elapsed = run_once(
        benchmark, _warm_resolve
    )

    print(
        f"\nWarm re-solve — {N_TENANTS} tenants × {N_MACHINES} machines:\n"
        f"  cold {cold.wall_time_seconds:.3f} s "
        f"({cold.cost_stats.evaluations} evaluations)\n"
        f"  warm {elapsed:.3f} s (0 evaluations, "
        f"{warm.cost_stats.placement_solve_hits} whole-solve memo hits)"
    )

    # The warm pass performs zero new DP searches: every (machine,
    # tenant-set) ask is a whole-result memo hit — not even the point
    # cost cache is consulted.
    assert advisor.solve_memo.misses == misses_before
    assert warm.cost_stats.evaluations == 0
    assert warm.cost_stats.cache_hits == 0
    assert warm.cost_stats.cache_misses == 0
    assert warm.cost_stats.placement_solve_hits > 0
    assert warm.canonical_dict() == cold.canonical_dict()
