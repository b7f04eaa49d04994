"""The process that does a library workload's work, or hosts a traced server.

Run by ``run.py``, never by hand::

    python3 perfbench/perf_worker.py library WORKLOAD SEED SECONDS TRACE SETUP_ONLY
    python3 perfbench/perf_worker.py serve LAYERS_OUT [serve arguments...]

``library`` mode imports the program, parses the first input document and
calibrates its engines, then prints ``READY`` (the parent's ``setup_s``
clock stops there).  Unless ``SETUP_ONLY`` is 1 it then runs solve cycles:
each cycle builds a fresh advisor, solves one document cold, solves it
again on the same advisor (warm), and checks the answers.  The last line
of standard output is one JSON object describing every cycle.

``serve`` mode installs the layer wrappers and runs ``repro serve`` in
this process; when the server exits it writes the per-layer metrics to
``LAYERS_OUT``.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import perf_inputs  # noqa: E402
from perf_layers import LayerTracer, install_repro_layers, layer_metrics  # noqa: E402

#: Number of documents a traced advisor-grid run solves (fixed, so the
#: per-layer counts repeat exactly for a seed).
TRACED_GRID_MIXES = 4

#: Share of the cold solves' wall time the wrapped layers must account for.
MIN_COVERAGE = 0.9

#: Relative tolerance for comparing objectives of *different* documents
#: whose exact optimum is equal (a relabeled fleet may sum machine costs
#: in another order).  The same document must reproduce its objective
#: exactly.
PERMUTATION_RTOL = 1e-9


def digest(report: Any) -> str:
    """SHA-256 of the answer's canonical JSON form."""
    canonical = json.dumps(report.canonical_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# fleet-exact
# ----------------------------------------------------------------------
def _fleet_setup(seed: int) -> None:
    from repro.fleet import FleetAdvisor, FleetProblem

    problem = FleetProblem.from_dict(perf_inputs.fleet_exact_document(seed, 0))
    advisor = FleetAdvisor(delta=0.25)
    for machine in range(problem.n_machines):
        for tenant in range(problem.n_tenants):
            advisor.machine_problem(problem, machine, (tenant,))


def _fleet_cycle(seed: int, index: int, tracer: Optional[LayerTracer]) -> Dict[str, Any]:
    from repro.fleet import FleetAdvisor, FleetProblem

    problem = FleetProblem.from_dict(perf_inputs.fleet_exact_document(seed, index))
    advisor = FleetAdvisor(delta=0.25)
    top_before = tracer.top_seconds if tracer else 0.0
    started = time.perf_counter()
    cold = advisor.recommend(problem, placement="bnb-fleet")
    solved = time.perf_counter()
    cold_top = (tracer.top_seconds if tracer else 0.0) - top_before
    warm = advisor.recommend(problem, placement="bnb-fleet")
    resolved = time.perf_counter()
    problems = []
    for label, report in (("cold", cold), ("warm", warm)):
        provenance = report.placement_provenance or {}
        if provenance.get("proven_optimal") is not True:
            problems.append(f"{label} solve is not proven optimal")
        if provenance.get("budget_exhausted") is not None:
            problems.append(f"{label} solve tripped {provenance['budget_exhausted']}")
    if digest(cold) != digest(warm):
        problems.append("warm answer differs from cold answer")
    if cold.total_weighted_cost != warm.total_weighted_cost:
        problems.append("warm objective differs from cold objective")
    provenance = cold.placement_provenance or {}
    return {
        "index": index,
        "solve_s": solved - started,
        "resolve_s": resolved - solved,
        "cold_top_s": cold_top,
        "objective": cold.total_weighted_cost,
        "digest": digest(cold),
        "nodes": provenance.get("nodes_explored", 0)
        + (warm.placement_provenance or {}).get("nodes_explored", 0),
        "pruned": provenance.get("nodes_pruned", 0)
        + (warm.placement_provenance or {}).get("nodes_pruned", 0),
        "operations": 2,
        "problems": problems,
    }


def _check_fleet_objectives(cycles: List[Dict[str, Any]]) -> List[str]:
    # Every fleet-exact document relabels the same fleet, so every proven
    # optimum has the same objective.
    first = cycles[0]["objective"]
    return [
        f"document {cycle['index']} objective {cycle['objective']!r} != {first!r}"
        for cycle in cycles
        if abs(cycle["objective"] - first) > PERMUTATION_RTOL * abs(first)
    ]


# ----------------------------------------------------------------------
# advisor-grid
# ----------------------------------------------------------------------
def _grid_setup(seed: int) -> None:
    from repro.api import Scenario

    builder = Scenario.from_dict(perf_inputs.advisor_grid_document(seed, 0)).to_builder()
    for engine in perf_inputs.ENGINES:
        builder.calibration(engine)


def _grid_cycle(seed: int, index: int, tracer: Optional[LayerTracer]) -> Dict[str, Any]:
    from repro.api import Advisor, Scenario

    document = perf_inputs.advisor_grid_document(seed, index)
    scenario = Scenario.from_dict(document)
    # A fresh builder per document: new engines, so the cold solve starts
    # with empty plan caches, as a first request for a new mix would.
    problem = scenario.build()
    advisor = Advisor(**scenario.advisor)
    top_before = tracer.top_seconds if tracer else 0.0
    started = time.perf_counter()
    cold = advisor.recommend(problem)
    solved = time.perf_counter()
    cold_top = (tracer.top_seconds if tracer else 0.0) - top_before
    warm = advisor.recommend(problem)
    resolved = time.perf_counter()
    problems = []
    if digest(cold) != digest(warm):
        problems.append("warm answer differs from cold answer")
    if warm.cost_stats.evaluations != 0:
        problems.append(f"warm re-solve evaluated {warm.cost_stats.evaluations} costs")
    gains = [tenant["gain_factor"] for tenant in document["tenants"]]
    objective = sum(
        gain * cost for gain, cost in zip(gains, cold.recommendation.per_workload_costs)
    )
    return {
        "index": index,
        "solve_s": solved - started,
        "resolve_s": resolved - solved,
        "cold_top_s": cold_top,
        "objective": objective,
        "digest": digest(cold),
        "nodes": 0,
        "pruned": 0,
        "operations": 2,
        "problems": problems,
    }


Cycle = Callable[[int, int, Optional[LayerTracer]], Dict[str, Any]]

WORKLOADS: Dict[str, Tuple[Callable[[int], None], Cycle]] = {
    "fleet-exact": (_fleet_setup, _fleet_cycle),
    "advisor-grid": (_grid_setup, _grid_cycle),
}


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def _timed_cycles(cycle: Cycle, seed: int, seconds: float) -> List[Dict[str, Any]]:
    """Run cycles until the next one would end past ``seconds`` (at least one)."""
    cycles: List[Dict[str, Any]] = []
    started = time.perf_counter()
    longest = 0.0
    while not cycles or time.perf_counter() - started + longest <= seconds:
        begun = time.perf_counter()
        cycles.append(cycle(seed, len(cycles), None))
        longest = max(longest, time.perf_counter() - begun)
    return cycles


def _traced_cycles(workload: str, seed: int) -> Dict[str, Any]:
    """Solve fixed documents untraced, then again under the layer wrappers.

    The untraced and traced answers of each document must be
    byte-identical, and every wrapped attribute must be restored after.
    """
    _, cycle = WORKLOADS[workload]
    indices = range(TRACED_GRID_MIXES if workload == "advisor-grid" else 1)
    plain = [cycle(seed, index, None) for index in indices]
    tracer = install_repro_layers(LayerTracer())
    try:
        traced = [cycle(seed, index, tracer) for index in indices]
    finally:
        restored = tracer.uninstall()
    problems = []
    if not restored:
        problems.append("a wrapped entry point was not restored")
    for untraced, with_layers in zip(plain, traced):
        if untraced["digest"] != with_layers["digest"]:
            problems.append(f"document {untraced['index']}: tracing changed the answer")
    coverage = sum(c["cold_top_s"] for c in traced) / sum(c["solve_s"] for c in traced)
    if coverage < MIN_COVERAGE:
        problems.append(f"the wrapped layers cover only {coverage:.1%} of the cold solves")
    metrics = layer_metrics(tracer)
    metrics["fleet.bnb.nodes"] = sum(c["nodes"] for c in traced)
    metrics["fleet.bnb.pruned"] = sum(c["pruned"] for c in traced)
    return {
        "cycles": plain + traced,
        "layers": metrics,
        "coverage": coverage,
        "overhead_s": statistics.median(c["solve_s"] for c in traced)
        - statistics.median(c["solve_s"] for c in plain),
        "checks": 2 + len(traced),
        "problems": problems,
    }


def library_main(workload: str, seed: int, seconds: float, trace: bool, setup_only: bool) -> int:
    setup, cycle = WORKLOADS[workload]
    setup(seed)
    print("READY", flush=True)
    if setup_only:
        return 0
    if trace:
        result = _traced_cycles(workload, seed)
    else:
        result = {"cycles": _timed_cycles(cycle, seed, seconds), "checks": 0, "problems": []}
    if workload == "fleet-exact":
        result["checks"] += 1
        result["problems"].extend(_check_fleet_objectives(result["cycles"]))
    print(json.dumps(result), flush=True)
    return 0


def serve_main(layers_out: str, serve_args: List[str]) -> int:
    from repro.__main__ import main

    tracer = install_repro_layers(LayerTracer())
    try:
        code = main(["serve", *serve_args])
    finally:
        restored = tracer.uninstall()
        Path(layers_out).write_text(
            json.dumps({"layers": layer_metrics(tracer), "restored": restored}),
            encoding="utf-8",
        )
    return code


if __name__ == "__main__":
    mode, arguments = sys.argv[1], sys.argv[2:]
    if mode == "library":
        workload, seed, seconds, trace, setup_only = arguments
        sys.exit(library_main(
            workload, int(seed), float(seconds), trace == "1", setup_only == "1"
        ))
    if mode == "serve":
        sys.exit(serve_main(arguments[0], arguments[1:]))
    sys.exit(f"unknown mode {mode!r}")
