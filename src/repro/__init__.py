"""repro — reproduction of *Automatic Virtual Machine Configuration for
Database Workloads* (Soror, Minhas, Aboulnaga, Salem, Kokosielis, Kamath;
SIGMOD 2008).

The package provides:

* a simulated virtualization substrate (:mod:`repro.virt`),
* PostgreSQL- and DB2-style database engine simulators (:mod:`repro.dbms`),
* TPC-H and TPC-C style workload models (:mod:`repro.workloads`),
* the query-optimizer calibration machinery (:mod:`repro.calibration`),
* the virtualization design advisor — greedy configuration enumeration, QoS
  constraints, online refinement, and dynamic configuration management
  (:mod:`repro.core`),
* the unified advisor API — fluent :class:`~repro.api.ProblemBuilder`,
  declarative :class:`~repro.api.Scenario` specs, the pluggable
  :class:`~repro.api.Advisor` service, and serializable
  :class:`~repro.api.RecommendationReport`\\ s (:mod:`repro.api`),
* the fleet placement engine — :class:`~repro.fleet.FleetAdvisor` decides
  which machine each tenant lands on (``"greedy-cost"``, ``"round-robin"``,
  ``"first-fit"``) before the per-machine advisor divides its resources
  (:mod:`repro.fleet`),
* the workload-trace subsystem — timestamped
  :class:`~repro.traces.WorkloadTrace`\\ s, synthetic trace generators, and
  :class:`~repro.traces.TraceReplayer` /
  :class:`~repro.traces.FleetTraceReplayer` driving dynamic reconfiguration
  and incremental fleet re-placement (:mod:`repro.traces`),
* the parallel solver-execution subsystem — pluggable ``serial`` /
  ``thread`` backends fanning independent per-machine solves out while
  returning the serial answer bit for bit (:mod:`repro.parallel`),
* the serving tier — :class:`~repro.service.AdvisorService` hosting the
  advisor for concurrent callers over one process-wide cost-cache pool,
  awaitable :class:`~repro.service.AsyncAdvisor` /
  :class:`~repro.service.AsyncFleetAdvisor` faces, and the stdlib-only
  HTTP server behind ``python -m repro serve`` (:mod:`repro.service`), and
* the experiment harness reproducing every figure of the paper's evaluation
  (:mod:`repro.experiments`).

Quick start::

    from repro import Advisor, ProblemBuilder

    problem = (
        ProblemBuilder()
        .add_tenant("postgresql-io-bound", engine="postgresql",
                    statements=[("q17", 1.0)])
        .add_tenant("db2-cpu-bound", engine="db2",
                    statements=[("q18", 1.0)])
        .build()
    )
    report = Advisor().recommend(problem)
    for tenant in report.tenants:
        print(tenant.name, tenant.cpu_share, tenant.memory_fraction)
    print(report.to_json(indent=2))

Strategies are pluggable by name — ``Advisor(enumerator="exhaustive")``,
``Advisor(cost_function="actual")`` — or by instance; whole scenarios can be
defined as data via :meth:`repro.api.Scenario.from_dict`.

.. deprecated::
    :class:`~repro.core.advisor.VirtualizationDesignAdvisor` remains
    available as a thin shim over :class:`~repro.api.Advisor` for existing
    code; prefer the unified API above.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Any, List

if TYPE_CHECKING:
    from .core import VirtualizationDesignProblem

# The serving tier reports the package version (HTTP Server header,
# /healthz), so it lives here rather than in any subpackage.
__version__ = "1.4.0"

#: Where each re-exported name lives.  Importing ``repro`` loads none of
#: these modules: a name's module is imported on first attribute access
#: (PEP 562), so ``from repro.api import Scenario`` never pays for the
#: fleet, trace, parallel, or serving tiers.
_EXPORTS = {
    "Advisor": ".api",
    "ProblemBuilder": ".api",
    "RecommendationReport": ".api",
    "Scenario": ".api",
    "TenantSpec": ".api",
    "CalibrationSettings": ".calibration",
    "calibrate_engine": ".calibration",
    "ConsolidatedWorkload": ".core",
    "Recommendation": ".core",
    "ResourceAllocation": ".core",
    "UNLIMITED_DEGRADATION": ".core",
    "VirtualizationDesignAdvisor": ".core",
    "VirtualizationDesignProblem": ".core",
    "WhatIfCostEstimator": ".core",
    "ActualCostFunction": ".core.cost_estimator",
    "DB2Engine": ".dbms.db2",
    "PostgreSQLEngine": ".dbms.postgres",
    "FleetAdvisor": ".fleet",
    "FleetProblem": ".fleet",
    "FleetReport": ".fleet",
    "FleetTenant": ".fleet",
    "Machine": ".fleet",
    "BACKENDS": ".parallel",
    "SerialBackend": ".parallel",
    "SolverBackend": ".parallel",
    "ThreadBackend": ".parallel",
    "resolve_backend": ".parallel",
    "AdvisorHTTPServer": ".service",
    "AdvisorService": ".service",
    "AsyncAdvisor": ".service",
    "AsyncFleetAdvisor": ".service",
    "serve": ".service",
    "FleetTraceReplayer": ".traces",
    "ReplayReport": ".traces",
    "TraceReplayer": ".traces",
    "WorkloadTrace": ".traces",
    "Hypervisor": ".virt",
    "PhysicalMachine": ".virt",
    "Workload": ".workloads",
    "tpcc_database": ".workloads",
    "tpcc_transactions": ".workloads",
    "tpch_database": ".workloads",
    "tpch_queries": ".workloads",
}


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "ActualCostFunction",
    "Advisor",
    "AdvisorHTTPServer",
    "AdvisorService",
    "AsyncAdvisor",
    "AsyncFleetAdvisor",
    "BACKENDS",
    "CalibrationSettings",
    "ConsolidatedWorkload",
    "DB2Engine",
    "FleetAdvisor",
    "FleetProblem",
    "FleetReport",
    "FleetTenant",
    "FleetTraceReplayer",
    "Hypervisor",
    "Machine",
    "PhysicalMachine",
    "PostgreSQLEngine",
    "ProblemBuilder",
    "Recommendation",
    "RecommendationReport",
    "ReplayReport",
    "ResourceAllocation",
    "Scenario",
    "SerialBackend",
    "SolverBackend",
    "TenantSpec",
    "ThreadBackend",
    "TraceReplayer",
    "UNLIMITED_DEGRADATION",
    "VirtualizationDesignAdvisor",
    "VirtualizationDesignProblem",
    "WhatIfCostEstimator",
    "Workload",
    "WorkloadTrace",
    "calibrate_engine",
    "quickstart_problem",
    "resolve_backend",
    "serve",
    "tpcc_database",
    "tpcc_transactions",
    "tpch_database",
    "tpch_queries",
    "__version__",
]


def quickstart_problem(scale_factor: float = 1.0) -> VirtualizationDesignProblem:
    """Build a small two-workload consolidation problem ready for the advisor.

    One PostgreSQL VM runs an I/O-bound workload (TPC-H Q17) and one DB2 VM
    runs a CPU-bound workload (TPC-H Q18) — the paper's motivating example
    in miniature.  Both engines are calibrated on a default physical
    machine via :class:`~repro.api.ProblemBuilder`::

        from repro import Advisor, quickstart_problem

        report = Advisor().recommend(quickstart_problem())
        print(report.to_json(indent=2))
    """
    from .api import ProblemBuilder

    return (
        ProblemBuilder()
        .add_tenant(
            "postgresql-io-bound",
            engine="postgresql",
            scale=scale_factor,
            statements=[("q17", 1.0)],
            database_name=f"tpch_pg_sf{scale_factor:g}",
        )
        .add_tenant(
            "db2-cpu-bound",
            engine="db2",
            scale=scale_factor,
            statements=[("q18", 1.0)],
            database_name=f"tpch_db2_sf{scale_factor:g}",
        )
        .build()
    )
