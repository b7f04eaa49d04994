"""Parallel fleet-solve benchmark — thread backend vs. serial wall-clock.

The paper's what-if cost function is an RPC to a DBMS query optimizer
(§7.2 measures its overhead); fleet-scale parallelism exists to overlap
that latency across independent per-machine solves.  This benchmark makes
the property measurable in-process: the ``what-if-rpc-bench`` cost
function returns bit-identical values to the plain what-if estimator but
sleeps a simulated round trip per underlying batch evaluation (releasing
the GIL exactly like a socket read), so the thread backend's fan-out of
placement probes and committed solves shows up as real wall-clock
speedup — even on a single-core CI runner.

Asserted invariants: the thread backend (4 jobs) beats the serial backend
by a comfortable margin on the 12-tenant × 4-machine fleet, and both
produce the *same answer* (``FleetReport.canonical_dict``).  Wired into
the CI benchmark-smoke job with a wall-clock ceiling like the other
benchmarks: a regression past it means the solves stopped overlapping
(or the shared cache stopped deduplicating the probe work that keeps the
total RPC count low).
"""

import time

from conftest import run_once

from repro.api.strategies import COST_FUNCTIONS
from repro.experiments.fleet import build_fleet_problem
from repro.fleet import FleetAdvisor, FleetProblem
from repro.parallel import SimulatedRpcWhatIfEstimator

N_TENANTS = 12
N_MACHINES = 4
JOBS = 4

#: Simulated optimizer round trip per batch evaluation.  Large enough that
#: the ~200 RPCs of a cold fleet solve dominate the in-process compute,
#: small enough to keep the benchmark quick.
RPC_LATENCY_SECONDS = 0.01

#: The thread run must finish in at most this fraction of the serial run;
#: measured ratio is ~0.55, so 0.8 absorbs scheduler noise without letting
#: a non-overlapping regression through.
SPEEDUP_GATE = 0.8

if "what-if-rpc-bench" not in COST_FUNCTIONS:
    COST_FUNCTIONS.register(
        "what-if-rpc-bench",
        lambda problem, **_ignored: SimulatedRpcWhatIfEstimator(
            problem, RPC_LATENCY_SECONDS
        ),
    )


def _fleet_problem() -> FleetProblem:
    base = build_fleet_problem(n_tenants=N_TENANTS, n_machines=N_MACHINES)
    data = base.to_dict()
    # A coarse calibration grid keeps the (un-benchmarked) one-time
    # calibration step cheap; the RPC latency applies to what-if calls only.
    data["calibration"] = {"cpu_shares": [0.25, 0.5, 0.75, 1.0]}
    return FleetProblem.from_dict(data)


def _solve_cold(backend: str, jobs: int):
    """One cold-cache fleet solve on a fresh advisor, timed."""
    advisor = FleetAdvisor(
        delta=0.25, cost_function="what-if-rpc-bench", backend=backend, jobs=jobs
    )
    problem = _fleet_problem()
    started = time.perf_counter()
    report = advisor.recommend(problem)
    elapsed = time.perf_counter() - started
    advisor.backend.close()
    return report, elapsed


def _serial_vs_thread():
    serial_report, serial_seconds = _solve_cold("serial", 1)
    thread_report, thread_seconds = _solve_cold("thread", JOBS)
    return serial_report, serial_seconds, thread_report, thread_seconds


def test_fleet_parallel_thread_beats_serial(benchmark):
    serial_report, serial_seconds, thread_report, thread_seconds = run_once(
        benchmark, _serial_vs_thread
    )

    speedup = serial_seconds / thread_seconds if thread_seconds > 0 else float("inf")
    print(
        f"\nParallel fleet solve — {N_TENANTS} tenants × {N_MACHINES} machines, "
        f"{RPC_LATENCY_SECONDS * 1000:.0f} ms simulated optimizer RPC:\n"
        f"  serial          {serial_seconds:.3f} s "
        f"({serial_report.cost_stats.evaluations} evaluations)\n"
        f"  thread (jobs={JOBS}) {thread_seconds:.3f} s  → {speedup:.2f}x"
    )

    # The whole point of the subsystem: overlapping the RPC-shaped what-if
    # latency across independent solves is a real wall-clock win ...
    assert thread_seconds < serial_seconds * SPEEDUP_GATE
    # ... that does not change the answer by a single bit.
    assert thread_report.canonical_dict() == serial_report.canonical_dict()
    assert thread_report.backend == "thread" and thread_report.jobs == JOBS
