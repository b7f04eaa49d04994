"""Seeded input documents for the benchmark workloads.

Every document is plain JSON data in the formats the program reads
(``FleetProblem`` and ``Scenario`` documents); the program never sees the
seed.  Each generator takes ``(seed, index)`` and draws from its own
``random.Random`` stream, so the same pair always gives the same document
and documents never depend on how many others were drawn before them.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

#: The coarse calibration grid every fleet document uses: 4 CPU shares
#: keep the one-time calibration cheap, as in the repo's fleet benchmarks.
COARSE_CALIBRATION = {"cpu_shares": [0.25, 0.5, 0.75, 1.0]}

#: Query mix of the fleet tenants (the same cycle ``build_fleet_problem``
#: uses): an I/O-heavy query, two CPU-heavy ones and a scan aggregate.
FLEET_QUERIES = ("q17", "q18", "q21", "q1")

#: TPC-H templates the single-machine mixes draw from.
GRID_QUERIES = ("q1", "q3", "q5", "q6", "q10", "q12", "q14", "q17", "q18", "q19", "q21")

ENGINES = ("postgresql", "db2")


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _machines(n_machines: int) -> List[Dict[str, Any]]:
    # Every third machine has twice the CPU work-rate and memory, as in
    # build_fleet_problem, so placement has a heterogeneity decision.
    machines = []
    for index in range(n_machines):
        beefy = index % 3 == 2
        machines.append({
            "name": f"machine-{index + 1:02d}",
            "cpu_work_units_per_second": 4_000_000.0 if beefy else 2_000_000.0,
            "memory_mb": 16384.0 if beefy else 8192.0,
        })
    return machines


def fleet_exact_document(seed: int, index: int) -> Dict[str, Any]:
    """A 12-tenant × 4-machine fleet with ``build_fleet_problem``'s shape.

    The tenants are the fixture's twelve (engine alternating, query
    ``i % 4``, intensity ``1 + i % 3``, gain ``1 + i % 4``) under fresh
    names, and the seed deals out the machine order.  The exact search
    does the same work on every such document, so the run-to-run spread
    is the machine's, not the inputs'.  Two alternatives were measured
    and rejected: independently drawn tenant profiles often exhaust the
    branch-and-bound node budget (no proven optimum), and a shuffled
    tenant order changes the nodes explored by up to a quarter.
    """
    rng = _rng("fleet-exact", seed, index)
    machines = _machines(4)
    rng.shuffle(machines)
    tenants = [
        {
            "name": f"tenant-{i + 1:02d}-{rng.randrange(16 ** 4):04x}",
            "engine": ENGINES[i % 2],
            "statements": [[FLEET_QUERIES[i % 4], 1.0 + i % 3]],
            "gain_factor": 1.0 + i % 4,
            "cpu_demand": 400_000.0,
            "memory_demand_mb": 1024.0,
        }
        for i in range(12)
    ]
    return {
        "name": f"fleet-exact-{seed}-{index}",
        "machines": machines,
        "tenants": tenants,
        "calibration": dict(COARSE_CALIBRATION),
    }


def advisor_grid_document(seed: int, index: int) -> Dict[str, Any]:
    """A 6-tenant PostgreSQL/DB2 TPC-H mix on one machine (CPU + memory)."""
    rng = _rng("advisor-grid", seed, index)
    tenants = []
    for position in range(6):
        queries = rng.sample(GRID_QUERIES, 2)
        tenants.append({
            "name": f"tenant-{position + 1}",
            "engine": ENGINES[position % 2],
            "statements": [[query, float(rng.randint(1, 4))] for query in queries],
            "gain_factor": float(rng.randint(1, 3)),
        })
    return {
        "name": f"advisor-grid-{seed}-{index}",
        "resources": ["cpu", "memory"],
        "advisor": {"enumerator": "exhaustive-dp", "delta": 0.05},
        "tenants": tenants,
    }


def serve_warm_document(seed: int) -> Dict[str, Any]:
    """The small scenario most serve requests repeat (a cache read)."""
    rng = _rng("serve-warm", seed, 0)
    return {
        "name": f"serve-warm-{seed}",
        "resources": ["cpu"],
        "calibration": dict(COARSE_CALIBRATION),
        "advisor": {"delta": 0.25},
        "tenants": [
            {
                "name": f"tenant-{position + 1}",
                "engine": "db2",
                "statements": [[rng.choice(FLEET_QUERIES), float(rng.randint(1, 3))]],
            }
            for position in range(2)
        ],
    }


def serve_novel_document(seed: int, index: int) -> Dict[str, Any]:
    """A new 6-tenant × 2-machine fleet: a cache write and a real solve."""
    rng = _rng("serve-novel", seed, index)
    tenants = [
        {
            "name": f"tenant-{position + 1}",
            "engine": ENGINES[position % 2],
            "statements": [[rng.choice(FLEET_QUERIES), float(rng.randint(1, 3))]],
            "gain_factor": float(rng.randint(1, 4)),
            "cpu_demand": 400_000.0,
            "memory_demand_mb": 1024.0,
        }
        for position in range(6)
    ]
    return {
        "name": f"serve-novel-{seed}-{index}",
        "machines": _machines(2),
        "tenants": tenants,
        "calibration": dict(COARSE_CALIBRATION),
    }
