"""Cold-start benchmark — a fresh advisor process, spawn to calibrated engines.

The advisor is meant to run on demand as a tool (§7.2 counts what each
run costs), so every run first pays a cold start: interpreter spawn, the
imports of the advisor path, and calibrating the engines.  Imports follow
use (``docs/architecture.md``), so this path loads the single-machine
tiers only — never the fleet, trace, parallel, or serving tiers.

Times the median of ``SPAWNS`` fresh interpreters, each importing
:mod:`repro.api`, reading a two-engine scenario, and calibrating both
engines, and checks that no upper tier was loaded on the way.  Wired into
the CI benchmark-smoke job with a wall-clock ceiling like the other
benchmarks.
"""

import json
import os
import statistics
import subprocess
import sys
import time

from conftest import run_once

import repro

SPAWNS = 5

#: A two-tenant scenario, one tenant per engine, on the builder's
#: default calibration grid.
SCENARIO = {
    "name": "cold-start",
    "resources": ["cpu", "memory"],
    "tenants": [
        {"name": "pg", "engine": "postgresql", "statements": [["q17", 1.0]]},
        {"name": "db2", "engine": "db2", "statements": [["q18", 1.0]]},
    ],
}

#: Packages the advisor path must not load.
UPPER_TIERS = (
    "repro.fleet", "repro.parallel", "repro.service", "repro.traces", "repro.loadgen",
)

CHILD = f"""
from repro.api import Scenario

builder = Scenario.from_dict({SCENARIO!r}).to_builder()
for engine in ("postgresql", "db2"):
    builder.calibration(engine)

import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "repro")))
"""


def _spawn() -> tuple:
    """One cold start: (seconds, repro modules the child loaded)."""
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return time.perf_counter() - started, json.loads(completed.stdout)


def _cold_starts():
    runs = [_spawn() for _ in range(SPAWNS)]
    return statistics.median(seconds for seconds, _ in runs), runs[-1][1]


def test_cold_start_advisor_calibrates_without_upper_tiers(benchmark):
    median_seconds, modules = run_once(benchmark, _cold_starts)
    print(
        f"\nCold start — spawn, import repro.api, calibrate postgresql + db2:\n"
        f"  median of {SPAWNS} spawns: {median_seconds:.3f}s, "
        f"{len(modules)} repro modules loaded"
    )
    assert [m for m in modules if ".".join(m.split(".")[:2]) in UPPER_TIERS] == []
    assert "repro.calibration.calibrator" in modules
