"""What each entry point loads: imports follow use.

Every check runs in a fresh interpreter, because the pytest process itself
has long since imported every tier.  The layering rule they pin down
(``docs/architecture.md``): at import time a module imports only lower
tiers; upper tiers and optional backends are imported where they are used.
So the advisor path never loads the fleet, trace, parallel, or serving
tiers, the fleet path never loads the trace or serving tiers, and
``python -m repro --version`` loads next to nothing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Dict, List

import pytest

import repro

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Heavy standard-library modules only the serving tier needs (no tier
#: needs multiprocessing: every backend runs in-process).
STDLIB_UPPER = ("asyncio", "http.server", "multiprocessing")

#: The registries, by module and name.
REGISTRIES = (
    ("repro.api.strategies", "ENUMERATORS"),
    ("repro.api.strategies", "COST_FUNCTIONS"),
    ("repro.api.strategies", "REFINEMENTS"),
    ("repro.fleet.strategies", "PLACEMENTS"),
    ("repro.parallel.backends", "BACKENDS"),
)

#: Imports every module of the package.
_IMPORT_EVERYTHING = """
import importlib, pkgutil, repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
"""

_REPORT_MODULES = """
import json, sys
print(json.dumps(sorted(sys.modules)))
"""


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )


def modules_after(code: str) -> List[str]:
    """``sys.modules`` of a fresh interpreter after running ``code``."""
    return json.loads(_python("-c", code + _REPORT_MODULES).stdout)


def loaded(modules: List[str], *names: str) -> List[str]:
    """The ``names`` (packages or modules) of which anything is loaded."""
    return sorted(
        name
        for name in names
        if any(module == name or module.startswith(name + ".") for module in modules)
    )


def test_bare_import_loads_no_subpackage_and_resolves_every_export():
    modules = modules_after(
        "import repro\n"
        "import sys\n"
        "lean = sorted(m for m in sys.modules if m.startswith('repro'))\n"
        "assert lean == ['repro'], lean\n"
        "missing = [n for n in repro.__all__ if not hasattr(repro, n)]\n"
        "assert not missing, missing\n"
        "from repro import *\n"
    )
    # Resolving the exports loads the tiers behind them, on demand.
    assert loaded(modules, "repro.fleet", "repro.service") == [
        "repro.fleet", "repro.service",
    ]


def test_advisor_path_loads_no_upper_tier():
    modules = modules_after("from repro.api import Advisor, Scenario")
    assert loaded(
        modules,
        "repro.fleet",
        "repro.parallel",
        "repro.service",
        "repro.traces",
        "repro.loadgen",
        *STDLIB_UPPER,
    ) == []
    assert "repro.api.advisor" in modules


def test_fleet_path_loads_no_trace_or_serving_tier():
    modules = modules_after("from repro.fleet import FleetAdvisor")
    assert loaded(
        modules,
        "repro.service",
        "repro.traces",
        "repro.loadgen",
        *STDLIB_UPPER,
    ) == []
    assert "repro.parallel.backends" in modules


def test_version_flag_loads_only_the_cli_and_the_exceptions():
    completed = _python("-X", "importtime", "-m", "repro", "--version")
    assert completed.stdout.strip() == f"repro {repro.__version__}"
    # -X importtime logs every module the run imports, one per line:
    # "import time: <self> | <cumulative> | <indented module name>".
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in completed.stderr.splitlines()
        if line.startswith("import time:") and line.count("|") == 2
    }
    ours = sorted(name for name in imported if name.split(".")[0] == "repro")
    assert set(ours) <= {"repro", "repro.__main__", "repro.exceptions"}, ours
    assert "repro" in ours


def test_recommend_command_loads_no_upper_tier(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "resources": ["cpu"],
        "calibration": {"cpu_shares": [0.5, 1.0]},
        "advisor": {"delta": 0.5},
        "tenants": [{"name": "a", "engine": "db2", "statements": [["q18", 1.0]]}],
    }), encoding="utf-8")
    modules = modules_after(
        "from repro.__main__ import main\n"
        f"assert main(['recommend', {str(scenario)!r}, '-o', {os.devnull!r}]) == 0\n"
    )
    assert loaded(
        modules,
        "repro.fleet",
        "repro.parallel",
        "repro.service",
        "repro.traces",
        "repro.loadgen",
        *STDLIB_UPPER,
    ) == []


def _registry_names(module: str, name: str, prelude: str = "") -> List[str]:
    code = (
        f"{prelude}import json\n"
        f"from {module} import {name}\n"
        f"print(json.dumps({name}.names()))\n"
    )
    return json.loads(_python("-c", code).stdout)


@pytest.mark.parametrize("module,name", REGISTRIES)
def test_registry_lists_the_same_names_after_a_lean_import(module, name):
    # Each name is registered in the registry's own package, so importing
    # just that package sees every built-in strategy.
    lean = _registry_names(module, name)
    everything = _registry_names(module, name, prelude=_IMPORT_EVERYTHING)
    assert lean == everything
    assert {
        "COST_FUNCTIONS": "what-if-rpc",
        "BACKENDS": "thread",
        "PLACEMENTS": "bnb-fleet",
        "ENUMERATORS": "exhaustive-dp",
        "REFINEMENTS": "generalized",
    }[name] in lean
