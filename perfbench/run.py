"""The repository benchmark: three workloads, end-to-end and per-layer.

One run of one workload (the form a harness calls)::

    python3 perfbench/run.py --workload fleet-exact --seed 1 --seconds 40 --trace 0

prints every metric with its unit, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``
(measured with no wrappers installed); with ``--trace 1`` they are the
per-layer ones, from a separate run with the layer wrappers of
``perf_layers.py`` installed.  Each run also writes its full record
(inputs, answers, checks, environment) to ``.perfbench/runs/``.

A result set (all workloads, several seeds, plus one traced run each)::

    python3 perfbench/run.py --workload all --seed 1 --rounds 5 --out new.json

and the per-workload, per-metric diff of two sets::

    python3 perfbench/run.py --compare old.json new.json

Workloads (rationale in ``BENCHMARK.json``):

* ``fleet-exact`` and ``advisor-grid`` run the library in a worker
  process (``perf_worker.py``); ``setup_s`` is the median time from
  spawning a worker to its engines being calibrated, over several spawns.
* ``serve-mixed`` runs ``python -m repro serve`` in its own process and
  drives it open-loop from this process with ``repro.loadgen.LoadRunner``
  (at most ``nproc`` client threads) at a low and a high Poisson rate.

Every end-to-end metric is reported on every workload, with this meaning:

* ``solve_s``: a cold solve of a new document.  Library workloads: the
  median over the run's documents of one solve on a fresh advisor
  (on ``fleet-exact`` that includes the fresh advisor's own engine
  calibrations, a few milliseconds).  ``serve-mixed``: the median served
  latency of the new ``/fleet`` documents at the high rate.
* ``resolve_s``: the same document again.  Library workloads: the median
  re-solve on the same advisor.  ``serve-mixed``: the median served
  latency of the repeated ``/recommend`` document at the high rate.
* ``rss_mb``: peak resident memory of the worker or the server process.

A served latency is timed from the moment the client sends the request,
so a wait for a free client thread is left out; the ``low.*``/``high.*``
tail metrics are timed from the scheduled arrival and include it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import perf_inputs  # noqa: E402
import perf_stats  # noqa: E402
from perf_layers import SHARED_COUNTER_METRICS  # noqa: E402

WORKLOAD_NAMES = ("fleet-exact", "advisor-grid", "serve-mixed")

#: Worker spawns per library run that only set up (one more sets up and
#: then does the work), so ``setup_s`` is a median of this many plus one.
SETUP_SPAWNS = 4
#: Throwaway server spawns per serve run, besides the one under load.
SERVE_SETUP_SPAWNS = 3

#: Offered rates (requests/second) of the two serve phases, and the share
#: of ``--seconds`` each phase lasts.  Recorded in BENCHMARK.json too.
SERVE_PHASES = (("low", 30.0, 0.4), ("high", 60.0, 0.6))
#: One request in this many is a new /fleet document.
NOVEL_EVERY = 20
#: A request answered later than this (from its scheduled arrival) does
#: not count towards goodput.  It is a bucket bound of the latency
#: histogram, so the count within it is exact.
LATENCY_LIMIT_S = 0.05

#: Seconds a child process may take to become ready, or to exit.
READY_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 30.0

#: Metrics printed and recorded besides the BENCHMARK.json ones, with the
#: bound the result-set diff applies to them.  They are not end-to-end
#: metrics of BENCHMARK.json because every workload must report those
#: (the serve tails have no library counterpart), because a failure-free
#: run reads 0 for ``error_rate``, and because ``objective`` depends on
#: the seed's documents, not on the code's speed.
EXTRA_METRICS: Dict[str, Dict[str, Any]] = {
    "objective": {"unit": "cost", "better": "lower", "bound": 1e-9},
    "error_rate": {"unit": "ratio", "better": "lower", "bound": 0.0},
    "low.p50_ms": {"unit": "ms", "better": "lower", "bound": 0.25},
    "low.p99_ms": {"unit": "ms", "better": "lower", "bound": 0.25},
    "high.p50_ms": {"unit": "ms", "better": "lower", "bound": 0.25},
    "high.p99_ms": {"unit": "ms", "better": "lower", "bound": 0.25},
    "high.goodput_rps": {"unit": "1/s", "better": "higher", "bound": 0.1},
    "novel.p50_ms": {"unit": "ms", "better": "lower", "bound": 0.25},
}

RUNS_DIR = ROOT / ".perfbench" / "runs"


class BenchmarkError(Exception):
    """The benchmark itself could not run (not a wrong answer)."""


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def load_spec() -> Dict[str, Any]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchmarkError(f"{path} is missing")
    return json.loads(path.read_text(encoding="utf-8"))


def check_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def commit() -> str:
    """The measured commit: git's HEAD, or ``unknown`` outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip()


def environment(seed: int, spec: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "commit": commit(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seed": seed,
        "rationale": {w["name"]: w["why"] for w in spec["workloads"]},
        "serve_phases": [
            {"name": name, "offered_rps": rate, "share_of_seconds": share}
            for name, rate, share in SERVE_PHASES
        ],
        "latency_limit_s": LATENCY_LIMIT_S,
        "novel_every": NOVEL_EVERY,
    }


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def reap(process: subprocess.Popen, timeout: float) -> Tuple[int, float]:
    """Wait for a child; return its exit code and peak RSS in MB.

    ``os.wait4`` is used instead of ``Popen.wait`` because it also returns
    the child's resource usage.  A child that outlives ``timeout`` is
    killed, so its exit code reports the signal.
    """
    deadline = time.monotonic() + timeout
    pid, status, usage = os.wait4(process.pid, os.WNOHANG)
    while not pid and time.monotonic() < deadline:
        time.sleep(0.01)
        pid, status, usage = os.wait4(process.pid, os.WNOHANG)
    if not pid:
        process.kill()
        pid, status, usage = os.wait4(process.pid, 0)
    process.returncode = os.waitstatus_to_exitcode(status)
    for stream in (process.stdout, process.stderr):
        if stream is not None:
            stream.close()
    # ru_maxrss is in kilobytes on Linux.
    return process.returncode, usage.ru_maxrss / 1024.0


def _drain(stream: Any, tail: deque) -> None:
    for line in stream:
        tail.append(line)


def spawn_worker(workload: str, seed: int, seconds: float, trace: bool, setup_only: bool) -> Tuple[subprocess.Popen, float]:
    """Start a library worker; return it and the seconds until it was READY."""
    command = [
        sys.executable, str(HERE / "perf_worker.py"), "library", workload,
        str(seed), repr(seconds), "1" if trace else "0", "1" if setup_only else "0",
    ]
    started = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    line = process.stdout.readline()
    ready = time.perf_counter() - started
    if line.strip() != "READY":
        code, _ = reap(process, EXIT_TIMEOUT_S)
        raise BenchmarkError(f"{workload} worker did not become ready (exit {code})")
    return process, ready


def run_worker(workload: str, seed: int, seconds: float, trace: bool) -> Tuple[Dict[str, Any], List[float], float]:
    """Setup-only spawns, then one working spawn: (result, setup times, RSS MB)."""
    setups = []
    if not trace:
        for _ in range(SETUP_SPAWNS):
            process, ready = spawn_worker(workload, seed, seconds, trace, True)
            process.stdout.read()
            code, _ = reap(process, EXIT_TIMEOUT_S)
            if code != 0:
                raise BenchmarkError(f"{workload} setup worker exited {code}")
            setups.append(ready)
    process, ready = spawn_worker(workload, seed, seconds, trace, False)
    setups.append(ready)
    output = process.stdout.read()
    code, rss_mb = reap(process, seconds + READY_TIMEOUT_S)
    lines = output.strip().splitlines()
    if code != 0 or not lines:
        raise BenchmarkError(f"{workload} worker exited {code}")
    return json.loads(lines[-1]), setups, rss_mb


class Server:
    """``python -m repro serve`` (or its traced twin) in a child process."""

    def __init__(self, layers_out: Optional[Path] = None) -> None:
        if layers_out is None:
            command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        else:
            command = [
                sys.executable, str(HERE / "perf_worker.py"), "serve",
                str(layers_out), "--port", "0",
            ]
        self.tail: deque = deque(maxlen=50)
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stderr=subprocess.PIPE, text=True
        )
        announcement = self.process.stderr.readline()
        match = re.search(r"serving on (http://\S+)", announcement)
        if match is None:
            reap(self.process, EXIT_TIMEOUT_S)
            raise BenchmarkError(f"server did not announce itself: {announcement!r}")
        self.url = match.group(1)
        self._drainer = threading.Thread(
            target=_drain, args=(self.process.stderr, self.tail), daemon=True
        )
        self._drainer.start()
        deadline = time.monotonic() + READY_TIMEOUT_S
        while not self._healthy():
            if time.monotonic() > deadline:
                self.stop()
                raise BenchmarkError("server never answered /healthz")
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - started

    def _healthy(self) -> bool:
        try:
            with urllib.request.urlopen(self.url + "/healthz", timeout=2) as response:
                return response.status == 200
        except OSError:
            return False

    def stop(self) -> Tuple[int, float]:
        """SIGTERM, then wait; returns (exit code, peak RSS MB)."""
        self.process.send_signal(signal.SIGTERM)
        self._drainer.join(timeout=EXIT_TIMEOUT_S)
        return reap(self.process, EXIT_TIMEOUT_S)


# ----------------------------------------------------------------------
# Library workloads
# ----------------------------------------------------------------------
def _per_layer(spec: Mapping[str, Any], layers: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of BENCHMARK.json; 0 for a layer that did nothing."""
    return {metric["name"]: layers.get(metric["name"], 0) for metric in spec["per_layer"]}


def run_library(workload: str, seed: int, seconds: float, trace: bool, spec: Mapping[str, Any]) -> Dict[str, Any]:
    result, setups, rss_mb = run_worker(workload, seed, seconds, trace)
    cycles = result["cycles"]
    problems = list(result["problems"])
    # Run-level checks (objectives agree, tracing changed no answer, every
    # entry point was restored) count as operations besides the solves.
    attempted = result["checks"] + sum(cycle["operations"] for cycle in cycles)
    failed = len(problems)
    for cycle in cycles:
        problems.extend(f"document {cycle['index']}: {problem}" for problem in cycle["problems"])
        failed += min(cycle["operations"], len(cycle["problems"]))
    record: Dict[str, Any] = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "documents": [
            {key: cycle[key] for key in ("index", "solve_s", "resolve_s", "objective", "digest", "nodes")}
            for cycle in cycles
        ],
        "extras": {
            "objective": statistics.median(cycle["objective"] for cycle in cycles),
            "error_rate": failed / attempted,
        },
    }
    if trace:
        record["metrics"] = _per_layer(spec, result["layers"])
        record["tracing"] = {"coverage": result["coverage"], "overhead_s": result["overhead_s"]}
    else:
        record["metrics"] = {
            "setup_s": statistics.median(setups),
            "solve_s": statistics.median(cycle["solve_s"] for cycle in cycles),
            "resolve_s": statistics.median(cycle["resolve_s"] for cycle in cycles),
            "rss_mb": rss_mb,
        }
    return record


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
def _post_json(url: str, document: Mapping[str, Any]) -> Dict[str, Any]:
    request = urllib.request.Request(
        url, data=json.dumps(document).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=REQUEST_TIMEOUT_S) as response:
        return json.loads(response.read())


def _canonical(report: Any) -> str:
    return json.dumps(report.canonical_dict(), sort_keys=True)


def _server_window(before: Any, after: Any) -> Dict[str, Optional[float]]:
    """Server-side request latency over all endpoints between two scrapes."""
    from repro.telemetry.metrics import quantile_from_buckets

    name = "repro_request_latency_seconds"
    merged: Dict[float, int] = {}
    for endpoint in after.values("repro_requests_total", "endpoint"):
        earlier = dict(before.buckets(name, endpoint=endpoint))
        for bound, count in after.buckets(name, endpoint=endpoint):
            merged[bound] = merged.get(bound, 0) + int(count - earlier.get(bound, 0))
    window = sorted(merged.items())
    count = sum(after.values(name + "_count", "endpoint").values()) - sum(
        before.values(name + "_count", "endpoint").values()
    )
    total = sum(after.values(name + "_sum", "endpoint").values()) - sum(
        before.values(name + "_sum", "endpoint").values()
    )
    return {
        "p50_s": quantile_from_buckets(window, 0.5),
        "p99_s": quantile_from_buckets(window, 0.99),
        "mean_s": total / count if count else None,
    }


def quantile(values: Sequence[float], percent: int) -> float:
    """The exact ``percent``-th percentile (inclusive, as numpy's default)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def _recording_runner(*args: Any, **kwargs: Any) -> Any:
    """A ``LoadRunner`` that also keeps every request's outcome.

    The report summarizes latency from histogram buckets (1, 2.5, 5, 10 ms,
    ...), too coarse to compare medians of a few milliseconds; the
    benchmark takes exact quantiles from the individual outcomes instead.
    """
    from repro.loadgen import LoadRunner

    class RecordingRunner(LoadRunner):
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            super().__init__(*args, **kwargs)
            self.outcomes: List[Any] = []
            self._outcomes_lock = threading.Lock()

        def _fire(self, template: Any, due: float) -> Any:
            outcome = super()._fire(template, due)
            with self._outcomes_lock:
                self.outcomes.append(outcome)
            return outcome

    return RecordingRunner(*args, **kwargs)


def _phase(url: str, seed: int, name: str, rate: float, duration: float, novel: List[int]) -> Dict[str, Any]:
    from repro.loadgen import ArrivalSpec, RequestTemplate
    from repro.loadgen.scrape import scrape_server

    rng = random.Random(f"serve-mixed:{seed}:{name}")
    schedule = ArrivalSpec(
        shape="poisson", rate=rate, duration_seconds=duration, seed=rng.randrange(2 ** 31)
    ).schedule()
    warm = RequestTemplate("recommend", perf_inputs.serve_warm_document(seed))
    # One template per arrival (the runner assigns templates round-robin),
    # so each new /fleet document is sent exactly once.
    templates = []
    for _ in schedule.arrivals:
        if rng.randrange(NOVEL_EVERY) == 0:
            templates.append(RequestTemplate(
                "fleet", perf_inputs.serve_novel_document(seed, novel[0])
            ))
            novel[0] += 1
        else:
            templates.append(warm)
    scrape_before = scrape_server(url, REQUEST_TIMEOUT_S)
    runner = _recording_runner(
        url, schedule, templates, workers=nproc(), timeout_seconds=REQUEST_TIMEOUT_S
    )
    report = runner.run()
    scrape_after = scrape_server(url, REQUEST_TIMEOUT_S)
    outcomes = runner.outcomes
    ok = [o for o in outcomes if o.status == "200"]

    def latencies(endpoint: Optional[str]) -> List[float]:
        return [o.latency_seconds for o in outcomes if endpoint in (None, o.endpoint)]

    def served(endpoint: str) -> List[float]:
        return [
            o.latency_seconds - o.send_delay_seconds for o in outcomes if o.endpoint == endpoint
        ]

    return {
        "report": report,
        "failed": len(outcomes) - len(ok) + schedule.n_arrivals - len(outcomes),
        "attempted": schedule.n_arrivals,
        "mean_s": statistics.fmean(latencies(None)),
        "p50_s": quantile(latencies(None), 50),
        "p99_s": quantile(latencies(None), 99),
        "novel_p50_s": quantile(latencies("fleet"), 50),
        "warm_served_p50_s": quantile(served("recommend"), 50),
        "novel_served_p50_s": quantile(served("fleet"), 50),
        "goodput_rps": sum(o.latency_seconds <= LATENCY_LIMIT_S for o in ok) / report.elapsed_seconds,
        "send_delay_p95_s": quantile([o.send_delay_seconds for o in outcomes], 95),
        "server": _server_window(scrape_before, scrape_after),
    }


def _ms(seconds: float) -> float:
    return 1000.0 * seconds


def run_serve(seed: int, seconds: float, trace: bool, spec: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.api import Advisor, RecommendationReport, Scenario

    warm_document = perf_inputs.serve_warm_document(seed)
    scenario = Scenario.from_dict(warm_document)
    expected = _canonical(Advisor(**scenario.advisor).recommend(scenario.build()))

    setups = []
    if not trace:
        for _ in range(SERVE_SETUP_SPAWNS):
            server = Server()
            code, _ = server.stop()
            if code != 0:
                raise BenchmarkError(f"server exited {code} on SIGTERM")
            setups.append(server.setup_s)
    layers_out = RUNS_DIR / f"serve-layers-{os.getpid()}.json" if trace else None
    server = Server(layers_out)
    setups.append(server.setup_s)
    problems: List[str] = []
    phases: Dict[str, Dict[str, Any]] = {}
    novel = [0]
    try:
        served = RecommendationReport.from_dict(_post_json(server.url + "/recommend", warm_document))
        if _canonical(served) != expected:
            problems.append("served answer for the warm document differs from the library's")
        for name, rate, share in SERVE_PHASES:
            phases[name] = _phase(server.url, seed, name, rate, seconds * share, novel)
    finally:
        code, rss_mb = server.stop()
    if code != 0:
        problems.append(f"server exited {code} on SIGTERM: {''.join(server.tail)[-500:]}")
    if trace:
        dumped = json.loads(layers_out.read_text(encoding="utf-8"))
        layers_out.unlink()
        if not dumped["restored"]:
            problems.append("a wrapped entry point was not restored in the server")

    # The checks (warm answer, clean shutdown, restored wrappers) are
    # operations too; a failed check is a failed operation.
    attempted = 2 + int(trace) + sum(phase["attempted"] for phase in phases.values())
    failed = len(problems) + sum(phase["failed"] for phase in phases.values())
    extras: Dict[str, float] = {}
    for name, phase in phases.items():
        if phase["failed"]:
            problems.append(f"{name}: {phase['failed']} failed requests {phase['report'].statuses}")
        extras[f"{name}.p50_ms"] = _ms(phase["p50_s"])
        extras[f"{name}.p99_ms"] = _ms(phase["p99_s"])
    high = phases["high"]
    extras["high.goodput_rps"] = high["goodput_rps"]
    extras["novel.p50_ms"] = _ms(high["novel_p50_s"])
    extras["error_rate"] = failed / attempted
    extras["objective"] = json.loads(expected)["recommendation"]["total_cost"]
    record: Dict[str, Any] = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "extras": extras,
        "phases": {name: phase["report"].to_dict() for name, phase in phases.items()},
        "novel_documents": novel[0],
    }
    if trace:
        server_side = high["report"].server or {}
        cost = server_side.get("delta", {}).get("cost_cache", {})
        lookups = cost.get("cache_hits", 0) + cost.get("cache_misses", 0)
        # The server's handler threads overlap, so the shared-counter
        # deltas would count each other's work; they read 0 here, and
        # service.cost_cache_hit_ratio (from /stats) stands in for them.
        layers = {
            name: value for name, value in dumped["layers"].items()
            if name not in SHARED_COUNTER_METRICS
        }
        layers.update({
            "service.server_p50_ms": _ms(high["server"]["p50_s"]),
            "service.server_p99_ms": _ms(high["server"]["p99_s"]),
            # Client mean minus the request-weighted server mean (the
            # report's own figure averages the per-endpoint means).
            "service.queueing_ms": _ms(high["mean_s"] - high["server"]["mean_s"]),
            "service.inflight_peak": (server_side.get("in_flight") or {}).get("peak", 0),
            "service.cost_cache_hit_ratio": cost.get("cache_hits", 0) / lookups if lookups else 0.0,
            "loadgen.send_delay_p95_ms": _ms(high["send_delay_p95_s"]),
        })
        record["metrics"] = _per_layer(spec, layers)
    else:
        record["metrics"] = {
            "setup_s": statistics.median(setups),
            "solve_s": high["novel_served_p50_s"],
            "resolve_s": high["warm_served_p50_s"],
            "rss_mb": rss_mb,
        }
    return record


# ----------------------------------------------------------------------
# One run, and a result set
# ----------------------------------------------------------------------
def run_once(workload: str, seed: int, seconds: float, trace: bool, spec: Mapping[str, Any]) -> Dict[str, Any]:
    RUNS_DIR.mkdir(parents=True, exist_ok=True)
    if workload == "serve-mixed":
        record = run_serve(seed, seconds, trace, spec)
    else:
        record = run_library(workload, seed, seconds, trace, spec)
    record.update(workload=workload, trace=trace, seconds=seconds, environment=environment(seed, spec))
    path = RUNS_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2, default=str), encoding="utf-8")
    return record


def _units(spec: Mapping[str, Any]) -> Dict[str, str]:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({name: extra["unit"] for name, extra in EXTRA_METRICS.items()})
    return units


def print_record(record: Mapping[str, Any], spec: Mapping[str, Any]) -> None:
    units = _units(spec)
    workload = record["workload"]
    env = record["environment"]
    print(f"# {workload}  seed={env['seed']} trace={int(record['trace'])} "
          f"commit={env['commit']} nproc={env['nproc']} python={env['python']}")
    for name, value in {**record["metrics"], **record["extras"]}.items():
        print(f"{workload:<13} {name:<34} {value:>16.6f} {units[name]}")
    for name, value in record.get("tracing", {}).items():
        print(f"{workload:<13} {'trace.' + name:<34} {value:>16.6f} {'ratio' if name == 'coverage' else 's'}")
    for problem in record["problems"]:
        print(f"{workload:<13} FAILED: {problem}")


def result_line(record: Mapping[str, Any], units: Mapping[str, str]) -> str:
    """The harness's last line: correctness, operation counts, metrics."""
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in record["metrics"].items()
        },
    })


def _cross_run_check(workload: str, untraced: Mapping[str, Any], traced: Mapping[str, Any]) -> Tuple[int, List[str]]:
    """Same seed, same documents: answers and objectives must be identical.

    Returns the number of documents compared and the mismatches found.
    """
    first = {doc["index"]: doc for doc in untraced.get("documents", [])}
    pairs = [(doc, first[doc["index"]]) for doc in traced.get("documents", []) if doc["index"] in first]
    problems = [
        f"{workload} document {doc['index']}: answer differs between runs"
        for doc, other in pairs
        if doc["digest"] != other["digest"] or doc["objective"] != other["objective"]
    ]
    return len(pairs), problems


def run_set(seed: int, rounds: int, seconds: float, spec: Mapping[str, Any]) -> Dict[str, Any]:
    """Every workload over ``rounds`` seeds untraced, plus one traced run."""
    result: Dict[str, Any] = {"environment": environment(seed, spec), "workloads": {}}
    for workload in WORKLOAD_NAMES:
        runs = []
        for offset in range(rounds):
            record = run_once(workload, seed + offset, seconds, False, spec)
            print_record(record, spec)
            runs.append(record)
        traced = run_once(workload, seed, seconds, True, spec)
        print_record(traced, spec)
        records = runs + [traced]
        compared, mismatches = _cross_run_check(workload, runs[0], traced)
        values: Dict[str, List[float]] = {}
        for run in runs:
            for name, value in {**run["metrics"], **run["extras"]}.items():
                values.setdefault(name, []).append(value)
        result["workloads"][workload] = {
            "seeds": [seed + offset for offset in range(rounds)],
            "values": values,
            "summary": {name: perf_stats.summarize(v) for name, v in values.items()},
            "layers": traced["metrics"],
            "tracing": traced.get("tracing", {}),
            "problems": [p for run in records for p in run["problems"]] + mismatches,
            "attempted": compared + sum(run["attempted"] for run in records),
            "failed": len(mismatches) + sum(run["failed"] for run in records),
        }
    return result


def print_set(result: Mapping[str, Any], spec: Mapping[str, Any]) -> None:
    units = _units(spec)
    print("\n# result set " + json.dumps(result["environment"]))
    for workload, entry in result["workloads"].items():
        for name, summary in entry["summary"].items():
            print(f"{workload:<13} {name:<18} median {summary['median']:.6g} "
                  f"[q1 {summary['q1']:.6g}, q3 {summary['q3']:.6g}] "
                  f"spread {perf_stats.spread(summary):.1%} n={summary['n']} {units[name]}")
        for name, value in entry["tracing"].items():
            print(f"{workload:<13} trace.{name:<12} {value:.6g}")
        print(f"{workload:<13} attempted {entry['attempted']} failed {entry['failed']}")
        for problem in entry["problems"]:
            print(f"{workload:<13} FAILED: {problem}")


def metric_specs(spec: Mapping[str, Any]) -> Dict[str, Dict[str, Any]]:
    specs = {m["name"]: dict(m) for m in spec["end_to_end"]}
    specs.update(EXTRA_METRICS)
    return specs


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=5, help="seeds per workload in a result set")
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench" / "results.json")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("OLD", "NEW"),
                        help="diff two existing result sets and exit")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if args.compare:
            old, new = (json.loads(path.read_text(encoding="utf-8")) for path in args.compare)
            print(perf_stats.format_diff(perf_stats.diff_sets(old, new, metric_specs(spec))))
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        check_program()
        seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
        if args.workload == "all":
            result = run_set(args.seed, args.rounds, seconds, spec)
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(json.dumps(result, indent=2), encoding="utf-8")
            print_set(result, spec)
            failed = any(entry["failed"] for entry in result["workloads"].values())
            return 1 if failed else 0
        record = run_once(args.workload, args.seed, seconds, bool(args.trace), spec)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print_record(record, spec)
    print(result_line(record, _units(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
