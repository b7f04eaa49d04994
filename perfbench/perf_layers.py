"""Per-layer timing from outside the program.

:class:`LayerTracer` replaces public entry points of the ``repro`` layers
(methods on classes, functions in modules) with thin wrappers that record,
per layer, the number of calls, the inclusive seconds, and the self
seconds: inclusive time minus the time spent in *other* wrapped layers
nested inside the call.  Nothing under ``src/`` is changed; the wrappers
are installed from the benchmark's own files and removed afterwards, and
:meth:`LayerTracer.uninstall` checks that every original is back.

Rules the numbers follow:

* A call into a layer that is already active on the same thread is passed
  straight through: a nested call is counted once, by its outermost entry.
* Nesting is tracked per thread.  Work a layer hands to another thread
  (the thread solver backend, the HTTP server's handler threads) is
  recorded as top-level work of that thread, and the waiting thread's
  self time includes the wait.
* ``top_seconds`` sums the calls made with no wrapped layer active, so
  ``top_seconds / wall`` is the share of a region the wrapped layers
  account for.
* The metrics in :data:`SHARED_COUNTER_METRICS` are before/after readings
  of counters shared by all threads (a cost cache's hits, an engine's
  plan-cache hits).  They are exact only while one thread at a time calls
  the layer; with concurrent callers each delta also takes in the other
  threads' work.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Per-layer metrics read as deltas of counters shared across threads.
SHARED_COUNTER_METRICS = (
    "cost_cache.hit_ratio",
    "cost_cache.evaluations",
    "dbms.plan_cache_hit_ratio",
)

#: ``before(args) -> state`` runs before an outermost call and
#: ``after(tracer, args, result, state)`` after it; together they turn
#: counters the program already keeps into per-layer deltas.
Before = Callable[[Tuple[Any, ...]], Any]
After = Callable[["LayerTracer", Tuple[Any, ...], Any, Any], None]


@dataclass
class LayerStats:
    """What one layer did while the tracer was installed."""

    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0


class _Frame:
    __slots__ = ("layer", "child_seconds")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.child_seconds = 0.0


class LayerTracer:
    """Wraps entry points and accumulates :class:`LayerStats` per layer."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self.layers: Dict[str, LayerStats] = {}
        self.counters: Dict[str, float] = {}
        self.top_seconds = 0.0

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        name: str,
        layer: str,
        before: Optional[Before] = None,
        after: Optional[After] = None,
    ) -> None:
        """Replace ``owner.name`` (a class or module attribute) by a wrapper."""
        original = owner.__dict__[name]
        if not callable(original):
            raise TypeError(f"{owner!r}.{name} is not a plain function")
        self.layers.setdefault(layer, LayerStats())
        setattr(owner, name, self._wrapper(original, layer, before, after))
        self._patches.append((owner, name, original))

    def uninstall(self) -> bool:
        """Restore every wrapped attribute; True when all originals are back."""
        restored = True
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
            restored = restored and owner.__dict__[name] is original
        return restored

    def __enter__(self) -> "LayerTracer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def count(self, name: str, amount: float) -> None:
        """Add ``amount`` to a named counter (called from ``after`` hooks)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrapper(
        self,
        original: Callable[..., Any],
        layer: str,
        before: Optional[Before],
        after: Optional[After],
    ) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            if any(frame.layer == layer for frame in stack):
                return original(*args, **kwargs)
            state = before(args) if before is not None else None
            frame = _Frame(layer)
            stack.append(frame)
            started = tracer._clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = tracer._clock() - started
                stack.pop()
                if stack:
                    stack[-1].child_seconds += elapsed
                with tracer._lock:
                    stats = tracer.layers[layer]
                    stats.calls += 1
                    stats.seconds += elapsed
                    stats.self_seconds += elapsed - frame.child_seconds
                    if not stack:
                        tracer.top_seconds += elapsed
            if after is not None:
                after(tracer, args, result, state)
            return result

        return traced


# ----------------------------------------------------------------------
# The repro layers
# ----------------------------------------------------------------------
def _memo_hit(tracer: LayerTracer, args: Tuple[Any, ...], result: Any, state: Any) -> None:
    tracer.count("solve_memo.hits", 0 if result is None else 1)


def _cache_before(args: Tuple[Any, ...]) -> Tuple[int, int, int]:
    costs = args[0]
    return costs.cache.hits, costs.cache.misses, costs.evaluations


def _cache_after(
    tracer: LayerTracer, args: Tuple[Any, ...], result: Any, state: Tuple[int, int, int]
) -> None:
    costs = args[0]
    hits, misses, evaluations = state
    tracer.count("cost_cache.hits", costs.cache.hits - hits)
    tracer.count("cost_cache.misses", costs.cache.misses - misses)
    tracer.count("cost_cache.evaluations", costs.evaluations - evaluations)


def _plan_hits_before(args: Tuple[Any, ...]) -> int:
    return args[0].plan_cache_hit_count()


def _plan_hits_after(
    tracer: LayerTracer, args: Tuple[Any, ...], result: Any, state: int
) -> None:
    tracer.count("dbms.plan_cache_hits", args[0].plan_cache_hit_count() - state)


def install_repro_layers(tracer: LayerTracer) -> LayerTracer:
    """Wrap the public entry point of every layer the benchmark reports.

    Layers: ``fleet.place`` (every placement strategy's ``place``),
    ``fleet.solve_machine``, ``solve_memo.get``, ``advisor.recommend``,
    ``enumerator`` (DP and greedy), ``cost_cache`` (batched and single
    lookups), ``calibration.estimate_many``, ``calibration.calibrate``,
    and ``dbms.estimate_query``.
    """
    import repro
    import repro.api.builder
    import repro.calibration
    import repro.calibration.calibrator as calibrator
    from repro.api import Advisor
    from repro.api.cache import CachedCostFunction
    from repro.core.enumerator import (
        DynamicProgrammingSearch,
        GreedyConfigurationEnumerator,
    )
    from repro.dbms.interface import DatabaseEngine
    from repro.fleet import FleetAdvisor, SolveMemo
    from repro.fleet.bnb import BranchAndBoundPlacement
    from repro.fleet.strategies import (
        ExhaustiveFleetPlacement,
        FirstFitPlacement,
        GreedyCostPlacement,
        LocalSearchPlacement,
        RoundRobinPlacement,
    )

    for strategy in (
        RoundRobinPlacement,
        FirstFitPlacement,
        GreedyCostPlacement,
        LocalSearchPlacement,
        ExhaustiveFleetPlacement,
        BranchAndBoundPlacement,
    ):
        tracer.wrap(strategy, "place", "fleet.place")
    tracer.wrap(FleetAdvisor, "solve_machine", "fleet.solve_machine")
    tracer.wrap(SolveMemo, "get", "solve_memo.get", after=_memo_hit)
    tracer.wrap(Advisor, "recommend", "advisor.recommend")
    tracer.wrap(DynamicProgrammingSearch, "enumerate", "enumerator")
    tracer.wrap(GreedyConfigurationEnumerator, "enumerate", "enumerator")
    for method in ("cost_many", "cost"):
        tracer.wrap(
            CachedCostFunction, method, "cost_cache",
            before=_cache_before, after=_cache_after,
        )
    tracer.wrap(
        calibrator.EngineCalibration,
        "estimate_workload_seconds_many",
        "calibration.estimate_many",
    )
    # calibrate_engine is a module function: wrap every module-level name
    # that refers to it, so each import site sees the wrapper.
    original = calibrator.calibrate_engine
    for module in (calibrator, repro.calibration, repro.api.builder, repro):
        if module.__dict__.get("calibrate_engine") is original:
            tracer.wrap(module, "calibrate_engine", "calibration.calibrate")
    tracer.wrap(
        DatabaseEngine, "estimate_query", "dbms.estimate_query",
        before=_plan_hits_before, after=_plan_hits_after,
    )
    return tracer


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: LayerTracer) -> Dict[str, float]:
    """The per-layer metrics of the library layers, by benchmark name."""
    layers = tracer.layers
    counters = tracer.counters

    def stats(layer: str) -> LayerStats:
        return layers.get(layer, LayerStats())

    metrics: Dict[str, float] = {"fleet.place_s": stats("fleet.place").seconds}
    for layer, prefix, with_self in (
        ("fleet.solve_machine", "fleet.solve_machine", True),
        ("solve_memo.get", "solve_memo.get", False),
        ("advisor.recommend", "advisor.recommend", True),
        ("enumerator", "enumerator", True),
        ("cost_cache", "cost_cache", True),
        ("calibration.estimate_many", "calibration.estimate_many", True),
        ("dbms.estimate_query", "dbms.estimate_query", False),
    ):
        layer_stats = stats(layer)
        metrics[f"{prefix}.calls"] = layer_stats.calls
        metrics[f"{prefix}.s"] = layer_stats.seconds
        if with_self:
            metrics[f"{prefix}.self_s"] = layer_stats.self_seconds
    metrics["solve_memo.hit_ratio"] = _ratio(
        counters.get("solve_memo.hits", 0), stats("solve_memo.get").calls
    )
    hits = counters.get("cost_cache.hits", 0)
    metrics["cost_cache.hit_ratio"] = _ratio(
        hits, hits + counters.get("cost_cache.misses", 0)
    )
    metrics["cost_cache.evaluations"] = counters.get("cost_cache.evaluations", 0)
    metrics["calibration.calibrate_s"] = stats("calibration.calibrate").seconds
    metrics["dbms.plan_cache_hit_ratio"] = _ratio(
        counters.get("dbms.plan_cache_hits", 0), stats("dbms.estimate_query").calls
    )
    return metrics
