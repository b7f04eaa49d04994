"""Pluggable strategy interfaces and registries for the advisor service.

The paper's pipeline (Figure 3) is a composition of three exchangeable
pieces: a configuration *enumerator*, a *cost function* answering what-if
questions, and a *refinement* procedure correcting the cost model online.
The seed code hard-wired concrete classes; this module extracts the
interfaces as :class:`typing.Protocol`\\ s and provides string-keyed
registries so :class:`repro.api.Advisor` can accept either instances or
names (``"greedy"``, ``"exhaustive"``, ``"exhaustive-dp"``, ``"what-if"``,
``"actual"``, ``"what-if-rpc"``, ``"basic"``, ``"generalized"``), and
downstream code can register its own strategies without touching the
advisor.  The ``"exhaustive-dp"`` search finds the same optimum as
``"exhaustive"`` via an exact dynamic program; the brute force is kept for
cross-checking.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Protocol, runtime_checkable

from ..core.cost_estimator import (
    ActualCostFunction,
    CostFunction,
    WhatIfCostEstimator,
)
from ..core.enumerator import (
    DynamicProgrammingSearch,
    EnumerationResult,
    ExhaustiveSearch,
    GreedyConfigurationEnumerator,
)
from ..core.problem import ResourceAllocation, VirtualizationDesignProblem
from ..core.refinement import (
    BasicOnlineRefinement,
    GeneralizedOnlineRefinement,
    RefinementResult,
)
from ..exceptions import ConfigurationError


class UnknownStrategyError(ConfigurationError):
    """Raised when a strategy name is not present in its registry."""


# ----------------------------------------------------------------------
# Protocols (extracted from repro.core.enumerator / cost_estimator /
# refinement)
# ----------------------------------------------------------------------
@runtime_checkable
class EnumerationStrategy(Protocol):
    """Searches the allocation space for the cheapest feasible allocation."""

    delta: float
    min_share: float

    def enumerate(
        self,
        problem: VirtualizationDesignProblem,
        cost_function: "CostFunctionLike",
    ) -> EnumerationResult:
        """Return the recommended allocations for ``problem``."""
        ...


@runtime_checkable
class CostFunctionLike(Protocol):
    """``Cost(W_i, R_i)`` in seconds, plus the derived totals.

    Satisfied both by :class:`repro.core.cost_estimator.CostFunction`
    subclasses and by :class:`repro.api.cache.CachedCostFunction`.
    """

    problem: VirtualizationDesignProblem

    def cost(self, tenant_index: int, allocation: ResourceAllocation) -> float: ...

    def weighted_cost(
        self, tenant_index: int, allocation: ResourceAllocation
    ) -> float: ...

    def total_cost(self, allocations) -> float: ...

    def total_weighted_cost(self, allocations) -> float: ...

    def degradation(
        self, tenant_index: int, allocation: ResourceAllocation
    ) -> float: ...


@runtime_checkable
class RefinementStrategy(Protocol):
    """Online refinement of the advisor's cost models (Section 5)."""

    def run(self, initial: Optional[EnumerationResult] = None) -> RefinementResult:
        """Refine until convergence (or the iteration bound) and report."""
        ...


# ----------------------------------------------------------------------
# Registries
# ----------------------------------------------------------------------
class StrategyRegistry:
    """A name → factory mapping for one kind of strategy.

    Factories are called with keyword arguments only; they should accept
    and ignore options irrelevant to them so one set of advisor knobs can
    be forwarded to any strategy.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._factories: Dict[str, Callable[..., Any]] = {}

    @staticmethod
    def _normalize(name: str) -> str:
        return name.strip().lower()

    def register(
        self, name: str, factory: Callable[..., Any], overwrite: bool = False
    ) -> None:
        """Register a strategy factory under ``name``."""
        key = self._normalize(name)
        if not key:
            raise ConfigurationError(f"{self.kind} strategy name must be non-empty")
        if key in self._factories and not overwrite:
            raise ConfigurationError(
                f"{self.kind} strategy {name!r} is already registered; "
                f"pass overwrite=True to replace it"
            )
        self._factories[key] = factory

    def names(self) -> List[str]:
        """Registered strategy names, sorted."""
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        return self._normalize(name) in self._factories

    def create(self, name: str, **options: Any) -> Any:
        """Instantiate the named strategy, forwarding ``options``."""
        factory = self._factories.get(self._normalize(name))
        if factory is None:
            raise UnknownStrategyError(
                f"unknown {self.kind} strategy {name!r}; "
                f"registered strategies: {', '.join(self.names())}"
            )
        return factory(**options)


#: Registry of configuration enumerators (``enumerator=`` on the Advisor).
ENUMERATORS = StrategyRegistry("enumerator")

#: Registry of cost functions (``cost_function=`` on the Advisor).
COST_FUNCTIONS = StrategyRegistry("cost function")

#: Registry of online-refinement procedures (``refinement=`` on the Advisor).
REFINEMENTS = StrategyRegistry("refinement")


# ----------------------------------------------------------------------
# Built-in strategies
# ----------------------------------------------------------------------
def _make_greedy(
    delta: float = 0.05,
    min_share: float = 0.05,
    max_iterations: int = 500,
    **_ignored: Any,
) -> GreedyConfigurationEnumerator:
    return GreedyConfigurationEnumerator(
        delta=delta, min_share=min_share, max_iterations=max_iterations
    )


def _make_exhaustive(
    delta: float = 0.05,
    min_share: float = 0.05,
    max_combinations: int = 2_000_000,
    **_ignored: Any,
) -> ExhaustiveSearch:
    return ExhaustiveSearch(
        delta=delta, min_share=min_share, max_combinations=max_combinations
    )


def _make_exhaustive_dp(
    delta: float = 0.05,
    min_share: float = 0.05,
    **_ignored: Any,
) -> DynamicProgrammingSearch:
    return DynamicProgrammingSearch(delta=delta, min_share=min_share)


def _make_what_if(problem: VirtualizationDesignProblem, **_ignored: Any) -> CostFunction:
    return WhatIfCostEstimator(problem)


def _make_actual(
    problem: VirtualizationDesignProblem,
    io_contention_intensity: float = 1.0,
    **_ignored: Any,
) -> CostFunction:
    return ActualCostFunction(
        problem, io_contention_intensity=io_contention_intensity
    )


def _make_what_if_rpc(
    problem: VirtualizationDesignProblem,
    rpc_latency_seconds: Optional[float] = None,
    **_ignored: Any,
) -> CostFunction:
    # Imported on create: the simulated-RPC estimator is a benchmarking
    # aid that lives with the parallel backends it exercises.
    from ..parallel.simulated import (
        DEFAULT_RPC_LATENCY_SECONDS,
        SimulatedRpcWhatIfEstimator,
    )

    if rpc_latency_seconds is None:
        rpc_latency_seconds = DEFAULT_RPC_LATENCY_SECONDS
    return SimulatedRpcWhatIfEstimator(
        problem, rpc_latency_seconds=rpc_latency_seconds
    )


def _make_basic_refinement(
    problem: VirtualizationDesignProblem,
    estimator: CostFunctionLike,
    actual_costs: CostFunctionLike,
    enumerator: Optional[EnumerationStrategy] = None,
    max_iterations: int = 8,
    **_ignored: Any,
) -> BasicOnlineRefinement:
    return BasicOnlineRefinement(
        problem, estimator, actual_costs,
        enumerator=enumerator, max_iterations=max_iterations,
    )


def _make_generalized_refinement(
    problem: VirtualizationDesignProblem,
    estimator: CostFunctionLike,
    actual_costs: CostFunctionLike,
    enumerator: Optional[EnumerationStrategy] = None,
    max_iterations: int = 8,
    **_ignored: Any,
) -> GeneralizedOnlineRefinement:
    return GeneralizedOnlineRefinement(
        problem, estimator, actual_costs,
        enumerator=enumerator, max_iterations=max_iterations,
    )


ENUMERATORS.register("greedy", _make_greedy)
ENUMERATORS.register("exhaustive", _make_exhaustive)
ENUMERATORS.register("exhaustive-dp", _make_exhaustive_dp)
COST_FUNCTIONS.register("what-if", _make_what_if)
COST_FUNCTIONS.register("actual", _make_actual)
COST_FUNCTIONS.register("what-if-rpc", _make_what_if_rpc)
REFINEMENTS.register("basic", _make_basic_refinement)
REFINEMENTS.register("generalized", _make_generalized_refinement)
