"""A what-if estimator that models the production optimizer RPC.

In the paper's deployment the what-if cost function is not an in-process
computation: every ``Cost(W_i, R_i)`` question is an RPC to a real DBMS
query optimizer (§7.2 measures exactly that overhead).  The pure-Python
reproduction answers the same question in-process, which hides the one
property fleet-scale parallelism exploits: optimizer calls are *latency*,
and concurrent solves overlap it.

:class:`SimulatedRpcWhatIfEstimator` restores that property for
benchmarks and demos.  It returns bit-identical values to the plain
:class:`~repro.core.cost_estimator.WhatIfCostEstimator` (it shares the
cache namespace, so the two interoperate in one shared cache) but sleeps
``rpc_latency_seconds`` per *underlying* evaluation call — one round
trip per batched ``cost_many`` request, matching a batched what-if API —
releasing the GIL the way a socket read would.  On top of it, the thread
backend shows genuine wall-clock speedup even on a single-core GIL
interpreter, which is what ``benchmarks/test_fleet_parallel.py`` asserts.

Registered as ``cost_function="what-if-rpc"`` (default 2 ms latency) in
:mod:`repro.api.strategies`, whose factory imports this module on first
use.  Register your own latency for experiments::

    from repro.api.strategies import COST_FUNCTIONS
    COST_FUNCTIONS.register(
        "what-if-rpc-50ms",
        lambda problem, **_: SimulatedRpcWhatIfEstimator(problem, 0.05),
    )
"""

from __future__ import annotations

import time
from typing import List, Sequence

from ..core.cost_estimator import WhatIfCostEstimator
from ..core.problem import ResourceAllocation, VirtualizationDesignProblem

#: Default simulated round-trip latency: small enough to keep benchmarks
#: quick, large enough to dominate the in-process evaluation time.
DEFAULT_RPC_LATENCY_SECONDS = 0.002


class SimulatedRpcWhatIfEstimator(WhatIfCostEstimator):
    """What-if estimation with a simulated optimizer round-trip latency."""

    def __init__(
        self,
        problem: VirtualizationDesignProblem,
        rpc_latency_seconds: float = DEFAULT_RPC_LATENCY_SECONDS,
    ) -> None:
        super().__init__(problem)
        self.rpc_latency_seconds = rpc_latency_seconds

    # Latency does not change the values, so sharing the parent's cache
    # namespace is sound — cached answers need no round trip, exactly as a
    # client-side result cache would behave in front of the real RPC.
    # (Without this pin the shared-cache layer would namespace entries by
    # the subclass name and the two estimators would stop interoperating.)
    cache_namespace = WhatIfCostEstimator.__name__

    def _cost(self, tenant_index: int, allocation: ResourceAllocation) -> float:
        time.sleep(self.rpc_latency_seconds)
        return super()._cost(tenant_index, allocation)

    def _cost_many(
        self, tenant_index: int, allocations: Sequence[ResourceAllocation]
    ) -> List[float]:
        # One round trip per batch: the batched what-if API ships all
        # allocations of a cost table in a single request.
        time.sleep(self.rpc_latency_seconds)
        return WhatIfCostEstimator._cost_many(self, tenant_index, allocations)
