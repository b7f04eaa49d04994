"""Parallel solver execution: pluggable backends for independent solves.

The fleet advisor, the trace replayers, and the CLI fan their independent
per-machine solves out through a :class:`~repro.parallel.backends.SolverBackend`
selected by name (``"serial"`` / ``"thread"`` / ``"process"`` /
``"asyncio"``) from the open
:data:`~repro.parallel.backends.BACKENDS` registry — see
``docs/parallel.md`` for the subsystem guide and the determinism contract
(every backend returns the serial answer, bit for bit, under
``canonical_dict()``).  The ``asyncio`` backend additionally exposes the
awaitable face (:meth:`~repro.parallel.aio.AsyncioBackend.run_async`) the
serving tier (:mod:`repro.service`) multiplexes requests over.
"""

from importlib import import_module
from typing import Any

from .backends import (
    BACKENDS,
    DEFAULT_THREAD_JOBS,
    BackendSpec,
    ProcessBackend,
    SerialBackend,
    SolveTask,
    SolverBackend,
    ThreadBackend,
    resolve_backend,
)

#: Exports resolved on first attribute access (PEP 562): the asyncio
#: backend pulls in :mod:`asyncio`, and the simulated-RPC estimator is a
#: benchmarking aid; neither loads unless asked for.
_LAZY_EXPORTS = {
    "AsyncioBackend": ".aio",
    "DEFAULT_RPC_LATENCY_SECONDS": ".simulated",
    "SimulatedRpcWhatIfEstimator": ".simulated",
}


def __getattr__(name: str) -> Any:
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "AsyncioBackend",
    "BACKENDS",
    "BackendSpec",
    "DEFAULT_RPC_LATENCY_SECONDS",
    "DEFAULT_THREAD_JOBS",
    "ProcessBackend",
    "SerialBackend",
    "SimulatedRpcWhatIfEstimator",
    "SolveTask",
    "SolverBackend",
    "ThreadBackend",
    "resolve_backend",
]
