"""Parallel solver execution: pluggable backends for independent solves.

The fleet advisor, the trace replayers, and the CLI fan their independent
per-machine solves out through a :class:`~repro.parallel.backends.SolverBackend`
selected by name (``"serial"`` / ``"thread"``) from the open
:data:`~repro.parallel.backends.BACKENDS` registry — see
``docs/parallel.md`` for the subsystem guide and the determinism contract
(every backend returns the serial answer, bit for bit, under
``canonical_dict()``).
"""

from importlib import import_module
from typing import Any

from .backends import (
    BACKENDS,
    DEFAULT_THREAD_JOBS,
    BackendSpec,
    SerialBackend,
    SolverBackend,
    ThreadBackend,
    resolve_backend,
)

#: Exports resolved on first attribute access (PEP 562): the simulated-RPC
#: estimator is a benchmarking aid and does not load unless asked for.
_LAZY_EXPORTS = {
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
    "BACKENDS",
    "BackendSpec",
    "DEFAULT_RPC_LATENCY_SECONDS",
    "DEFAULT_THREAD_JOBS",
    "SerialBackend",
    "SimulatedRpcWhatIfEstimator",
    "SolverBackend",
    "ThreadBackend",
    "resolve_backend",
]
