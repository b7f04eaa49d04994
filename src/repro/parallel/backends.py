"""Pluggable solver-execution backends: serial, thread pool, process pool.

The fleet layer and the trace replayer issue many *independent* solves —
per-machine divisions, greedy-cost placement probes, per-machine dynamic
manager steps — and until this subsystem existed they ran one after
another.  A :class:`SolverBackend` executes a batch of such solves; the
drivers describe each solve as a :class:`SolveTask` and reassemble the
results in deterministic order, so every backend returns the *same answer*
as the serial baseline (see ``FleetReport.canonical_dict``) and differs
only in wall-clock time and cache-traffic accounting.

Backends live behind the same open
:class:`~repro.api.strategies.StrategyRegistry` pattern as the enumerator
/ cost-function / placement registries:

* ``"serial"`` — run tasks inline, in order; the default, and byte-for-byte
  the pre-subsystem behavior.
* ``"thread"`` — a :class:`concurrent.futures.ThreadPoolExecutor`.  All
  state is shared, so solves cooperate through the same memoized problems
  and the thread-safe :class:`~repro.api.cache.CostCache`.  Real speedup
  requires the per-solve work to release the GIL — which the production
  deployment's what-if calls do (they are RPCs to a DBMS optimizer; see
  :mod:`repro.parallel.simulated`).
* ``"process"`` — a :class:`concurrent.futures.ProcessPoolExecutor`.
  Tasks must be *portable* (carry a picklable payload plus a module-level
  worker function); workers rebuild the solve state from the payload — or
  inherit it when the platform forks — and return picklable results whose
  cache statistics are merged back into the caller's accounting.
* ``"asyncio"`` — awaitable multiplexing over a bounded semaphore, for the
  serving tier (:mod:`repro.parallel.aio`; imported when first created).

A task that cannot ship across processes (e.g. a stateful dynamic-manager
step) is *inline-only*; drivers route such tasks through
:meth:`SolverBackend.inline` — the backend itself for serial/thread, a
thread pool of the same width for the process backend.

Besides the batch-with-a-barrier :meth:`SolverBackend.run`, every built-in
backend offers :meth:`SolverBackend.submit`: enqueue *one* task now,
collect its result later via the returned :class:`TaskHandle`.  This is
the primitive behind speculative pipelined placement probing
(``docs/parallel.md``): a driver can keep the pool saturated with probes
for *future* decision rounds while it blocks only on the current round's
handles.  On pooled backends a submitted task starts immediately; on the
serial backend the handle is *lazy* — the task runs on first
:meth:`TaskHandle.result` call, so speculation costs a serial run nothing.
Custom backends may omit ``submit``; drivers fall back to lazy inline
handles (correct, just without the overlap).
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Union,
    runtime_checkable,
)

from ..api.strategies import StrategyRegistry
from ..exceptions import ConfigurationError
from ..telemetry.trace import get_tracer

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    from .aio import AsyncioBackend

#: Default worker count when ``jobs`` is not given.  Threads overlap
#: latency (RPC-shaped what-if calls) regardless of core count, so their
#: default is a small constant; processes buy CPU parallelism only, so
#: their default follows the machine.
DEFAULT_THREAD_JOBS = 4


def _default_process_jobs() -> int:
    return max(1, os.cpu_count() or 1)


@dataclass
class SolveTask:
    """One independent solve, runnable inline or shipped to a worker.

    Attributes:
        call: zero-argument closure computing the result in-process (the
            serial and thread path).
        worker: a *module-level* function ``worker(payload) -> raw`` for
            the process path (picklable by reference), or ``None`` for an
            inline-only task.
        payload: picklable argument for ``worker``.
        reassemble: converts the worker's raw (picklable) result into the
            caller's result type, running in the parent process — this is
            where cache statistics returned by the worker are merged back.
        label: short description for error messages.
    """

    call: Callable[[], Any]
    worker: Optional[Callable[[Dict[str, Any]], Any]] = None
    payload: Optional[Dict[str, Any]] = None
    reassemble: Optional[Callable[[Any], Any]] = None
    label: str = "solve"

    @property
    def portable(self) -> bool:
        """Whether the task can run in another process."""
        return self.worker is not None and self.payload is not None


class TaskHandle:
    """Deferred result of one submitted task: the task runs on demand.

    The base class is the *lazy* handle (used by the serial backend and as
    the fallback for custom backends without ``submit``): nothing executes
    until :meth:`result` is first called, so a driver that speculatively
    submits work it ends up not needing pays nothing for it.  Pooled
    backends return :class:`FutureTaskHandle` instead, whose task started
    executing at submission.
    """

    __slots__ = ("_call", "_done", "_value")

    def __init__(self, call: Callable[[], Any]) -> None:
        self._call = call
        self._done = False
        self._value: Any = None

    def result(self) -> Any:
        """The task's result (computing it now if it never ran)."""
        if not self._done:
            self._value = self._call()
            self._done = True
        return self._value

    def discard(self) -> None:
        """Give the result up; a lazy task that never ran never will."""


class FutureTaskHandle(TaskHandle):
    """Handle over a :class:`concurrent.futures.Future` already running.

    ``reassemble`` converts the raw (e.g. pickled-across-processes) result
    into the caller's type in the collecting thread, exactly as
    :meth:`SolverBackend.run` applies :attr:`SolveTask.reassemble`.
    """

    __slots__ = ("_future", "_reassemble")

    def __init__(
        self, future: Future, reassemble: Optional[Callable[[Any], Any]] = None
    ) -> None:
        self._future = future
        self._reassemble = reassemble
        self._done = False
        self._value = None

    def result(self) -> Any:
        if not self._done:
            raw = self._future.result()
            self._value = (
                self._reassemble(raw) if self._reassemble is not None else raw
            )
            self._done = True
        return self._value

    def discard(self) -> None:
        """Cancel the task if it has not started, else wait for it to end.

        Waiting keeps a discarded task from still running — and counting —
        after the caller that submitted it has returned.
        """
        if not self._done and not self._future.cancel():
            wait((self._future,))


@runtime_checkable
class SolverBackend(Protocol):
    """Executes a batch of independent solve tasks.

    Built-in backends additionally offer ``submit(task) -> TaskHandle``
    (enqueue one task, collect later); drivers must treat it as optional
    and fall back to lazy :class:`TaskHandle`\\ s when a custom backend
    lacks it.
    """

    name: str
    jobs: int

    def run(self, tasks: Sequence[SolveTask]) -> List[Any]:
        """Run every task and return their results in task order."""
        ...

    def inline(self) -> "SolverBackend":
        """A backend able to run inline-only (non-portable) tasks."""
        ...

    def close(self) -> None:
        """Release pooled workers (idempotent)."""
        ...


#: Registry of solver-execution backends (``backend=`` on the drivers).
BACKENDS = StrategyRegistry("solver backend")

BackendSpec = Union[str, SolverBackend]


def _check_jobs(jobs: int) -> int:
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    return jobs


class SerialBackend:
    """Run tasks inline, in order — the pre-subsystem behavior."""

    name = "serial"
    requires_portable_tasks = False

    def __init__(self, jobs: Optional[int] = None, **_ignored: Any) -> None:
        # A serial backend runs one task at a time; silently dropping an
        # explicit worker count (e.g. ``--jobs 8`` without ``--backend``)
        # would let a user believe they requested parallelism.
        if jobs is not None and jobs != 1:
            raise ConfigurationError(
                f"the serial backend runs one task at a time; jobs={jobs} "
                f"needs a parallel backend (e.g. backend='thread')"
            )
        self.jobs = 1

    def run(self, tasks: Sequence[SolveTask]) -> List[Any]:
        """Run every task inline, in submission order."""
        return [task.call() for task in tasks]

    def submit(self, task: SolveTask) -> TaskHandle:
        """A lazy handle: the task runs on first ``result()`` call.

        Laziness is what makes speculative submission free on the serial
        backend — a speculative probe whose prediction missed is never
        executed at all.
        """
        return TaskHandle(task.call)

    def inline(self) -> "SerialBackend":
        return self

    def close(self) -> None:
        """Nothing pooled; nothing to release."""

    def __enter__(self) -> "SerialBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class ThreadBackend:
    """Run tasks on a shared :class:`ThreadPoolExecutor`.

    The pool is created lazily on first use and reused across calls, so a
    long-lived :class:`~repro.fleet.FleetAdvisor` does not re-spawn threads
    per recommendation.  Tasks share all in-process state; the thread-safety
    pass across the advisor's memos (and the lock-guarded
    :class:`~repro.api.cache.CostCache`) is what makes that sound.
    """

    name = "thread"
    requires_portable_tasks = False

    def __init__(self, jobs: Optional[int] = None, **_ignored: Any) -> None:
        self.jobs = _check_jobs(jobs if jobs is not None else DEFAULT_THREAD_JOBS)
        self._pool: Optional[ThreadPoolExecutor] = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.jobs, thread_name_prefix="repro-solver"
            )
        return self._pool

    def run(self, tasks: Sequence[SolveTask]) -> List[Any]:
        """Run every task on the pool; results come back in task order."""
        if len(tasks) <= 1:
            # One task gains nothing from a dispatch round-trip.
            return [task.call() for task in tasks]
        pool = self._ensure_pool()
        # bind() re-homes each call under the submitting thread's current
        # trace span (a no-op pass-through while tracing is disabled), so
        # pool-thread spans attach to the right parent.
        bind = get_tracer().bind
        futures: List[Future] = [pool.submit(bind(task.call)) for task in tasks]
        return [future.result() for future in futures]

    def submit(self, task: SolveTask) -> TaskHandle:
        """Start the task on the pool now; collect via the handle later."""
        return FutureTaskHandle(
            self._ensure_pool().submit(get_tracer().bind(task.call))
        )

    def inline(self) -> "ThreadBackend":
        return self

    def close(self) -> None:
        """Shut the pool down (idempotent; a later run() re-creates it)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ThreadBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class ProcessBackend:
    """Run portable tasks on a shared :class:`ProcessPoolExecutor`.

    Every task must be :attr:`SolveTask.portable`: its payload is shipped
    to a worker process, the module-level worker function rebuilds the
    solve state from the payload (or reuses state inherited on fork /
    cached from an earlier task of the same run token — see
    :mod:`repro.parallel.worker`), and the picklable result is reassembled
    in the parent, merging the worker's cache statistics back in.

    The pool is created lazily and reused across calls so worker-side
    state (calibrations, cost caches) amortizes across a whole fleet
    recommendation and across repeated recommendations.  Inline-only tasks
    (stateful dynamic-manager steps) do not fit this model; they run on
    the backend's :meth:`inline` thread fallback of the same width.
    """

    name = "process"
    #: Drivers consult this to attach picklable payloads to their tasks
    #: (building a payload can fail with a *specific* error — e.g. an
    #: advisor configured with strategy instances — before run() would
    #: reject the inline-only task with a generic one).
    requires_portable_tasks = True

    def __init__(self, jobs: Optional[int] = None, **_ignored: Any) -> None:
        self.jobs = _check_jobs(jobs if jobs is not None else _default_process_jobs())
        self._pool: Optional[ProcessPoolExecutor] = None
        self._inline: Optional[ThreadBackend] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # Imported here: it loads multiprocessing, which only this
            # backend needs.
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def run(self, tasks: Sequence[SolveTask]) -> List[Any]:
        """Ship every task's payload to a worker; reassemble in task order."""
        for task in tasks:
            if not task.portable:
                raise ConfigurationError(
                    f"the process backend cannot run the non-portable task "
                    f"{task.label!r}: it has no picklable payload.  Use the "
                    f"thread or serial backend for this operation."
                )
        if not tasks:
            return []
        pool = self._ensure_pool()
        futures: List[Future] = [
            pool.submit(task.worker, task.payload) for task in tasks
        ]
        raw_results = [future.result() for future in futures]
        return [
            task.reassemble(raw) if task.reassemble is not None else raw
            for task, raw in zip(tasks, raw_results)
        ]

    def submit(self, task: SolveTask) -> TaskHandle:
        """Ship the task's payload to a worker now; reassemble on collect."""
        if not task.portable:
            raise ConfigurationError(
                f"the process backend cannot run the non-portable task "
                f"{task.label!r}: it has no picklable payload.  Use the "
                f"thread or serial backend for this operation."
            )
        future = self._ensure_pool().submit(task.worker, task.payload)
        return FutureTaskHandle(future, task.reassemble)

    def inline(self) -> ThreadBackend:
        """A thread pool of the same width, for inline-only tasks."""
        if self._inline is None:
            self._inline = ThreadBackend(jobs=self.jobs)
        return self._inline

    def close(self) -> None:
        """Shut the process pool (and the inline fallback) down."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._inline is not None:
            self._inline.close()
            self._inline = None

    def __enter__(self) -> "ProcessBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


BACKENDS.register("serial", lambda jobs=None, **_ignored: SerialBackend(jobs=jobs))
BACKENDS.register("thread", lambda jobs=None, **_ignored: ThreadBackend(jobs=jobs))
BACKENDS.register("process", lambda jobs=None, **_ignored: ProcessBackend(jobs=jobs))


def _make_asyncio(jobs: Optional[int] = None, **_ignored: Any) -> "AsyncioBackend":
    # Imported on create: the asyncio backend loads asyncio, which only
    # the serving tier and callers who ask for it need.
    from .aio import AsyncioBackend

    return AsyncioBackend(jobs=jobs)


BACKENDS.register("asyncio", _make_asyncio)


def resolve_backend(
    spec: Optional[BackendSpec], jobs: Optional[int] = None
) -> SolverBackend:
    """Resolve a backend spec (name, instance, or ``None`` → serial).

    ``jobs`` is forwarded to named backends; passing it alongside an
    instance is rejected (the instance already fixed its width).
    """
    if spec is None:
        spec = "serial"
    if isinstance(spec, str):
        return BACKENDS.create(spec, jobs=jobs)
    if jobs is not None:
        raise ConfigurationError(
            "pass jobs with a backend *name*; a backend instance already "
            "fixed its worker count"
        )
    if not callable(getattr(spec, "run", None)):
        raise ConfigurationError(
            f"backend must be a registered name or provide a run(tasks) "
            f"method; got {type(spec).__name__}"
        )
    return spec
