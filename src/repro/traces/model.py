"""Timestamped workload traces: time-varying consolidation scenarios as data.

Every workload in the reproduction so far is a *static* statement mix; the
paper's only time-varying setting (the §7.10 dynamic-management experiment)
was a fixed nine-period script baked into :mod:`repro.experiments.dynamic`.
This module makes the time dimension first-class:

* :class:`TraceEvent` — one timestamped change to a tenant's workload: a
  new arrival-rate *intensity* and, optionally, a new statement mix (with a
  different benchmark/scale, e.g. a TPC-H slot starting to serve TPC-C).
* :class:`TenantTrace` — one tenant's base :class:`~repro.api.scenario.TenantSpec`
  plus its ordered events; sampling it at a time yields the effective spec.
* :class:`WorkloadTrace` — named tenants × events over a common monitoring
  period length, JSON round-trippable (``from_dict`` / ``from_json`` /
  ``to_dict`` / ``to_json``) in the same style as
  :class:`~repro.api.Scenario` and :class:`~repro.fleet.FleetProblem`, so
  whole shifting-workload scenarios can live in files or cross a service
  boundary.

Semantics: a trace is a step function.  An event specifies the tenant's
*complete* workload state from its timestamp onward — fields left unset
fall back to the tenant's base spec, not to the previous event — and the
state in force during monitoring period ``p`` is the state at the period's
start.  Intensity scales every statement frequency of the mix in force,
which models an arrival-rate change without changing the queries (the
paper's "intensity only" change class).

Traces are plain data; generators live in :mod:`repro.traces.generators`
and replay in :mod:`repro.traces.replay`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..api.scenario import TenantSpec, _normalize_statement, _parsing
from ..exceptions import ConfigurationError
from ..workloads.workload import DEFAULT_MONITORING_INTERVAL_SECONDS


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped change to a tenant's workload.

    Attributes:
        time_seconds: when the change takes effect, in seconds since the
            start of the trace.
        intensity: arrival-rate multiplier applied to every statement
            frequency of the mix in force (1.0 = the mix as written).
        statements: optional replacement statement mix (same spellings as
            :class:`~repro.api.scenario.TenantSpec`); ``None`` keeps the
            tenant's base statements.
        benchmark / scale: optional replacement benchmark / scale for the
            new mix (e.g. switching a slot from TPC-H to TPC-C transactions);
            ``None`` keeps the base spec's values.
    """

    time_seconds: float
    intensity: float = 1.0
    statements: Optional[Tuple[Tuple[str, float], ...]] = None
    benchmark: Optional[str] = None
    scale: Optional[float] = None

    def __post_init__(self) -> None:
        if self.time_seconds < 0:
            raise ConfigurationError(
                f"trace event time must not be negative, got {self.time_seconds}"
            )
        if self.intensity <= 0:
            raise ConfigurationError(
                f"trace event intensity must be positive, got {self.intensity}"
            )
        if self.statements is not None:
            if not self.statements:
                raise ConfigurationError(
                    "a trace event's statement mix must not be empty "
                    "(omit 'statements' to keep the base mix)"
                )
            normalized = tuple(
                _normalize_statement(statement) for statement in self.statements
            )
            object.__setattr__(self, "statements", normalized)
        if self.scale is not None:
            object.__setattr__(self, "scale", float(self.scale))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceEvent":
        """Build an event from a plain dictionary."""
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown trace-event option(s) {', '.join(map(repr, unknown))}; "
                f"expected a subset of {', '.join(sorted(known))}"
            )
        if "time_seconds" not in data:
            raise ConfigurationError(
                f"trace event {dict(data)!r} is missing the required "
                f"'time_seconds' key"
            )
        statements = data.get("statements")
        return cls(
            time_seconds=data["time_seconds"],
            intensity=data.get("intensity", 1.0),
            statements=None if statements is None else tuple(statements),
            benchmark=data.get("benchmark"),
            scale=data.get("scale"),
        )

    def to_dict(self) -> Dict[str, Any]:
        """The event as a JSON-safe dictionary (round-trips via from_dict)."""
        return {
            "time_seconds": self.time_seconds,
            "intensity": self.intensity,
            "statements": (
                None
                if self.statements is None
                else [[query, frequency] for query, frequency in self.statements]
            ),
            "benchmark": self.benchmark,
            "scale": self.scale,
        }


EventLike = Union[TraceEvent, Mapping[str, Any]]


def _coerce_event(event: EventLike) -> TraceEvent:
    if isinstance(event, TraceEvent):
        return event
    return TraceEvent.from_dict(event)


@dataclass(frozen=True)
class TenantTrace:
    """One tenant's base workload spec plus its timeline of changes.

    Attributes:
        spec: the tenant's base :class:`~repro.api.scenario.TenantSpec` —
            the state in force before the first event (and the source of
            any field an event leaves unset).
        events: the tenant's changes, in strictly increasing time order.
    """

    spec: TenantSpec
    events: Tuple[TraceEvent, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.spec, TenantSpec):
            object.__setattr__(self, "spec", TenantSpec.from_dict(self.spec))
        events = tuple(_coerce_event(event) for event in self.events)
        for earlier, later in zip(events, events[1:]):
            if later.time_seconds <= earlier.time_seconds:
                raise ConfigurationError(
                    f"tenant {self.spec.name!r}: trace events must have "
                    f"strictly increasing times (got {later.time_seconds} "
                    f"after {earlier.time_seconds})"
                )
        object.__setattr__(self, "events", events)

    @property
    def name(self) -> str:
        """Name of the underlying tenant spec."""
        return self.spec.name

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def event_at(self, time_seconds: float) -> Optional[TraceEvent]:
        """The event in force at a time (the last one at or before it)."""
        current = None
        for event in self.events:
            if event.time_seconds > time_seconds:
                break
            current = event
        return current

    def spec_at(self, time_seconds: float) -> TenantSpec:
        """The effective tenant spec at a time.

        The mix in force (the base spec's, unless the current event
        replaces it) has every statement frequency multiplied by the
        current intensity; benchmark and scale follow the event when set.
        The tenant's name, engine, and QoS settings never change.
        """
        event = self.event_at(time_seconds)
        if event is None:
            return self.spec
        statements = (
            event.statements if event.statements is not None else self.spec.statements
        )
        scaled = tuple(
            (query, frequency * event.intensity) for query, frequency in statements
        )
        return replace(
            self.spec,
            statements=scaled,
            benchmark=event.benchmark if event.benchmark is not None else self.spec.benchmark,
            scale=event.scale if event.scale is not None else self.spec.scale,
        )

    def last_event_time(self) -> float:
        """Time of the final event (0.0 for an event-free tenant)."""
        return self.events[-1].time_seconds if self.events else 0.0

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TenantTrace":
        """Build a tenant trace from a flat dictionary.

        The dictionary is the tenant's :class:`TenantSpec` fields plus an
        optional ``events`` list, i.e. a flat structure convenient to
        write by hand::

            {"name": "oltp", "engine": "db2", "statements": [["q18", 5.0]],
             "events": [{"time_seconds": 1800, "intensity": 2.0}]}
        """
        data = dict(data)
        events = data.pop("events", ())
        return cls(spec=TenantSpec.from_dict(data), events=tuple(events))

    def to_dict(self) -> Dict[str, Any]:
        """The tenant trace as a JSON-safe dictionary."""
        document = self.spec.to_dict()
        document["events"] = [event.to_dict() for event in self.events]
        return document


TenantTraceLike = Union[TenantTrace, Mapping[str, Any]]


def _coerce_tenant_trace(tenant: TenantTraceLike) -> TenantTrace:
    if isinstance(tenant, TenantTrace):
        return tenant
    return TenantTrace.from_dict(tenant)


@dataclass(frozen=True)
class WorkloadTrace:
    """A complete shifting-workload scenario: tenants × timestamped events.

    Attributes:
        name: trace identifier (used in reports and filenames).
        tenants: the traced tenants (unique names).
        period_seconds: length of one monitoring period; the state in
            force during period ``p`` (1-based) is each tenant's state at
            the period's start, ``(p - 1) * period_seconds``.
        n_periods: how many periods a replay of the trace covers; derived
            from the last event when omitted (every event gets a period in
            which it is in force).
    """

    name: str
    tenants: Tuple[TenantTrace, ...]
    period_seconds: float = DEFAULT_MONITORING_INTERVAL_SECONDS
    n_periods: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("trace name must be non-empty")
        if self.period_seconds <= 0:
            raise ConfigurationError(
                f"period_seconds must be positive, got {self.period_seconds}"
            )
        tenants = tuple(_coerce_tenant_trace(tenant) for tenant in self.tenants)
        if not tenants:
            raise ConfigurationError("a workload trace needs at least one tenant")
        names = [tenant.name for tenant in tenants]
        if len(set(names)) != len(names):
            duplicates = sorted({name for name in names if names.count(name) > 1})
            raise ConfigurationError(
                f"duplicate traced tenant name(s): {', '.join(map(repr, duplicates))}"
            )
        object.__setattr__(self, "tenants", tenants)
        if self.n_periods is None:
            last = max(tenant.last_event_time() for tenant in tenants)
            object.__setattr__(
                self, "n_periods", int(last // self.period_seconds) + 1
            )
        elif self.n_periods < 1:
            raise ConfigurationError(
                f"n_periods must be at least 1, got {self.n_periods}"
            )

    # ------------------------------------------------------------------
    # Introspection / sampling
    # ------------------------------------------------------------------
    @property
    def n_tenants(self) -> int:
        """Number of traced tenants."""
        return len(self.tenants)

    def tenant_names(self) -> List[str]:
        """Tenant names in trace order."""
        return [tenant.name for tenant in self.tenants]

    def tenant(self, name: str) -> TenantTrace:
        """The trace of the named tenant."""
        for tenant in self.tenants:
            if tenant.name == name:
                return tenant
        raise KeyError(name)

    def period_start(self, period: int) -> float:
        """Start time of a (1-based) monitoring period."""
        if not 1 <= period <= self.n_periods:
            raise ConfigurationError(
                f"period must be in [1, {self.n_periods}], got {period}"
            )
        return (period - 1) * self.period_seconds

    def specs_at_period(self, period: int) -> Tuple[TenantSpec, ...]:
        """The effective tenant specs in force during one period."""
        start = self.period_start(period)
        return tuple(tenant.spec_at(start) for tenant in self.tenants)

    def periods(self) -> List[Tuple[int, Tuple[TenantSpec, ...]]]:
        """``(period, effective specs)`` for every period of the trace."""
        return [
            (period, self.specs_at_period(period))
            for period in range(1, self.n_periods + 1)
        ]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    @classmethod
    @_parsing("trace")
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadTrace":
        """Build a workload trace from a plain dictionary."""
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown trace option(s) {', '.join(map(repr, unknown))}; "
                f"expected a subset of {', '.join(sorted(known))}"
            )
        return cls(
            name=data.get("name", "trace"),
            tenants=tuple(data.get("tenants", ())),
            period_seconds=data.get(
                "period_seconds", DEFAULT_MONITORING_INTERVAL_SECONDS
            ),
            n_periods=data.get("n_periods"),
        )

    @classmethod
    def from_json(cls, document: Union[str, bytes]) -> "WorkloadTrace":
        """Build a workload trace from a JSON document."""
        return cls.from_dict(json.loads(document))

    def to_dict(self) -> Dict[str, Any]:
        """The trace as a JSON-safe dictionary (round-trips via from_dict)."""
        return {
            "name": self.name,
            "period_seconds": self.period_seconds,
            "n_periods": self.n_periods,
            "tenants": [tenant.to_dict() for tenant in self.tenants],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """The trace as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    def with_tenants(self, tenants: Sequence[TenantTraceLike]) -> "WorkloadTrace":
        """A copy of the trace over a different tenant list."""
        return replace(self, tenants=tuple(tenants))
