"""Thread-safe tracer: nestable spans and point events on a pluggable clock.

One API serves both halves of the repo: the simulator hands in a clock
that reads simulation time, the local runtime uses the sanctioned wall
clock from :mod:`repro.common.clock`, and everything downstream (Chrome
trace export, summaries, analytics) is clock-agnostic.  A disabled
tracer — and the module-level :data:`NULL_TRACER` — short-circuits every
call before any allocation, so instrumented hot paths pay a single
attribute check when observability is off.

Spans nest::

    with tracer.span("map.wave", segment=3):
        with tracer.span("map.task", subject="b12"):
            ...

Each thread keeps its own nesting depth, and a span's *lane* defaults to
the recording thread's name, so threads recording at once (two runners
on one tracer, the prefetcher) produce one well-formed stack per thread
rather than an interleaved mess.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from types import TracebackType
from typing import Any, Callable, Mapping

from ..common.clock import monotonic_clock

#: Chrome trace-event phase of a duration ("complete") event.
PHASE_SPAN = "X"
#: Chrome trace-event phase of an instantaneous event.
PHASE_INSTANT = "i"


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One recorded span or instant, in the tracer's clock domain.

    Attributes
    ----------
    phase:
        :data:`PHASE_SPAN` for a duration, :data:`PHASE_INSTANT` for a
        point event.
    name:
        Dotted event name, e.g. ``"map.wave"`` / ``"s3.slotcheck"``.
    ts:
        Start time in seconds (simulation or wall time, per the clock).
    dur:
        Duration in seconds; 0.0 for instants.
    lane:
        Swimlane the event renders in — a thread name in the local
        runtime, a node id or scheduler lane in the simulator.
    subject:
        Identifier of the entity the event concerns (job id, segment ...).
    depth:
        Nesting depth at record time (0 = top level) on the lane.
    args:
        Free-form key/value payload.
    """

    phase: str
    name: str
    ts: float
    dur: float
    lane: str
    subject: str
    depth: int
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        """End time in seconds (``ts`` itself for an instant)."""
        return self.ts + self.dur


class _NullSpan:
    """The no-op context manager handed out by disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span; records a :class:`TraceEvent` when the block exits."""

    __slots__ = ("_tracer", "_name", "_subject", "_lane", "_args",
                 "_start", "_depth")

    def __init__(self, tracer: "Tracer", name: str, subject: str,
                 lane: str | None, args: dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._subject = subject
        self._lane = lane
        self._args = args
        self._start = 0.0
        self._depth = 0

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        if self._lane is None:
            self._lane = threading.current_thread().name
        self._depth = tracer._push_depth()
        self._start = tracer.now()
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> None:
        tracer = self._tracer
        end = tracer.now()
        tracer._pop_depth()
        if exc_type is not None:
            self._args = dict(self._args)
            self._args["error"] = exc_type.__name__
        assert self._lane is not None
        tracer._append(TraceEvent(
            phase=PHASE_SPAN, name=self._name, ts=self._start,
            dur=max(0.0, end - self._start), lane=self._lane,
            subject=self._subject, depth=self._depth, args=self._args))
        return None


class Tracer:
    """An append-only event sink shared by every instrumented layer.

    Parameters
    ----------
    name:
        Label for the tracer as a whole; exporters render it as the
        process name, so e.g. sim-time and wall-time tracers stay in
        separate tracks of the same trace file.
    clock:
        Zero-argument callable returning seconds.  ``None`` selects the
        sanctioned monotonic wall clock
        (:func:`repro.common.clock.monotonic_clock`); the simulator
        passes a closure over its event-loop time instead.
    enabled:
        When ``False`` every method is a no-op returning immediately —
        the fast path instrumented code relies on.

    Recording appends to a plain list (atomic under CPython's GIL), so
    concurrent map workers can record without taking a lock on the hot
    path; :meth:`events` snapshots the list for readers.
    """

    def __init__(self, name: str = "trace", *,
                 clock: Callable[[], float] | None = None,
                 enabled: bool = True) -> None:
        if clock is None:
            clock = monotonic_clock()
        self.name = name
        self.enabled = enabled
        self._clock = clock
        self._events: list[TraceEvent] = []
        self._local = threading.local()

    # -- clock & depth bookkeeping -------------------------------------

    def now(self) -> float:
        """Current time on this tracer's clock, in seconds."""
        return self._clock()

    def _push_depth(self) -> int:
        depth = getattr(self._local, "depth", 0)
        self._local.depth = depth + 1
        return depth

    def _pop_depth(self) -> None:
        self._local.depth = getattr(self._local, "depth", 1) - 1

    def _append(self, event: TraceEvent) -> None:
        self._events.append(event)

    # -- recording ------------------------------------------------------

    def span(self, name: str, *, subject: str = "",
             lane: str | None = None,
             args: Mapping[str, Any] | None = None,
             **extra: Any) -> _Span | _NullSpan:
        """Context manager timing a block; records on exit (even on error).

        ``lane`` defaults to the current thread's name.  Keyword extras
        merge into ``args`` for the common ``tracer.span("x", segment=3)``
        shorthand.
        """
        if not self.enabled:
            return _NULL_SPAN
        payload = dict(args) if args else {}
        if extra:
            payload.update(extra)
        return _Span(self, name, subject, lane, payload)

    def span_at(self, name: str, start: float, end: float, *,
                subject: str = "", lane: str | None = None,
                depth: int = 0,
                args: Mapping[str, Any] | None = None,
                **extra: Any) -> TraceEvent | None:
        """Record a span with explicit endpoints (sim-time reconstruction)."""
        if not self.enabled:
            return None
        payload = dict(args) if args else {}
        if extra:
            payload.update(extra)
        event = TraceEvent(
            phase=PHASE_SPAN, name=name, ts=start,
            dur=max(0.0, end - start),
            lane=lane if lane is not None else threading.current_thread().name,
            subject=subject, depth=depth, args=payload)
        self._append(event)
        return event

    def event(self, name: str, *, subject: str = "",
              lane: str | None = None,
              args: Mapping[str, Any] | None = None,
              **extra: Any) -> TraceEvent | None:
        """Record an instantaneous event at the current clock reading."""
        if not self.enabled:
            return None
        return self.event_at(self.now(), name, subject=subject, lane=lane,
                             args=args, **extra)

    def event_at(self, ts: float, name: str, *, subject: str = "",
                 lane: str | None = None,
                 args: Mapping[str, Any] | None = None,
                 **extra: Any) -> TraceEvent | None:
        """Record an instantaneous event at an explicit timestamp."""
        if not self.enabled:
            return None
        payload = dict(args) if args else {}
        if extra:
            payload.update(extra)
        event = TraceEvent(
            phase=PHASE_INSTANT, name=name, ts=ts, dur=0.0,
            lane=lane if lane is not None else threading.current_thread().name,
            subject=subject,
            depth=getattr(self._local, "depth", 0), args=payload)
        self._append(event)
        return event

    # -- reading --------------------------------------------------------

    def events(self) -> tuple[TraceEvent, ...]:
        """Snapshot of every recorded event, in record order."""
        return tuple(self._events)

    def _select(self, phase: str, name: str | None,
                subject: str | None) -> list[TraceEvent]:
        return [e for e in self.events()
                if e.phase == phase
                and (name is None or e.name == name)
                and (subject is None or e.subject == subject)]

    def instants(self, *, name: str | None = None,
                 subject: str | None = None) -> list[TraceEvent]:
        """Point events only (phase ``"i"``), in record order; ``name``
        and ``subject`` keep the events that match exactly."""
        return self._select(PHASE_INSTANT, name, subject)

    def spans(self, *, name: str | None = None,
              subject: str | None = None) -> list[TraceEvent]:
        """Duration events only (phase ``"X"``), in record order; ``name``
        and ``subject`` keep the events that match exactly."""
        return self._select(PHASE_SPAN, name, subject)

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        """Drop all recorded events (keeps clock and enabled state)."""
        self._events.clear()


#: Shared always-disabled tracer: the default sink for uninstrumented runs.
NULL_TRACER = Tracer(name="null", clock=lambda: 0.0, enabled=False)
