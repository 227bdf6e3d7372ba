"""Trace sessions: one recording context spanning sim and local runtime.

A :class:`TraceSession` is the glue between "I want a trace of this run"
and the components that each own a tracer.  While a session is active
(``with TraceSession("abl-het") as session:``), newly constructed
simulators and local runners *adopt* their tracers into it, so a single
:meth:`~TraceSession.export` call writes every clock domain — sim-time
scheduling decisions next to wall-time map waves — into one Chrome
trace file.

Sessions nest (the innermost wins), are thread-safe to adopt into, and
cost nothing when none is active: :func:`active_session` is a single
list read, and components fall back to :data:`~repro.obs.tracer.NULL_TRACER`.
"""

from __future__ import annotations

import pathlib
import threading
from typing import Any, Callable

from .export import (
    event_records,
    export_chrome,
    format_summary,
    summarize,
)
from .tracer import NULL_TRACER, Tracer

_ACTIVE: list["TraceSession"] = []
_ACTIVE_LOCK = threading.Lock()


class TraceSession:
    """A named collection of tracers recorded over one logical run."""

    def __init__(self, name: str = "session") -> None:
        self.name = name
        self._lock = threading.Lock()
        self._tracers: list[Tracer] = []
        #: The session's own wall-clock tracer, for top-level spans such
        #: as ``experiment.<id>``.
        self.tracer = self.new_tracer(name)

    def new_tracer(self, name: str, *,
                   clock: Callable[[], float] | None = None) -> Tracer:
        """Create an enabled tracer and adopt it into this session."""
        tracer = Tracer(name=name, clock=clock)
        self.adopt(tracer)
        return tracer

    def adopt(self, tracer: Tracer) -> Tracer:
        """Register an externally created tracer for export (idempotent).

        A tracer whose name is already taken in this session is renamed
        ``name#2``, ``name#3``, ... in adoption order.  Experiments that
        sweep a parameter construct one simulator per point, each with a
        tracer called ``sim`` on its own virtual clock starting at zero;
        exporting them under one name would interleave unrelated runs
        into a single timeline and the analyzer would nest spans across
        runs.  The suffix keeps every run a separate process track.
        """
        with self._lock:
            if tracer not in self._tracers:
                taken = {t.name for t in self._tracers}
                if tracer.name in taken:
                    base = tracer.name
                    serial = 2
                    while f"{base}#{serial}" in taken:
                        serial += 1
                    tracer.name = f"{base}#{serial}"
                self._tracers.append(tracer)
        return tracer

    def tracers(self) -> tuple[Tracer, ...]:
        """Snapshot of the adopted tracers, in adoption order."""
        with self._lock:
            return tuple(self._tracers)

    # -- activation -----------------------------------------------------

    def __enter__(self) -> "TraceSession":
        with _ACTIVE_LOCK:
            _ACTIVE.append(self)
        return self

    def __exit__(self, *exc: Any) -> None:
        with _ACTIVE_LOCK:
            if self in _ACTIVE:
                _ACTIVE.remove(self)
        return None

    # -- output ---------------------------------------------------------

    def export(self, path: pathlib.Path | str) -> pathlib.Path:
        """Write every adopted tracer to ``path`` as Chrome trace JSON;
        returns the path."""
        path = pathlib.Path(path)
        export_chrome(path, self.tracers())
        return path

    def summary(self) -> str:
        """Text summary of everything recorded so far."""
        return format_summary(summarize(list(event_records(self.tracers()))))

    def event_count(self) -> int:
        """Total events recorded across all adopted tracers."""
        return sum(len(t) for t in self.tracers())


def active_session() -> TraceSession | None:
    """The innermost active session, or ``None``."""
    return _ACTIVE[-1] if _ACTIVE else None


def resolve_tracer(tracer: Tracer | None, enabled: bool,
                   name: str) -> Tracer:
    """Pick a component's event sink (the one shared precedence rule).

    An explicit ``tracer`` wins; else ``enabled`` (a config's
    ``trace.enabled``) creates a wall-clock tracer, adopted by any active
    session; else an active :class:`TraceSession` supplies one; else the
    no-op :data:`~repro.obs.tracer.NULL_TRACER`.  Used by the local
    runners and the scheduler service so every traced component joins a
    surrounding session the same way.
    """
    if tracer is not None:
        return tracer
    session = active_session()
    if enabled:
        created = Tracer(name=name)
        if session is not None:
            session.adopt(created)
        return created
    if session is not None:
        return session.new_tracer(name)
    return NULL_TRACER


__all__ = [
    "TraceSession",
    "active_session",
    "resolve_tracer",
]
