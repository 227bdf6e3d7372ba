"""The discrete-event simulator core.

:class:`Simulator` owns the virtual clock and the event queue.  Components
schedule work with :meth:`Simulator.at` / :meth:`Simulator.after`, and the
engine runs events in timestamp order until the queue drains (or a horizon /
step limit is hit — both guard against accidental infinite event loops).

Design notes
------------
* The clock only moves forward; scheduling in the past raises
  :class:`~repro.common.errors.SimulationError` immediately rather than
  corrupting the timeline.
* Same-timestamp events run in the order they were scheduled (stable FIFO),
  with an optional integer ``priority`` to force e.g. "job arrivals before
  slot assignment" orderings.
* The engine is deliberately single-threaded and allocation-light: a full
  Figure-4 experiment (10 jobs x 2560 blocks x 5 schedulers) executes in
  well under a second, which keeps pytest-benchmark sweeps cheap.
* :attr:`Simulator.tracer` is the run's one record — a
  :class:`~repro.obs.tracer.Tracer` on the virtual clock.  It is built
  enabled and the clock only moves forward, so what is recorded through
  ``tracer.event`` is complete and in time order by construction.
"""

from __future__ import annotations

import math
from typing import Callable

from ..common.errors import SimulationError
from ..obs.runtime import active_session
from ..obs.tracer import Tracer
from .events import EventCallback, EventQueue, ScheduledEvent


class Simulator:
    """A single-threaded discrete-event simulation engine."""

    def __init__(self, *, max_events: int = 50_000_000) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._events_processed = 0
        self._max_events = max_events
        self._running = False
        #: The run's one record: driver and schedulers log state changes
        #: (instants) and occupancy (spans) here, at simulation timestamps.
        self.tracer = Tracer(name="sim", clock=lambda: self._now)
        session = active_session()
        if session is not None:
            session.adopt(self.tracer)

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    # ------------------------------------------------------------ scheduling
    def at(self, time: float, callback: EventCallback, *,
           priority: int = 0, label: str = "") -> ScheduledEvent:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if math.isnan(time) or math.isinf(time):
            raise SimulationError(f"cannot schedule event at time {time!r}")
        if time < self._now - 1e-9:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now={self._now}")
        return self._queue.push(max(time, self._now), callback,
                                priority=priority, label=label)

    def after(self, delay: float, callback: EventCallback, *,
              priority: int = 0, label: str = "") -> ScheduledEvent:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.at(self._now + delay, callback, priority=priority, label=label)

    def every(self, interval: float, callback: Callable[[float], bool | None], *,
              start_delay: float | None = None, priority: int = 0,
              label: str = "tick") -> ScheduledEvent:
        """Schedule ``callback`` periodically.

        The callback may return ``True`` to stop the recurrence.  Used for
        the S3 periodical slot checking mechanism (Section IV-D.1).
        Returns the handle of the *first* occurrence; cancelling it before it
        fires stops the chain.
        """
        if interval <= 0:
            raise SimulationError(f"non-positive interval: {interval}")

        def fire(now: float) -> None:
            if callback(now):
                return
            self.after(interval, fire, priority=priority, label=label)

        first_delay = interval if start_delay is None else start_delay
        return self.after(first_delay, fire, priority=priority, label=label)

    # --------------------------------------------------------------- running
    def run(self, until: float | None = None) -> float:
        """Execute events until the queue empties (or ``until`` is reached).

        Returns the final simulation time.  Re-entrant calls are rejected.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        try:
            while True:
                next_time = self._queue.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    self._now = until
                    break
                ev = self._queue.pop()
                self._now = max(self._now, ev.time)
                self._events_processed += 1
                if self._events_processed > self._max_events:
                    raise SimulationError(
                        f"exceeded max_events={self._max_events}; "
                        "likely an event loop that never terminates")
                ev.callback(self._now)
        finally:
            self._running = False
        return self._now

    def step(self) -> bool:
        """Execute exactly one event.  Returns False when the queue is empty."""
        next_time = self._queue.peek_time()
        if next_time is None:
            return False
        ev = self._queue.pop()
        self._now = max(self._now, ev.time)
        self._events_processed += 1
        ev.callback(self._now)
        return True

    def pending(self) -> int:
        """Number of scheduled, non-cancelled events."""
        return len(self._queue)
