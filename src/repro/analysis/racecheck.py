"""TSan-lite lockset race detection for the threaded service core.

The static half (:mod:`repro.analysis.guardedby`, rules REP007/REP008)
reasons per class and per file; it cannot see *cross-object* guards —
``Entry.status`` is protected by the **service's** condition variable,
not by any lock on the entry itself.  This module is the dynamic
complement: an Eraser-style lockset checker over real executions.

Algorithm (per registered instance, per tracked attribute):

* every **write** intersects the accessing thread's held-lock set
  (reused from :mod:`~repro.analysis.lockgraph`'s per-thread
  bookkeeping, so only :class:`~repro.analysis.lockgraph.OrderedLock`
  acquisitions count) with the attribute's running lockset;
* while a single thread owns the attribute (the *exclusive* phase) no
  check fires — initialisation and single-threaded use are never races;
* the first write from a second thread starts the *shared* phase: from
  then on, a write whose intersection with the running lockset is
  empty raises :class:`RaceError` carrying **both** stacks — the
  current writer's and the previous conflicting writer's.

Writes only, by design: a read-write race needs happens-before
knowledge (``Thread.join`` sequencing) a lockset checker does not have,
and instrumenting reads would flag every post-join assertion in the
test suite.  Unguarded *reads* are the static half's job (REP007 flags
reads and writes alike).  The coverage table lives in DESIGN.md §13.

Checking is **off by default** and enabled by ``REPRO_RACECHECK=1``
(or :func:`set_racecheck`).  When off, :func:`register_instance` and
the :func:`race_checked` decorator are no-ops — zero per-access
overhead.  When on, registration swaps the instance's class for a
generated subclass whose ``__setattr__`` performs the lockset check,
so only registered instances ever pay.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, TypeVar

from .lockgraph import held_locks, set_held_tracking

__all__ = [
    "RaceError", "race_checked", "racecheck_enabled",
    "register_instance", "reset_racecheck_state", "set_racecheck",
]

#: Environment variable that turns race checking on ("1" = enabled).
ENV_VAR = "REPRO_RACECHECK"

#: How many caller frames a stored access stack keeps.
_STACK_DEPTH = 6


class RaceError(RuntimeError):
    """Two threads wrote one attribute with no common lock held."""


class _State:
    """Process-global switch (lazily resolves the env variable)."""

    def __init__(self) -> None:
        self.enabled: bool | None = None

    def resolve(self) -> bool:
        if self.enabled is None:
            self.enabled = os.environ.get(ENV_VAR, "") == "1"
            if self.enabled:
                set_held_tracking(True)
        return self.enabled


_STATE = _State()


def racecheck_enabled() -> bool:
    """Whether lockset checking is active (``REPRO_RACECHECK=1`` or
    :func:`set_racecheck`).  Resolving also enables the lock graph's
    held-set bookkeeping, so call this early (the test conftest does)."""
    return _STATE.resolve()


def set_racecheck(enabled: bool | None) -> None:
    """Force checking on/off; ``None`` re-reads the environment on next
    use.  Intended for tests.  Enabling also turns on held-set
    tracking; disabling leaves tracking on (it is harmless and another
    component may rely on it)."""
    _STATE.enabled = enabled
    if enabled:
        set_held_tracking(True)


# ---------------------------------------------------------------- the table
def _where(skip: int = 2) -> str:
    """A short ``file:line in func`` chain for the current call site."""
    frames: list[str] = []
    try:
        frame = sys._getframe(skip)
    except ValueError:  # pragma: no cover - shallow stack
        return "<unknown>"
    while frame is not None and len(frames) < _STACK_DEPTH:
        code = frame.f_code
        if "racecheck" not in code.co_filename:
            frames.append(f"{os.path.basename(code.co_filename)}:"
                          f"{frame.f_lineno} in {code.co_name}")
        frame = frame.f_back
    return " <- ".join(frames) or "<unknown>"


@dataclass
class _AttrRecord:
    """Running lockset + last-writer provenance for one attribute."""

    lockset: frozenset[str]
    thread_id: int
    thread_name: str
    where: str
    shared: bool = False


@dataclass
class _Registration:
    """One race-checked instance's tracked fields and expected guard."""

    label: str
    fields: frozenset[str]
    guard: str | None
    records: dict[str, _AttrRecord] = field(default_factory=dict)


#: id(instance) -> registration.  Guarded by ``_TABLE_LOCK``: a plain
#: RLock, invisible to the lock graph (it is only ever the innermost
#: lock and would otherwise flood the order graph with noise edges).
#: Reentrant because ``_cleanup`` runs from ``weakref.finalize``, which
#: the GC may fire at *any allocation* — including one made while this
#: very thread already holds the table lock.
_REGISTRY: dict[int, _Registration] = {}
_TABLE_LOCK = threading.RLock()

#: original class -> generated checking subclass.
_INSTRUMENTED: dict[type, type] = {}


def reset_racecheck_state() -> None:
    """Drop every registration (between tests; not while threads run)."""
    with _TABLE_LOCK:
        _REGISTRY.clear()


def _check_write(reg: _Registration, attr: str) -> None:
    held = frozenset(held_locks())
    thread = threading.current_thread()
    tid = thread.ident or 0
    with _TABLE_LOCK:
        rec = reg.records.get(attr)
        if rec is None:
            reg.records[attr] = _AttrRecord(
                lockset=held, thread_id=tid, thread_name=thread.name,
                where=_where())
            return
        if not rec.shared and rec.thread_id == tid:
            # Exclusive phase: a single thread may migrate between locks
            # (or hold none) freely; remember only the latest write.
            rec.lockset = held
            rec.where = _where()
            return
        remaining = rec.lockset & held
        if not remaining:
            expected = (f"; expected guard: {reg.guard}" if reg.guard
                        else "")
            message = (
                f"unsynchronised write to {reg.label}.{attr}: lockset "
                f"went empty{expected}\n"
                f"  this write:  thread {thread.name!r} holding "
                f"{sorted(held) or '[]'}\n    at {_where()}\n"
                f"  last write:  thread {rec.thread_name!r} holding "
                f"{sorted(rec.lockset) or '[]'}\n    at {rec.where}")
            raise RaceError(message)
        rec.shared = True
        rec.lockset = remaining
        rec.thread_id = tid
        rec.thread_name = thread.name
        rec.where = _where()


def _instrumented_class(cls: type) -> type:
    checked = _INSTRUMENTED.get(cls)
    if checked is not None:
        return checked
    base_setattr = cls.__setattr__

    def __setattr__(self: object, name: str, value: object) -> None:
        reg = _REGISTRY.get(id(self))
        if reg is not None and name in reg.fields:
            _check_write(reg, name)
        base_setattr(self, name, value)

    checked = type(cls.__name__, (cls,), {
        "__setattr__": __setattr__,
        "__module__": cls.__module__,
        "__qualname__": cls.__qualname__,
    })
    _INSTRUMENTED[cls] = checked
    return checked


def _cleanup(oid: int) -> None:
    with _TABLE_LOCK:
        _REGISTRY.pop(oid, None)


_T = TypeVar("_T")


def register_instance(obj: _T, *, fields: tuple[str, ...] | frozenset[str],
                      guard: str | None = None,
                      label: str | None = None) -> _T:
    """Start lockset-checking writes to ``fields`` on ``obj``.

    A no-op (returning ``obj`` unchanged) when checking is disabled.
    ``guard`` is advisory — the *expected* lock name, included in
    :class:`RaceError` messages; the check itself infers the lockset
    from actual execution.  Instances whose class was already swapped
    (e.g. re-registration) just update their field set.
    """
    if not _STATE.resolve():
        return obj
    cls = type(obj)
    if cls in _INSTRUMENTED.values():
        original = cls.__bases__[0]
    else:
        original = cls
        obj.__class__ = _instrumented_class(cls)  # type: ignore[assignment]
    with _TABLE_LOCK:
        _REGISTRY[id(obj)] = _Registration(
            label=label or original.__name__, fields=frozenset(fields),
            guard=guard)
    try:
        weakref.finalize(obj, _cleanup, id(obj))
    except TypeError:  # pragma: no cover - non-weakrefable instance
        pass
    return obj


def race_checked(*, fields: tuple[str, ...], guard: str | None = None
                 ) -> Callable[[type], type]:
    """Class decorator: auto-register every new instance for checking.

    Apply *above* ``@dataclass`` so registration wraps the generated
    ``__init__`` — construction-time field writes then happen before
    registration and are never intercepted (construction is not
    sharing)::

        @race_checked(fields=("status", "result"),
                      guard="SchedulerService._cond")
        @dataclass
        class Entry: ...

    When checking is disabled the only cost is one extra function call
    per construction.
    """

    def decorate(cls: type) -> type:
        original_init = cls.__init__

        @functools.wraps(original_init)
        def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
            original_init(self, *args, **kwargs)
            register_instance(self, fields=fields, guard=guard,
                              label=cls.__name__)

        cls.__init__ = __init__  # type: ignore[misc]
        return cls

    return decorate
