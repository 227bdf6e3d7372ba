"""Guarded-by inference: which lock protects which attribute (REP007/8).

PR 3's rules police *how* code uses locks (no blocking calls while one
is held); :mod:`~repro.analysis.lockgraph` polices the *order* locks
nest in.  Neither knows which lock a given piece of shared state
belongs to — an unguarded read of ``SchedulerService._iteration`` would
sail through both.  This module closes that gap with a lightweight,
lexical analogue of Clang's ``GUARDED_BY`` attribute:

* **Annotation convention.**  A trailing comment ``# guarded-by:
  <lock-attr>`` on an attribute's initialising assignment (normally in
  ``__init__``) declares that every access of ``self.<attr>`` outside
  ``__init__`` must happen while ``self.<lock-attr>`` is held::

      self._lock = ordered_lock("Thing._lock")
      self._pending = 0       # guarded-by: _lock

  The lock attribute must be a lock-like object constructed in the same
  class (``threading.Lock``/``RLock``/``Condition``/``Semaphore``, the
  project's :class:`~repro.analysis.lockgraph.OrderedLock` or its
  :func:`~repro.analysis.lockgraph.ordered_lock` factory, possibly
  wrapped — ``Condition(ordered_lock(...))`` counts as a lock).

* **Held-region inference.**  Within each method the analysis tracks
  which of the class's locks are lexically held: ``with self._lock:``
  bodies, and bare ``self._lock.acquire()`` … ``release()`` regions
  (including the ``try/finally`` idiom).  ``Condition.wait`` releases
  and re-acquires its lock before returning, so code after a ``wait()``
  inside the ``with`` block is still correctly treated as held.

* **Call-local summaries.**  Private helper methods (``_plan_locked``
  and friends) are usually called only with the lock already held.  The
  analysis computes, per private method, the *intersection* of the held
  sets at every intra-class call site and treats the method body as
  running under that set — iterated to a fixpoint so chains of helpers
  propagate.  Public methods (no leading underscore) and private
  methods with no intra-class callers (thread targets like ``_run``)
  are assumed callable from anywhere and start with nothing held.

Two rules are derived from the model:

* **REP007** — an access (read or write) of an annotated attribute at a
  program point where its declared lock is not in the held set, plus
  configuration errors (annotation naming an unknown lock).
* **REP008** — *inference without annotations*: in any class that owns
  a lock, an unannotated attribute written at two or more sites whose
  held sets have no common lock (some writes under a lock and some
  outside, or writes under two disjoint locks) is flagged as having an
  inconsistent guard.  ``__init__``-time writes are construction, not
  sharing, and are exempt.

The analysis is deliberately per-class and lexical: cross-object guards
(``Entry.status`` is protected by the *service's* condition, not by a
lock on the entry) are the dynamic half's job — see
:mod:`repro.analysis.racecheck`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterator, Sequence, Union

__all__ = [
    "GUARDED_BY_RE", "check_rep007", "check_rep008", "class_models",
]

#: ``x = 0  # guarded-by: _lock``
GUARDED_BY_RE = re.compile(
    r"#\s*guarded-by:\s*(?P<lock>[A-Za-z_][A-Za-z0-9_]*)")

#: Constructor names whose result is lock-like (terminal name of the
#: call chain, so ``threading.Lock``, ``OrderedLock``, ``ordered_lock``
#: and bare ``Lock`` all match).  ``Condition`` counts: holding a
#: condition *is* holding its underlying lock.
_LOCK_FACTORIES = frozenset({
    "Lock", "RLock", "Condition", "OrderedLock", "ordered_lock",
    "Semaphore", "BoundedSemaphore",
})

#: Methods whose accesses are construction/teardown, not sharing.
_EXEMPT_METHODS = frozenset({"__init__", "__post_init__", "__new__",
                             "__del__"})

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _terminal_name(node: ast.expr) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _self_attr(node: ast.expr) -> str | None:
    """``self.X`` -> ``"X"`` (None for anything else)."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _is_lock_factory(expr: ast.expr) -> bool:
    """Whether ``expr`` constructs a lock-like object (possibly wrapped,
    e.g. ``Condition(ordered_lock(...))``)."""
    if not isinstance(expr, ast.Call):
        return False
    return _terminal_name(expr.func) in _LOCK_FACTORIES


@dataclass
class Access:
    """One ``self.<attr>`` touch at a known program point."""

    method: str
    line: int
    col: int
    attr: str
    is_write: bool
    #: Locks held *locally* (relative to the method's entry held set).
    local_held: frozenset[str]


@dataclass
class CallSite:
    """One intra-class ``self.<method>()`` call."""

    caller: str
    callee: str
    local_held: frozenset[str]


@dataclass
class ClassModel:
    """Everything REP007/REP008 need to know about one class."""

    name: str
    line: int
    lock_attrs: frozenset[str]
    #: attr -> declared guarding lock (from ``# guarded-by:`` comments).
    guards: dict[str, str] = field(default_factory=dict)
    #: attr -> line of its annotation (for configuration diagnostics).
    guard_lines: dict[str, tuple[int, int]] = field(default_factory=dict)
    method_names: frozenset[str] = frozenset()
    accesses: list[Access] = field(default_factory=list)
    call_sites: list[CallSite] = field(default_factory=list)

    def entry_held(self) -> dict[str, frozenset[str]]:
        """Fixpoint of per-method held-at-entry sets.

        ``entry(m) = ⋂ over call sites (entry(caller) ∪ local_held)``
        for private methods with at least one intra-class call site;
        empty for everything else.  Monotone from ∅, so iterating to a
        fixpoint terminates.
        """
        entry: dict[str, frozenset[str]] = {
            name: frozenset() for name in self.method_names}
        sites_by_callee: dict[str, list[CallSite]] = {}
        for site in self.call_sites:
            sites_by_callee.setdefault(site.callee, []).append(site)
        for _ in range(max(1, len(self.method_names))):
            changed = False
            for name in self.method_names:
                if not name.startswith("_") or name in _EXEMPT_METHODS:
                    continue
                sites = sites_by_callee.get(name)
                if not sites:
                    continue
                held_sets = [entry[s.caller] | s.local_held for s in sites
                             if s.caller in entry]
                if not held_sets:
                    continue
                new = frozenset.intersection(*held_sets)
                if new != entry[name]:
                    entry[name] = new
                    changed = True
            if not changed:
                break
        return entry


class _MethodScanner:
    """Walk one method body tracking the lexically held lock set."""

    def __init__(self, model: ClassModel, method: str) -> None:
        self.model = model
        self.method = method

    def scan(self, body: Sequence[ast.stmt]) -> None:
        self._scan_block(body, frozenset())

    # ------------------------------------------------------------- statements
    def _scan_block(self, stmts: Sequence[ast.stmt],
                    held: frozenset[str]) -> frozenset[str]:
        for stmt in stmts:
            held = self._scan_stmt(stmt, held)
        return held

    def _scan_stmt(self, stmt: ast.stmt,
                   held: frozenset[str]) -> frozenset[str]:
        acquired = self._acquire_target(stmt)
        if acquired is not None:
            # The acquire call itself runs unlocked.
            self._record_expr_stmt(stmt, held)
            return held | {acquired}
        released = self._release_target(stmt)
        if released is not None:
            self._record_expr_stmt(stmt, held)
            return held - {released}
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = held
            for item in stmt.items:
                self._record_expressions(item.context_expr, held, None)
                attr = self._lock_of_with_item(item)
                if attr is not None:
                    inner = inner | {attr}
            self._scan_block(stmt.body, inner)
            return held
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            # Nested defs run later, possibly without the lock; the
            # conservative choice (shared with REP004) is to skip them.
            return held
        if isinstance(stmt, ast.Try):
            end = self._scan_block(stmt.body, held)
            for handler in stmt.handlers:
                self._scan_block(handler.body, held)
            self._scan_block(stmt.orelse, end)
            return self._scan_block(stmt.finalbody, end)
        if isinstance(stmt, (ast.If, ast.While, ast.For, ast.AsyncFor)):
            for expr_field in ("test", "iter", "target"):
                sub = getattr(stmt, expr_field, None)
                if isinstance(sub, ast.expr):
                    self._record_expressions(sub, held, None)
            self._scan_block(stmt.body, held)
            self._scan_block(stmt.orelse, held)
            return held
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            value = stmt.value
            if value is not None:
                self._record_expressions(value, held, None)
            if isinstance(stmt, ast.AugAssign):
                # ``self.x += 1`` both reads and writes the attribute.
                for target in targets:
                    self._record_expressions(target, held, True)
            else:
                for target in targets:
                    self._record_target(target, held)
            return held
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._record_expressions(target, held, True)
            return held
        # Generic statement: record reads, then recurse into sub-blocks.
        self._record_expr_stmt(stmt, held)
        for sub_block in ("body", "orelse", "finalbody"):
            sub = getattr(stmt, sub_block, None)
            if isinstance(sub, list):
                self._scan_block(sub, held)
        return held

    # ------------------------------------------------------------ expressions
    def _record_expr_stmt(self, stmt: ast.stmt,
                          held: frozenset[str]) -> None:
        for node in ast.iter_child_nodes(stmt):
            if isinstance(node, ast.expr):
                self._record_expressions(node, held, None)

    def _record_expressions(self, node: ast.expr, held: frozenset[str],
                            force_write: bool | None) -> None:
        """Record attribute accesses and intra-class calls under ``node``."""
        for sub in ast.walk(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda)):
                continue
            if isinstance(sub, ast.Attribute):
                attr = _self_attr(sub)
                if attr is not None:
                    self._note_access(sub, attr, bool(force_write), held)
            elif isinstance(sub, ast.Call):
                callee = _self_attr(sub.func)
                if callee is not None and callee in self.model.method_names:
                    self.model.call_sites.append(CallSite(
                        caller=self.method, callee=callee, local_held=held))

    def _record_target(self, target: ast.expr,
                       held: frozenset[str]) -> None:
        """An assignment target: the *base* ``self.X`` of the chain is a
        write (``self.x = v``, ``self.d[k] = v``, ``self.stats.f = v``
        all mutate state reachable as ``self.X``)."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_target(element, held)
            return
        base = target
        while isinstance(base, (ast.Attribute, ast.Subscript)):
            attr = _self_attr(base)
            if attr is not None:
                self._note_access(base, attr, True, held)
                return
            if isinstance(base, ast.Subscript):
                self._record_expressions(base.slice, held, None)
            base = base.value
        if not isinstance(base, ast.Name):
            # ``something()[k] = v`` — no self-attribute base; record
            # any reads buried in the expression.
            self._record_expressions(base, held, None)

    def _note_access(self, node: ast.expr, attr: str, is_write: bool,
                     held: frozenset[str]) -> None:
        if attr in self.model.lock_attrs or attr in self.model.method_names:
            return
        self.model.accesses.append(Access(
            method=self.method, line=node.lineno, col=node.col_offset,
            attr=attr, is_write=is_write, local_held=held))

    # ----------------------------------------------------------- lock regions
    def _lock_of_with_item(self, item: ast.withitem) -> str | None:
        attr = _self_attr(item.context_expr)
        if attr is not None and attr in self.model.lock_attrs:
            return attr
        return None

    def _acquire_target(self, stmt: ast.stmt) -> str | None:
        return self._lock_call(stmt, "acquire")

    def _release_target(self, stmt: ast.stmt) -> str | None:
        return self._lock_call(stmt, "release")

    def _lock_call(self, stmt: ast.stmt, op: str) -> str | None:
        if not (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)):
            return None
        func = stmt.value.func
        if not (isinstance(func, ast.Attribute) and func.attr == op):
            return None
        attr = _self_attr(func.value)
        if attr is not None and attr in self.model.lock_attrs:
            return attr
        return None


# ----------------------------------------------------------- model building
def _annotation_lines(source: str) -> dict[int, str]:
    """line number -> lock name, for every ``# guarded-by:`` comment."""
    found: dict[int, str] = {}
    for lineno, text in enumerate(source.splitlines(), 1):
        match = GUARDED_BY_RE.search(text)
        if match:
            found[lineno] = match.group("lock")
    return found


def _stmt_lines(stmt: ast.stmt) -> range:
    return range(stmt.lineno, (stmt.end_lineno or stmt.lineno) + 1)


def _collect_lock_attrs(cls: ast.ClassDef,
                        methods: dict[str, _FunctionNode]) -> frozenset[str]:
    locks: set[str] = set()
    init = methods.get("__init__")
    if init is not None:
        for node in ast.walk(init):
            if isinstance(node, ast.Assign) and _is_lock_factory(node.value):
                for target in node.targets:
                    attr = _self_attr(target)
                    if attr is not None:
                        locks.add(attr)
            elif (isinstance(node, ast.AnnAssign) and node.value is not None
                    and _is_lock_factory(node.value)):
                attr = _self_attr(node.target)
                if attr is not None:
                    locks.add(attr)
    for stmt in cls.body:  # class-level lock attributes
        if (isinstance(stmt, ast.Assign) and _is_lock_factory(stmt.value)
                and all(isinstance(t, ast.Name) for t in stmt.targets)):
            locks.update(t.id for t in stmt.targets
                         if isinstance(t, ast.Name))
    return frozenset(locks)


def _collect_guards(cls: ast.ClassDef, methods: dict[str, _FunctionNode],
                    annotations: dict[int, str], model: ClassModel) -> None:
    """Attach ``# guarded-by:`` comments to the attributes they annotate.

    An annotation binds to the attribute assigned on its line: a
    ``self.X = ...`` statement anywhere in the class (normally
    ``__init__``) or a class-level ``X: T = ...`` field declaration
    (the dataclass form).
    """
    def note(attr: str, stmt: ast.stmt) -> None:
        for line in _stmt_lines(stmt):
            lock = annotations.get(line)
            if lock is not None:
                model.guards[attr] = lock
                model.guard_lines[attr] = (stmt.lineno, stmt.col_offset)
                return

    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target,
                                                          ast.Name):
            note(stmt.target.id, stmt)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    note(target.id, stmt)
    for method in methods.values():
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    attr = _self_attr(target)
                    if attr is not None:
                        note(attr, node)
            elif isinstance(node, ast.AnnAssign):
                attr = _self_attr(node.target)
                if attr is not None:
                    note(attr, node)


def class_models(tree: ast.Module, source: str) -> list[ClassModel]:
    """Build a :class:`ClassModel` for every class in the module."""
    annotations = _annotation_lines(source)
    models: list[ClassModel] = []
    for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
        methods: dict[str, _FunctionNode] = {
            stmt.name: stmt for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))}
        model = ClassModel(
            name=cls.name, line=cls.lineno,
            lock_attrs=_collect_lock_attrs(cls, methods),
            method_names=frozenset(methods))
        _collect_guards(cls, methods, annotations, model)
        if not model.lock_attrs and not model.guards:
            continue  # not lock-aware: nothing to check
        for name, node in methods.items():
            if name in _EXEMPT_METHODS:
                continue
            _MethodScanner(model, name).scan(node.body)
        models.append(model)
    return models


# ------------------------------------------------------------------- REP007
def check_rep007(tree: ast.Module, path: str,
                 source: str) -> Iterator[tuple[int, int, str]]:
    del path  # applies everywhere annotations appear
    for model in class_models(tree, source):
        for attr, lock in sorted(model.guards.items()):
            if lock not in model.lock_attrs:
                line, col = model.guard_lines[attr]
                yield (line, col,
                       f"{model.name}.{attr} is annotated guarded-by "
                       f"{lock!r}, but {model.name} constructs no such "
                       f"lock (known locks: "
                       f"{', '.join(sorted(model.lock_attrs)) or 'none'})")
        entry = model.entry_held()
        for access in model.accesses:
            lock = model.guards.get(access.attr)
            if lock is None or lock not in model.lock_attrs:
                continue
            held = entry.get(access.method, frozenset()) | access.local_held
            if lock not in held:
                action = "written" if access.is_write else "read"
                yield (access.line, access.col,
                       f"{model.name}.{access.attr} is {action} in "
                       f"{access.method}() without holding self.{lock} "
                       f"(declared '# guarded-by: {lock}')")


# ------------------------------------------------------------------- REP008
def check_rep008(tree: ast.Module, path: str,
                 source: str) -> Iterator[tuple[int, int, str]]:
    del path
    for model in class_models(tree, source):
        if not model.lock_attrs:
            continue
        entry = model.entry_held()
        writes: dict[str, list[tuple[Access, frozenset[str]]]] = {}
        for access in model.accesses:
            if not access.is_write or access.attr in model.guards:
                continue
            if access.attr.startswith("__"):
                continue
            held = entry.get(access.method, frozenset()) | access.local_held
            writes.setdefault(access.attr, []).append((access, held))
        for attr, sites in sorted(writes.items()):
            distinct_points = {(a.method, a.line) for a, _ in sites}
            if len(distinct_points) < 2:
                continue
            held_sets = [held for _, held in sites]
            locked = [h for h in held_sets if h]
            unlocked = [h for h in held_sets if not h]
            first = min(sites, key=lambda item: (item[0].line, item[0].col))
            where = ", ".join(sorted(
                {f"{a.method}():{a.line}" for a, _ in sites}))
            if locked and unlocked:
                yield (first[0].line, first[0].col,
                       f"{model.name}.{attr} is written both under a lock "
                       f"and outside any lock ({where}); pick one guard "
                       f"and declare it with '# guarded-by: <lock>'")
            elif locked and not frozenset.intersection(*held_sets):
                yield (first[0].line, first[0].col,
                       f"{model.name}.{attr} is written under distinct "
                       f"locks with no common guard ({where}); pick one "
                       f"guard and declare it with "
                       f"'# guarded-by: <lock>'")
