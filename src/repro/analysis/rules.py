"""The project-specific rule catalog (REP001..REP008).

Each rule encodes an invariant the S3 reproduction depends on but no
generic linter can know:

========  ==============================================================
REP001    no wall-clock reads outside ``common/clock.py`` — simulated
          time comes from the event clock, real timing from the clock
          abstraction
REP002    no stdlib ``random`` / unseeded or legacy-global numpy RNG —
          randomness routes through ``common/rng.py``
REP003    ``ReadStats`` counter fields are written only by
          ``localrt/storage.py`` and ``localrt/counters.py`` (protects
          the logical-vs-physical accounting split)
REP004    no blocking calls lexically inside a lock-held region — a
          ``with ...lock:`` / ``with ...cond:`` block or a bare
          ``.acquire()`` .. ``.release()`` span, including one-hop
          ``self._helper()`` calls (sleep, file I/O, join, subprocess,
          queue get/put, event wait).  Carve-out: ``.wait()`` /
          ``.wait_for()`` on a condition-ish receiver, because
          ``Condition.wait`` *releases* the lock while blocked
REP005    public functions in ``localrt/``, ``schedulers/``,
          ``service/``, and ``common/`` are fully type-annotated
          (mypy strict backs this in CI)
REP006    runtime/scheduler/service code emits telemetry only through
          ``repro.obs`` — no ``print()`` and no ``logging`` outside the
          sanctioned CLI surfaces (``__main__.py``/``cli.py``); ad-hoc
          emission bypasses the tracer's clock discipline and the
          no-op fast path
REP007    attribute annotated ``# guarded-by: <lock>`` accessed
          without that lock held (see ``guardedby.py``)
REP008    attribute written under ≥2 distinct locks, or both under and
          outside a lock — an inconsistent guard (see ``guardedby.py``)
========  ==============================================================

Rules are lexical on purpose: they run on any tree without imports or
type inference, and the handful of borderline cases are documented with
``# repro: noqa[...]`` at the use site, which doubles as a review
marker.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterator, Sequence

from .core import Rule
from .guardedby import check_rep007, check_rep008

# --------------------------------------------------------------- path scoping

def _parts(path: str) -> tuple[str, ...]:
    return pathlib.PurePosixPath(path).parts


def _ends_with(path: str, *tail: str) -> bool:
    parts = _parts(path)
    return parts[-len(tail):] == tail


# ------------------------------------------------------------ REP001: clock

#: ``time`` module members that read the wall clock.
_WALLCLOCK_TIME = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "clock_gettime", "clock_gettime_ns",
    "localtime", "gmtime",
})

#: The one sanctioned wall-clock site (the clock abstraction itself).
_CLOCK_ALLOWLIST = (("repro", "common", "clock.py"), ("common", "clock.py"))


def _attr_chain(node: ast.expr) -> list[str]:
    """``a.b.c`` -> ``["a", "b", "c"]`` (empty when not a name chain)."""
    names: list[str] = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        names.append(node.id)
        names.reverse()
        return names
    return []


def check_rep001(tree: ast.Module,
                 path: str) -> Iterator[tuple[int, int, str]]:
    if any(_ends_with(path, *tail) for tail in _CLOCK_ALLOWLIST):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            bad = sorted(a.name for a in node.names
                         if a.name in _WALLCLOCK_TIME)
            if bad:
                yield (node.lineno, node.col_offset,
                       f"wall-clock import from time ({', '.join(bad)}); "
                       "simulated paths use the event clock, real timing "
                       "goes through repro.common.clock")
        elif isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            if (len(chain) == 2 and chain[0] == "time"
                    and chain[1] in _WALLCLOCK_TIME):
                yield (node.lineno, node.col_offset,
                       f"wall-clock read time.{chain[1]}(); simulated "
                       "paths use the event clock, real timing goes "
                       "through repro.common.clock")
            elif (len(chain) >= 2 and chain[-1] in ("now", "utcnow", "today")
                    and chain[0] in ("datetime", "date", "dt")):
                yield (node.lineno, node.col_offset,
                       f"wall-clock read {'.'.join(chain)}(); use the "
                       "event clock or repro.common.clock")


# -------------------------------------------------------------- REP002: rng

#: Legacy module-level numpy RNG entry points (global hidden state).
_NUMPY_GLOBAL_RNG = frozenset({
    "seed", "rand", "randn", "randint", "random", "random_sample",
    "choice", "shuffle", "permutation", "normal", "uniform", "poisson",
    "exponential", "binomial",
})

_RNG_ALLOWLIST = (("repro", "common", "rng.py"), ("common", "rng.py"))


def check_rep002(tree: ast.Module,
                 path: str) -> Iterator[tuple[int, int, str]]:
    if any(_ends_with(path, *tail) for tail in _RNG_ALLOWLIST):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "random":
                    yield (node.lineno, node.col_offset,
                           "stdlib random is banned (unseeded global "
                           "state); route randomness through "
                           "repro.common.rng.make_rng")
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] == "random":
                yield (node.lineno, node.col_offset,
                       "stdlib random is banned (unseeded global state); "
                       "route randomness through repro.common.rng.make_rng")
        elif isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            if (len(chain) == 3 and chain[0] in ("np", "numpy")
                    and chain[1] == "random"
                    and chain[2] in _NUMPY_GLOBAL_RNG):
                yield (node.lineno, node.col_offset,
                       f"legacy global numpy RNG {'.'.join(chain)}(); "
                       "use repro.common.rng.make_rng for a seeded "
                       "Generator")
            elif (chain and chain[-1] == "default_rng"
                    and not node.args and not node.keywords):
                yield (node.lineno, node.col_offset,
                       "unseeded default_rng(); pass a seed or use "
                       "repro.common.rng.make_rng (deterministic by "
                       "default)")


# ---------------------------------------------------- REP003: counter writes

#: Fields of repro.localrt.storage.ReadStats.  Kept literal so the
#: analyzer never imports the runtime; tests assert this set matches the
#: dataclass (see tests/analysis/test_rules.py).
READSTATS_FIELDS = frozenset({
    "blocks_read", "bytes_read", "physical_blocks_read",
    "physical_bytes_read", "cache_hits", "cache_misses",
    "cache_evictions", "prefetched_blocks",
    # Bytes-path counter (zero-copy scan, PR 7): writable only from the
    # same allowlist so path attribution stays trustworthy.
    "mmap_blocks_read",
    # Sharded-store failover accounting (PR 9).
    "replica_fallback_reads",
    # Visits the derived-view table answered with no bytes loaded.
    "view_blocks_read",
})

#: Receiver names that identify a ReadStats holder (``store.stats``,
#: ``self.stats``, ``report.io``...).
_STATS_RECEIVERS = ("stats", "io")

_REP003_ALLOWLIST = (("localrt", "storage.py"), ("localrt", "counters.py"),
                     ("localrt", "sharded.py"))


def _is_stats_receiver(node: ast.expr) -> bool:
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    else:
        return False
    return name in _STATS_RECEIVERS or name.endswith("_stats")


def check_rep003(tree: ast.Module,
                 path: str) -> Iterator[tuple[int, int, str]]:
    if any(_ends_with(path, *tail) for tail in _REP003_ALLOWLIST):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets: Sequence[ast.expr] = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if (isinstance(target, ast.Attribute)
                    and target.attr in READSTATS_FIELDS
                    and _is_stats_receiver(target.value)):
                yield (node.lineno, node.col_offset,
                       f"write to ReadStats.{target.attr} outside "
                       "localrt/storage.py|counters.py breaks the "
                       "logical-vs-physical I/O accounting; use the "
                       "BlockStore APIs (read_block_bytes, snapshot/delta)")


# ------------------------------------------------- REP004: blocking in lock

#: Attribute calls that (may) block the calling thread.
_BLOCKING_ATTRS = frozenset({
    "sleep", "wait", "wait_for", "read", "readline", "readlines", "write",
    "writelines", "read_bytes", "read_text", "write_bytes", "write_text",
    "flush", "fsync",
})

_QUEUEISH = ("queue", "_q")

#: Receiver names that identify a condition variable.  ``.wait()`` /
#: ``.wait_for()`` on these is the documented carve-out:
#: ``Condition.wait`` atomically *releases* the lock while blocked, so
#: it is the sanctioned way to block inside a ``with cond:`` region.
_CONDISH = ("cond", "cv", "condition")


def _terminal_name(node: ast.expr) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _lockish_name(name: str) -> bool:
    low = name.lower()
    return ("lock" in low or "mutex" in low
            or any(tag in low for tag in _CONDISH) or low == "cv"
            or low.endswith("_cv"))


def _condish_name(name: str) -> bool:
    low = name.lower()
    return (any(tag in low for tag in _CONDISH)
            or low == "cv" or low.endswith("_cv"))


def _is_lock_context(item: ast.withitem) -> bool:
    expr = item.context_expr
    if isinstance(expr, ast.Call):
        # ``with lock.acquire_timeout(...)`` style / ``.acquire()``
        name = _terminal_name(expr.func)
        return name == "acquire" or _lockish_name(name)
    return _lockish_name(_terminal_name(expr))


def _blocking_reason(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "open":
            return "file I/O (open)"
        if func.id == "sleep":
            return "sleep"
        return None
    if not isinstance(func, ast.Attribute):
        return None
    chain = _attr_chain(func)
    if chain and chain[0] == "subprocess":
        return f"subprocess call ({'.'.join(chain)})"
    if chain[:2] == ["os", "system"]:
        return "subprocess call (os.system)"
    attr = func.attr
    if attr in ("wait", "wait_for") and _condish_name(
            _terminal_name(func.value)):
        return None  # Condition.wait releases the lock (carve-out)
    if attr == "sleep":
        return "sleep"
    if attr == "join" and not call.args:
        return "thread/process join"
    if attr in _BLOCKING_ATTRS:
        return f"blocking call .{attr}()"
    if attr in ("get", "put"):
        receiver = _terminal_name(func.value).lower()
        if receiver == "q" or any(tag in receiver for tag in _QUEUEISH):
            return f"blocking queue .{attr}()"
    return None


def _bare_lock_op(stmt: ast.stmt, op: str) -> str | None:
    """``lock.acquire()`` / ``lock.release()`` as a bare expression
    statement -> the receiver's dotted name, else ``None``."""
    if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)):
        return None
    func = stmt.value.func
    if not (isinstance(func, ast.Attribute) and func.attr == op):
        return None
    chain = _attr_chain(func.value)
    if chain and _lockish_name(chain[-1]):
        return ".".join(chain)
    return None


def _helper_blocking(helper: ast.FunctionDef | ast.AsyncFunctionDef
                     ) -> str | None:
    """First blocking reason in a one-hop callee, skipping regions the
    callee already protects itself (its own ``with lock:`` bodies and
    bare acquire/release spans are flagged when *it* is scanned)."""
    def first_reason(node: ast.AST) -> str | None:
        stack: list[ast.AST] = [node]
        while stack:
            sub = stack.pop()
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda)):
                continue
            if isinstance(sub, ast.Call):
                reason = _blocking_reason(sub)
                if reason:
                    return reason
            stack.extend(ast.iter_child_nodes(sub))
        return None

    def scan(stmts: Sequence[ast.stmt]) -> str | None:
        bare = 0
        for stmt in stmts:
            if _bare_lock_op(stmt, "acquire"):
                bare += 1
                continue
            if _bare_lock_op(stmt, "release"):
                bare = max(0, bare - 1)
                continue
            if bare:
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)) and any(
                    _is_lock_context(item) for item in stmt.items):
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith, ast.Try, ast.If,
                                 ast.While, ast.For, ast.AsyncFor)):
                for expr in filter(None, (getattr(stmt, "test", None),
                                          getattr(stmt, "iter", None))):
                    found = first_reason(expr)
                    if found:
                        return found
                for block in _stmt_blocks(stmt):
                    found = scan(block)
                    if found:
                        return found
            else:
                found = first_reason(stmt)
                if found:
                    return found
        return None

    return scan(helper.body)


def _stmt_blocks(stmt: ast.stmt) -> Iterator[Sequence[ast.stmt]]:
    for name in ("body", "orelse", "finalbody"):
        block = getattr(stmt, name, None)
        if block:
            yield block
    for handler in getattr(stmt, "handlers", ()):
        yield handler.body


_Methods = dict[str, "ast.FunctionDef | ast.AsyncFunctionDef"]


def _locked_stmt_violations(stmt: ast.stmt, methods: _Methods
                            ) -> Iterator[tuple[int, int, str]]:
    """Blocking calls in one lock-held statement (header expressions
    included), plus one-hop ``self._helper()`` calls whose body blocks."""
    stack: list[ast.AST] = [stmt]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            reason = _blocking_reason(node)
            if reason:
                yield (node.lineno, node.col_offset,
                       f"{reason} while holding a lock; move the "
                       "blocking work outside the critical section")
            else:
                chain = _attr_chain(node.func)
                if (len(chain) == 2 and chain[0] == "self"
                        and chain[1] in methods):
                    helper_reason = _helper_blocking(methods[chain[1]])
                    if helper_reason:
                        yield (node.lineno, node.col_offset,
                               f"call to self.{chain[1]}() does "
                               f"{helper_reason} while holding a lock; "
                               "move the blocking work outside the "
                               "critical section")
        stack.extend(ast.iter_child_nodes(node))


def _scan_region(stmts: Sequence[ast.stmt], locked: bool,
                 methods: _Methods) -> Iterator[tuple[int, int, str]]:
    """Walk a statement sequence tracking lock-held spans.

    ``locked`` means a lock is held on entry (an enclosing ``with
    lock:``).  Bare ``lock.acquire()`` opens a span that the matching
    bare ``lock.release()`` — directly or in a ``try/finally`` —
    closes; the tracking is linear/lexical by design, like the rest of
    the analyzer.
    """
    bare: list[str] = []
    for stmt in stmts:
        acquired = _bare_lock_op(stmt, "acquire")
        if acquired is not None:
            bare.append(acquired)
            continue
        released = _bare_lock_op(stmt, "release")
        if released is not None:
            if released in bare:
                bare.remove(released)
            continue
        held = locked or bool(bare)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Runs later, outside the lock; fresh scope.
            yield from _scan_region(stmt.body, False, methods)
        elif isinstance(stmt, ast.ClassDef):
            nested = {s.name: s for s in stmt.body
                      if isinstance(s, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))}
            yield from _scan_region(stmt.body, False, nested)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            is_lock = any(_is_lock_context(item) for item in stmt.items)
            if held:
                for item in stmt.items:
                    yield from _locked_stmt_violations(
                        ast.Expr(value=item.context_expr), methods)
            yield from _scan_region(stmt.body, held or is_lock, methods)
        elif isinstance(stmt, (ast.Try, ast.If, ast.While, ast.For,
                               ast.AsyncFor)):
            if held:
                for expr in filter(None, (getattr(stmt, "test", None),
                                          getattr(stmt, "iter", None))):
                    yield from _locked_stmt_violations(
                        ast.Expr(value=expr), methods)
            for block in _stmt_blocks(stmt):
                yield from _scan_region(block, held, methods)
            if isinstance(stmt, ast.Try):
                # ``finally: lock.release()`` closes a span opened
                # before the try.
                for sub in stmt.finalbody:
                    done = _bare_lock_op(sub, "release")
                    if done is not None and done in bare:
                        bare.remove(done)
        else:
            if held:
                yield from _locked_stmt_violations(stmt, methods)


def check_rep004(tree: ast.Module,
                 path: str) -> Iterator[tuple[int, int, str]]:
    del path  # applies everywhere
    yield from _scan_region(tree.body, False, {})


# ------------------------------------------------- REP005: type annotations

_REP005_DIRS = ("localrt", "schedulers", "service", "common")


class _PublicDefVisitor(ast.NodeVisitor):
    """Collect public module/class-level defs (nested defs are private
    implementation detail and exempt)."""

    def __init__(self) -> None:
        self.found: list[ast.FunctionDef | ast.AsyncFunctionDef] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if not node.name.startswith("_"):
            self.found.append(node)
        # do not generic_visit: nested defs are exempt

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        if not node.name.startswith("_"):
            self.found.append(node)


def check_rep005(tree: ast.Module,
                 path: str) -> Iterator[tuple[int, int, str]]:
    if not any(part in _REP005_DIRS for part in _parts(path)):
        return
    visitor = _PublicDefVisitor()
    visitor.visit(tree)
    for node in visitor.found:
        args = node.args
        params = list(args.posonlyargs) + list(args.args) + \
            list(args.kwonlyargs)
        if params and params[0].arg in ("self", "cls"):
            params = params[1:]
        if args.vararg is not None:
            params.append(args.vararg)
        if args.kwarg is not None:
            params.append(args.kwarg)
        missing = [p.arg for p in params if p.annotation is None]
        if missing:
            yield (node.lineno, node.col_offset,
                   f"public function {node.name}() has unannotated "
                   f"parameter(s): {', '.join(missing)}")
        if node.returns is None:
            yield (node.lineno, node.col_offset,
                   f"public function {node.name}() has no return "
                   "annotation")


# -------------------------------------------- REP006: emission through obs

_REP006_DIRS = ("localrt", "schedulers", "service", "common")

#: Sanctioned CLI emission surfaces — a ``__main__``/``cli`` module's
#: job *is* writing to stdout; everything else goes through repro.obs.
_REP006_EXEMPT_BASENAMES = ("__main__.py", "cli.py")

#: ``logging`` emission methods (on a Logger or the module itself).
_LOG_EMIT = frozenset({
    "debug", "info", "warning", "warn", "error", "critical", "exception",
    "log",
})

#: Receiver names that identify a logger object.
_LOGGERISH = ("logger", "log", "logging")


def check_rep006(tree: ast.Module,
                 path: str) -> Iterator[tuple[int, int, str]]:
    parts = _parts(path)
    if not any(part in _REP006_DIRS for part in parts):
        return
    if parts and parts[-1] in _REP006_EXEMPT_BASENAMES:
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "logging":
                    yield (node.lineno, node.col_offset,
                           "logging import in runtime/scheduler code; "
                           "emit telemetry through repro.obs (Tracer "
                           "spans/events, MetricsRegistry)")
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] == "logging":
                yield (node.lineno, node.col_offset,
                       "logging import in runtime/scheduler code; emit "
                       "telemetry through repro.obs (Tracer spans/events, "
                       "MetricsRegistry)")
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "print":
                yield (node.lineno, node.col_offset,
                       "print() in runtime/scheduler code; record a "
                       "tracer event (repro.obs) instead of writing to "
                       "stdout")
            elif isinstance(func, ast.Attribute) and func.attr in _LOG_EMIT:
                receiver = _terminal_name(func.value).lower()
                if (receiver in _LOGGERISH
                        or receiver.endswith(("_logger", "_log"))):
                    yield (node.lineno, node.col_offset,
                           f"logger emission .{func.attr}() in runtime/"
                           "scheduler code; emit telemetry through "
                           "repro.obs (Tracer spans/events, "
                           "MetricsRegistry)")


# ------------------------------------------------------------------ catalog

RULES: tuple[Rule, ...] = (
    Rule("REP001", "no wall-clock reads outside common/clock.py",
         check_rep001),
    Rule("REP002", "randomness must route through common/rng.py (seeded)",
         check_rep002),
    Rule("REP003", "ReadStats fields written only by storage.py/counters.py",
         check_rep003),
    Rule("REP004", "no blocking calls inside a lock-held region",
         check_rep004),
    Rule("REP005", "public runtime/scheduler/service functions fully "
         "annotated", check_rep005),
    Rule("REP006", "runtime/scheduler/service telemetry goes through "
         "repro.obs only", check_rep006),
    Rule("REP007", "guarded attribute accessed without its lock held",
         check_src=check_rep007),
    Rule("REP008", "attribute written under inconsistent guards",
         check_src=check_rep008),
)

RULES_BY_CODE = {rule.code: rule for rule in RULES}
