"""Dead-code gate: every top-level definition in ``src/``, and every
method of a top-level class, has a caller outside the test suite.

The pass is name based and over-approximating. Its roots are the
module-level code of every ``src/`` module (imports, ``__all__`` and
docstrings excluded), whole ``__main__`` modules, everything under
``benchmarks/`` and ``examples/``, the CI workflow and pyproject's
console scripts. A definition becomes live when its name is used in live
code, and its body's names then become live in turn. Any identifier
counts, including words inside string literals, so the pass can miss
dead code but never flags live code.

A live class makes its own body live (bases, class-level statements,
decorators), but not its methods: a method is a definition of its own,
live when its name is used in live code, like a function.  Dunder
methods (the interpreter calls them) and the ``visit_*`` methods of an
``ast.NodeVisitor`` (its ``visit`` dispatches on them) are part of their
class's body.

A definition that only tests reach fails the gate unless ``KEPT`` names
it with a reason: delete it together with its tests instead.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: Definitions kept although only tests reach them, each with the reason
#: it stays.  Keys are ``module:name``, or ``module:Class.method``.
KEPT = {
    **dict.fromkeys(
        ("repro.schedulers.s3.autotune:SegmentCostModel",
         "repro.schedulers.s3.autotune:SegmentCostModel.admission_delay",
         "repro.schedulers.s3.autotune:SegmentCostModel.cycle_time",
         "repro.schedulers.s3.autotune:SegmentCostModel.expected_response",
         "repro.schedulers.s3.autotune:paper_ideal_within",
         "repro.schedulers.s3.autotune:recommend_blocks_per_segment"),
        "segment-length model; a static-segment sweep decides its fate"),
    **dict.fromkeys(
        ("repro.metrics.validate:ValidationReport",
         "repro.metrics.validate:ValidationReport.raise_if_invalid",
         "repro.metrics.validate:validate_trace"),
        "trace validator: the oracle of the pinned simulator-trace test"),
    **dict.fromkeys(
        ("repro.analysis.lockgraph:lock_order_graph",
         "repro.analysis.lockgraph:lockcheck_enabled",
         "repro.analysis.lockgraph:reset_lock_graph",
         "repro.analysis.lockgraph:set_lockcheck",
         "repro.analysis.racecheck:reset_racecheck_state",
         "repro.analysis.racecheck:set_racecheck"),
        "lock-order and race-check switches: safety tooling the suite drives"),
    **dict.fromkeys(
        ("repro.localrt.cache:BlockCache.current_bytes",
         "repro.localrt.prefetch:ReadAheadPrefetcher.scheduled_ever",
         "repro.localrt.tokens:TokenEncoder.current_size"),
        "bounded-state probe: tests show the state stays under its cap"),
    "repro.obs.live.telemetry:ServiceTelemetry.record_fail":
        "failed-job edge: a job that fails mid-scan is to be booked with it",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

Function = ast.FunctionDef | ast.AsyncFunctionDef


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _is_docstring(node: ast.AST) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _names(nodes: list[ast.AST]) -> set[str]:
    """Every identifier used in *nodes*, docstrings excluded."""
    found: set[str] = set()
    for top in nodes:
        docstrings = {id(body[0]) for n in ast.walk(top)
                      if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                        ast.AsyncFunctionDef))
                      and (body := n.body) and _is_docstring(body[0])}
        stack = [top]
        while stack:
            node = stack.pop()
            if id(node) in docstrings:
                continue
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                found.add(node.name)
            elif isinstance(node, ast.alias):
                found.update((node.asname or node.name).split("."))
                found.update(node.name.split("."))
            elif isinstance(node, ast.keyword) and node.arg:
                found.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.update(_WORD.findall(node.value))
            stack.extend(ast.iter_child_nodes(node))
    return found


def _is_root_method(cls: ast.ClassDef, method: Function) -> bool:
    """Whether something other than a name in the code calls ``method``:
    a dunder, or a ``visit_*`` method of an ``ast.NodeVisitor``."""
    name = method.name
    if name.startswith("__") and name.endswith("__"):
        return True
    return name.startswith("visit_") and any(
        "NodeVisitor" in ast.unparse(base) for base in cls.bases)


def _class_parts(cls: ast.ClassDef, qualified: str,
                 ) -> tuple[list[ast.AST], list[tuple[str, Function]]]:
    """What a live class makes live (its bases, keywords, class-level
    statements, root methods and every method's decorators), and its
    other methods as ``(module:Class.method, node)``."""
    body: list[ast.AST] = [*cls.bases, *cls.keywords]
    methods: list[tuple[str, Function]] = []
    for stmt in cls.body:
        if _is_docstring(stmt):
            continue
        if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not _is_root_method(cls, stmt)):
            body.extend(stmt.decorator_list)
            methods.append((f"{qualified}.{stmt.name}", stmt))
        else:
            body.append(stmt)
    return body, methods


def _is_all(stmt: ast.stmt) -> bool:
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, (ast.AugAssign, ast.AnnAssign))
               else [])
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def unreachable() -> list[str]:
    """``module:name`` of each top-level ``src/`` definition, and
    ``module:Class.method`` of each method of a top-level class, that no
    root reaches."""
    # name -> (module:name, what its use makes live), one per definition.
    defs: dict[str, list[tuple[str, list[ast.AST]]]] = {}
    aliases: dict[str, set[str]] = {}
    roots: list[ast.AST] = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "__main__.py":
            roots.append(tree)
            continue
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualified = f"{_module_name(path)}:{stmt.name}"
                body: list[ast.AST] = [stmt]
                if isinstance(stmt, ast.ClassDef):
                    body, methods = _class_parts(stmt, qualified)
                    for method_qualified, method in methods:
                        defs.setdefault(method.name, []).append(
                            (method_qualified, [method]))
                defs.setdefault(stmt.name, []).append((qualified, body))
                # Decorators run at import time.
                roots.extend(stmt.decorator_list)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    if alias.asname:
                        aliases.setdefault(alias.asname, set()).add(
                            alias.name.rsplit(".", 1)[-1])
            elif not (_is_all(stmt) or _is_docstring(stmt)):
                roots.append(stmt)
    for tree_root in ("benchmarks", "examples"):
        roots.extend(ast.parse(p.read_text(encoding="utf-8"))
                     for p in sorted((REPO / tree_root).rglob("*.py")))

    live = _names(roots)
    for text_root in (REPO / ".github", REPO / "pyproject.toml"):
        files = sorted(text_root.rglob("*")) if text_root.is_dir() else [text_root]
        for f in files:
            if f.is_file():
                live.update(_WORD.findall(f.read_text(encoding="utf-8")))

    expanded: set[str] = set()
    frontier = set(live)
    while frontier:
        name = frontier.pop()
        if name in expanded:
            continue
        expanded.add(name)
        found: set[str] = set(aliases.get(name, ()))
        for _, body in defs.get(name, ()):
            found |= _names(body)
        frontier |= found - expanded
    return sorted(qualified for name, held in defs.items()
                  if name not in expanded for qualified, _ in held)


def test_every_top_level_definition_has_a_non_test_caller():
    """Methods of top-level classes included (see the module docstring)."""
    dead = [name for name in unreachable() if name not in KEPT]
    assert not dead, (
        "only tests reach these src/ definitions; delete them with their "
        f"tests or add each to KEPT with a reason: {dead}")


def test_kept_entries_are_still_unreachable_and_present():
    stale = sorted(set(KEPT) - set(unreachable()))
    assert not stale, f"KEPT names a live or deleted definition: {stale}"
