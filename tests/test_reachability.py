"""Dead-code gate: every top-level definition in ``src/`` has a caller
outside the test suite.

The pass is name based and over-approximating. Its roots are the
module-level code of every ``src/`` module (imports, ``__all__`` and
docstrings excluded), whole ``__main__`` modules, everything under
``benchmarks/`` and ``examples/``, the CI workflow and pyproject's
console scripts. A definition becomes live when its name is used in live
code, and its body's names then become live in turn. Any identifier
counts, including words inside string literals, so the pass can miss
dead code but never flags live code.

A definition that only tests reach fails the gate unless ``KEPT`` names
it with a reason: delete it together with its tests instead.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: Top-level definitions kept although only tests reach them, each with
#: the reason it stays.  Keys are ``module:name``.
KEPT = {
    **dict.fromkeys(
        ("repro.schedulers.s3.autotune:SegmentCostModel",
         "repro.schedulers.s3.autotune:paper_ideal_within",
         "repro.schedulers.s3.autotune:recommend_blocks_per_segment"),
        "segment-length model; a static-segment sweep decides its fate"),
    **dict.fromkeys(
        ("repro.metrics.validate:ValidationReport",
         "repro.metrics.validate:validate_trace"),
        "trace validator: the oracle of the pinned simulator-trace test"),
    **dict.fromkeys(
        ("repro.analysis.lockgraph:held_tracking_enabled",
         "repro.analysis.lockgraph:lock_order_graph",
         "repro.analysis.lockgraph:lockcheck_enabled",
         "repro.analysis.lockgraph:reset_lock_graph",
         "repro.analysis.lockgraph:set_lockcheck",
         "repro.analysis.racecheck:racecheck_enabled",
         "repro.analysis.racecheck:reset_racecheck_state",
         "repro.analysis.racecheck:set_racecheck"),
        "lock-order and race-check switches: safety tooling the suite drives"),
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

Node = ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef


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


def _is_all(stmt: ast.stmt) -> bool:
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, (ast.AugAssign, ast.AnnAssign))
               else [])
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def unreachable() -> list[str]:
    """``module:name`` of each top-level ``src/`` definition no root reaches."""
    defs: dict[str, list[Node]] = {}
    where: dict[int, str] = {}
    aliases: dict[str, set[str]] = {}
    roots: list[ast.AST] = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "__main__.py":
            roots.append(tree)
            continue
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(stmt.name, []).append(stmt)
                where[id(stmt)] = f"{_module_name(path)}:{stmt.name}"
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
        for node in defs.get(name, ()):
            found |= _names([node])
        frontier |= found - expanded
    return sorted(where[id(node)] for name, nodes in defs.items()
                  if name not in expanded for node in nodes)


def test_every_top_level_definition_has_a_non_test_caller():
    dead = [name for name in unreachable() if name not in KEPT]
    assert not dead, (
        "only tests reach these src/ definitions; delete them with their "
        f"tests or add each to KEPT with a reason: {dead}")


def test_kept_entries_are_still_unreachable_and_present():
    stale = sorted(set(KEPT) - set(unreachable()))
    assert not stale, f"KEPT names a live or deleted definition: {stale}"
