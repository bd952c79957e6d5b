"""Lock-discipline rules: guarded-by, blocking-under-lock, lock order.

These encode the concurrency contracts the service tests pin down
dynamically -- here they become structural: a field annotated
``# guarded-by: <lock>`` may only be touched under ``with
self.<lock>``, nothing that can block the world may run while any
lock is held, and the static lock-acquisition graph must stay acyclic.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.devtools.lint.astutil import (
    ImportMap,
    class_methods,
    lock_attributes,
    self_attr,
    walk_with_locks,
)
from repro.devtools.lint.config import LintConfig
from repro.devtools.lint.context import FileContext, ProjectContext
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import Rule, register_rule


def _guarded_fields(classdef: ast.ClassDef,
                    ctx: FileContext) -> dict[str, str]:
    """``{attr: lock}`` for every ``# guarded-by:`` annotated field."""
    guarded: dict[str, str] = {}
    for node in ast.walk(classdef):
        targets: list[ast.expr]
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        lock = ctx.guarded_comment(node.lineno)
        if lock is None:
            continue
        for target in targets:
            attr = self_attr(target)
            if attr is not None:
                guarded[attr] = lock
    return guarded


@register_rule
class GuardedByRule(Rule):
    """RL001: annotated fields only under their lock."""

    id = "RL001"
    name = "guarded-by"
    description = (
        "an attribute annotated '# guarded-by: <lock>' may only be "
        "read or written inside 'with self.<lock>:' (construction in "
        "__init__ is exempt)"
    )

    def check_file(self, ctx: FileContext, config: LintConfig,
                   project: ProjectContext) -> Iterable[Finding]:
        for classdef in ast.walk(ctx.tree):
            if not isinstance(classdef, ast.ClassDef):
                continue
            guarded = _guarded_fields(classdef, ctx)
            if not guarded:
                continue
            locks = set(guarded.values())
            for method in class_methods(classdef):
                if method.name == "__init__":
                    continue
                for node, held in walk_with_locks(method, locks):
                    if not isinstance(node, ast.Attribute):
                        continue
                    attr = self_attr(node)
                    if attr is None or attr not in guarded:
                        continue
                    lock = guarded[attr]
                    if lock in held:
                        continue
                    yield Finding(
                        path=ctx.path, line=node.lineno,
                        col=node.col_offset, rule=self.id,
                        symbol=ctx.symbol_at(node.lineno),
                        message=(
                            f"'self.{attr}' is guarded by "
                            f"'self.{lock}' but is touched without "
                            f"holding it"
                        ),
                    )


@register_rule
class NoBlockingUnderLockRule(Rule):
    """RL002: nothing that can stall runs while a lock is held."""

    id = "RL002"
    name = "no-blocking-under-lock"
    description = (
        "sleeping, socket construction, subprocesses or HTTP calls "
        "while holding a lock stalls every thread queued on it"
    )

    def check_file(self, ctx: FileContext, config: LintConfig,
                   project: ProjectContext) -> Iterable[Finding]:
        imports = ImportMap(ctx.tree)
        banned = frozenset(config.blocking_calls)
        for classdef in ast.walk(ctx.tree):
            if not isinstance(classdef, ast.ClassDef):
                continue
            locks = lock_attributes(classdef, imports)
            if not locks:
                continue
            for method in class_methods(classdef):
                for node, held in walk_with_locks(method, locks):
                    if not held or not isinstance(node, ast.Call):
                        continue
                    resolved = imports.resolve(node.func)
                    if resolved not in banned:
                        continue
                    yield Finding(
                        path=ctx.path, line=node.lineno,
                        col=node.col_offset, rule=self.id,
                        symbol=ctx.symbol_at(node.lineno),
                        message=(
                            f"'{resolved}' called while holding "
                            f"'self.{held[-1]}'"
                        ),
                    )


def _method_lock_summary(
    classdef: ast.ClassDef, locks: set[str]
) -> tuple[dict[str, set[str]], list[tuple[str, str, int]],
           list[tuple[str, str, int]]]:
    """Per-class lock facts for the order analysis.

    Returns ``(direct_acquires_per_method, lexical_edges,
    held_calls)`` where lexical edges are ``(held, acquired, line)``
    and held calls are ``(held, called_method, line)``.
    """
    direct: dict[str, set[str]] = {}
    edges: list[tuple[str, str, int]] = []
    held_calls: list[tuple[str, str, int]] = []
    for method in class_methods(classdef):
        acquired_here: set[str] = set()
        for node, held in walk_with_locks(method, locks):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    attr = self_attr(item.context_expr)
                    if attr is None or attr not in locks:
                        continue
                    acquired_here.add(attr)
                    for held_lock in held:
                        if held_lock != attr:
                            edges.append((held_lock, attr, node.lineno))
            elif isinstance(node, ast.Call) and held:
                callee = self_attr(node.func)
                if callee is not None:
                    held_calls.append((held[-1], callee, node.lineno))
        direct[method.name] = acquired_here
    return direct, edges, held_calls


@register_rule
class LockOrderRule(Rule):
    """RL003: the static lock-acquisition graph has no cycles."""

    id = "RL003"
    name = "lock-order"
    description = (
        "taking lock B while holding lock A orders A before B; a "
        "cycle in that order across the codebase is a latent deadlock"
    )

    def check_file(self, ctx: FileContext, config: LintConfig,
                   project: ProjectContext) -> Iterable[Finding]:
        imports = ImportMap(ctx.tree)
        for classdef in ast.walk(ctx.tree):
            if not isinstance(classdef, ast.ClassDef):
                continue
            locks = lock_attributes(classdef, imports)
            if not locks:
                continue
            direct, edges, held_calls = _method_lock_summary(
                classdef, locks)
            # One-level-plus fixpoint: a method may acquire whatever
            # the same-class methods it calls acquire.
            calls: dict[str, set[str]] = {name: set() for name in direct}
            for method in class_methods(classdef):
                for node in ast.walk(method):
                    if isinstance(node, ast.Call):
                        callee = self_attr(node.func)
                        if callee in direct:
                            calls[method.name].add(callee)
            may_acquire = {name: set(found) for name, found in direct.items()}
            changed = True
            while changed:
                changed = False
                for name, callees in calls.items():
                    for callee in callees:
                        missing = may_acquire[callee] - may_acquire[name]
                        if missing:
                            may_acquire[name].update(missing)
                            changed = True
            qualify = f"{ctx.path}::{classdef.name}"
            for held, acquired, line in edges:
                project.add_lock_edge(
                    f"{qualify}.{held}", f"{qualify}.{acquired}",
                    ctx.path, line)
            for held, callee, line in held_calls:
                for acquired in may_acquire.get(callee, ()):
                    if acquired != held:
                        project.add_lock_edge(
                            f"{qualify}.{held}", f"{qualify}.{acquired}",
                            ctx.path, line)
        return ()

    def finalize(self, project: ProjectContext,
                 config: LintConfig) -> Iterable[Finding]:
        edges = dict(project.lock_edges)
        graph: dict[str, set[str]] = {}
        for held, acquired in edges:
            graph.setdefault(held, set()).add(acquired)
            graph.setdefault(acquired, set())
        seen_cycles: set[frozenset[str]] = set()
        for cycle in _cycles(graph):
            key = frozenset(cycle)
            if key in seen_cycles:
                continue
            seen_cycles.add(key)
            first_edge = (cycle[0], cycle[1 % len(cycle)])
            path, line = edges.get(first_edge, ("", 0))
            pretty = " -> ".join(
                node.split("::", 1)[-1] for node in cycle + [cycle[0]])
            yield Finding(
                path=path or cycle[0].split("::", 1)[0],
                line=line or 1, col=0, rule=self.id,
                symbol="",
                message=f"lock-order cycle: {pretty}",
            )


def _cycles(graph: dict[str, set[str]]) -> Iterator[list[str]]:
    """Elementary cycles via DFS back-edge detection (small graphs)."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}
    stack: list[str] = []

    def visit(node: str) -> Iterator[list[str]]:
        color[node] = GREY
        stack.append(node)
        for neighbor in sorted(graph[node]):
            if color[neighbor] == GREY:
                start = stack.index(neighbor)
                yield stack[start:]
            elif color[neighbor] == WHITE:
                yield from visit(neighbor)
        stack.pop()
        color[node] = BLACK

    for node in sorted(graph):
        if color[node] == WHITE:
            yield from visit(node)
