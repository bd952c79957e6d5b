"""Determinism rules for the analysis core.

The repo's headline property is bit-identical windows across the
serial and process executors and across crash/resume.  Every
wall-clock read, unseeded RNG draw, or set-iteration order leak in
the analysis path silently spends that guarantee.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.lint.astutil import ImportMap
from repro.devtools.lint.config import LintConfig, path_matches
from repro.devtools.lint.context import FileContext, ProjectContext
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import Rule, register_rule

#: Wall-clock reads that leak run time into analysis results.
WALL_CLOCK = frozenset({
    "time.time", "time.time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today",
})

#: ``random``-module members that take an explicit seed and are fine.
SEEDED_RANDOM = frozenset({"random.Random"})

#: Set-typed methods whose result is an unordered set.
SET_COMBINATORS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
})


@register_rule
class DeterminismRule(Rule):
    """RL010: no nondeterminism sources in the analysis path."""

    id = "RL010"
    name = "determinism"
    description = (
        "the analysis path may not read the wall clock, draw from an "
        "unseeded RNG, or iterate a set directly (order feeds results)"
    )

    def check_file(self, ctx: FileContext, config: LintConfig,
                   project: ProjectContext) -> Iterable[Finding]:
        if not path_matches(ctx.path, config.analysis_paths):
            return
        imports = ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(node, ctx, imports, config)
            elif isinstance(node, ast.For):
                yield from self._check_iteration(node.iter, ctx, imports)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    yield from self._check_iteration(
                        generator.iter, ctx, imports)

    def _check_call(self, node: ast.Call, ctx: FileContext,
                    imports: ImportMap,
                    config: LintConfig) -> Iterable[Finding]:
        resolved = imports.resolve(node.func)
        if resolved is None:
            return
        message = None
        if resolved in WALL_CLOCK:
            message = (
                f"'{resolved}()' reads the wall clock in the analysis "
                f"path; results must be a pure function of the input "
                f"stream (use data time, or suppress for telemetry)"
            )
        elif resolved.startswith("random.") \
                and resolved not in SEEDED_RANDOM:
            message = (
                f"'{resolved}()' draws from the process-global RNG; "
                f"use a seeded random.Random(seed) instance"
            )
        elif resolved.startswith("numpy.random."):
            member = resolved.split(".", 2)[2].split(".")[0]
            if member not in config.seeded_numpy_random:
                message = (
                    f"'{resolved}()' uses numpy's default global RNG; "
                    f"use numpy.random.default_rng(seed) / "
                    f"RandomState(seed)"
                )
        if message is not None:
            yield Finding(
                path=ctx.path, line=node.lineno, col=node.col_offset,
                rule=self.id, symbol=ctx.symbol_at(node.lineno),
                message=message,
            )

    def _check_iteration(self, iter_node: ast.expr, ctx: FileContext,
                         imports: ImportMap) -> Iterable[Finding]:
        what = None
        if isinstance(iter_node, (ast.Set, ast.SetComp)):
            what = "a set literal"
        elif isinstance(iter_node, ast.Call):
            func = iter_node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                what = f"'{func.id}(...)'"
            elif isinstance(func, ast.Attribute) \
                    and func.attr in SET_COMBINATORS:
                what = f"a '.{func.attr}()' result"
        elif isinstance(iter_node, ast.BinOp) \
                and isinstance(iter_node.op, (ast.BitOr, ast.BitAnd,
                                              ast.Sub, ast.BitXor)):
            # `a | b` over sets is common; only flag when one side is
            # literally a set expression (no type inference).
            operands = (iter_node.left, iter_node.right)
            if any(isinstance(op, (ast.Set, ast.SetComp)) or
                   (isinstance(op, ast.Call)
                    and isinstance(op.func, ast.Name)
                    and op.func.id in ("set", "frozenset"))
                   for op in operands):
                what = "a set expression"
        if what is not None:
            yield Finding(
                path=ctx.path, line=iter_node.lineno,
                col=iter_node.col_offset, rule=self.id,
                symbol=ctx.symbol_at(iter_node.lineno),
                message=(
                    f"iterating {what} feeds unordered elements into "
                    f"downstream order; wrap it in sorted(...)"
                ),
            )

