"""Architecture rules: registry wiring, frozen specs, output edges.

The ROADMAP north star is everything-through-the-registries: policy
objects (backends, executors) are named by strings and built
by :mod:`repro.api.registry` factories, specs are immutable value
objects, and user-facing output happens at the CLI edge only.  These
rules make those conventions machine-checked instead of review-time
folklore.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.lint.astutil import call_name
from repro.devtools.lint.config import LintConfig, path_matches
from repro.devtools.lint.context import FileContext, ProjectContext
from repro.devtools.lint.findings import Finding, TextFix
from repro.devtools.lint.registry import Rule, register_rule


@register_rule
class RegistryOnlyRule(Rule):
    """RL020: policy classes are constructed via the registries."""

    id = "RL020"
    name = "registry-only"
    description = (
        "backends/executors must be built through "
        "repro.api.registry factories (or a factory in their defining "
        "module), never constructed ad hoc at call sites"
    )

    def check_file(self, ctx: FileContext, config: LintConfig,
                   project: ProjectContext) -> Iterable[Finding]:
        if ctx.path.startswith("tests/") or "/tests/" in ctx.path:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None or name not in config.registry_only:
                continue
            allowed = config.registry_only[name] + config.registry_modules
            if path_matches(ctx.path, allowed):
                continue
            yield Finding(
                path=ctx.path, line=node.lineno, col=node.col_offset,
                rule=self.id, symbol=ctx.symbol_at(node.lineno),
                message=(
                    f"direct construction of {name}(...): resolve it "
                    f"through repro.api.registry so named "
                    f"configuration and third-party plugins keep "
                    f"working"
                ),
            )


@register_rule
class FrozenSpecRule(Rule):
    """RL021: every ``*Spec`` dataclass is immutable."""

    id = "RL021"
    name = "frozen-spec"
    description = (
        "*Spec dataclasses are declarative value objects embedded in "
        "checkpoints and serialized specs; they must be "
        "@dataclass(frozen=True)"
    )

    def check_file(self, ctx: FileContext, config: LintConfig,
                   project: ProjectContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef) \
                    or not node.name.endswith("Spec"):
                continue
            for decorator in node.decorator_list:
                finding = self._check_decorator(decorator, node, ctx)
                if finding is not None:
                    yield finding

    def _check_decorator(self, decorator: ast.expr, node: ast.ClassDef,
                         ctx: FileContext) -> Finding | None:
        is_bare = isinstance(decorator, ast.Name) \
            and decorator.id == "dataclass"
        is_call = isinstance(decorator, ast.Call) \
            and call_name(decorator) == "dataclass"
        if not is_bare and not is_call:
            return None
        fix = None
        if is_bare:
            fix = TextFix(decorator.lineno, "@dataclass",
                          "@dataclass(frozen=True)")
        else:
            assert isinstance(decorator, ast.Call)
            frozen = None
            for keyword in decorator.keywords:
                if keyword.arg == "frozen":
                    frozen = keyword
            if frozen is not None:
                if isinstance(frozen.value, ast.Constant) \
                        and frozen.value.value is True:
                    return None
                fix = TextFix(decorator.lineno, "frozen=False",
                              "frozen=True")
            else:
                fix = TextFix(decorator.lineno, "@dataclass(",
                              "@dataclass(frozen=True, ")
        return Finding(
            path=ctx.path, line=node.lineno, col=node.col_offset,
            rule=self.id, symbol=node.name,
            message=(
                f"spec dataclass {node.name} is not frozen: specs are "
                f"value objects (checkpointed, hashed, shared across "
                f"threads) and must be @dataclass(frozen=True)"
            ),
            fix=fix,
        )


@register_rule
class NoPrintRule(Rule):
    """RL022: user-facing output only at the CLI/report edge."""

    id = "RL022"
    name = "no-print"
    description = (
        "library modules may not print(); route output through the "
        "CLI or reporting layer (or a logger) so services and tests "
        "stay silent"
    )

    def check_file(self, ctx: FileContext, config: LintConfig,
                   project: ProjectContext) -> Iterable[Finding]:
        if path_matches(ctx.path, config.print_allowed):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id == "print":
                yield Finding(
                    path=ctx.path, line=node.lineno,
                    col=node.col_offset, rule=self.id,
                    symbol=ctx.symbol_at(node.lineno),
                    message="print() in library code",
                )
