"""Repo-invariant policy the rules consult.

The *mechanism* (AST walking, suppression, baselines) lives in the
engine and rules; the *policy* -- which paths form the deterministic
analysis core, which classes must be built through the registries,
which modules are allowed wall-clock or ``print`` -- is data, all of
it here, so adding a backend or widening the analysis path is a
one-line config change rather than a rule edit.

Paths are repo-relative posix patterns matched with
:func:`fnmatch.fnmatch` against the path *suffix*, so configs work
whether the linter is pointed at ``src/repro`` or at a checkout root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch


def path_matches(path: str, patterns: tuple[str, ...]) -> bool:
    """True when ``path`` ends with any of the ``patterns``."""
    normalized = path.replace("\\", "/")
    for pattern in patterns:
        if fnmatch(normalized, pattern) or fnmatch(normalized, f"*/{pattern}"):
            return True
    return False


@dataclass(frozen=True)
class LintConfig:
    """Every path- and name-policy the built-in rules consult."""

    # -- RL010: the deterministic analysis core --------------------------
    analysis_paths: tuple[str, ...] = (
        "streaming/analyzer.py",
        "streaming/engine.py",
        "streaming/window.py",
        "streaming/drift.py",
        "clustering/*.py",
        "stats/*.py",
        "rca/*.py",
        "causality/*.py",
    )
    """Modules whose outputs must be bit-identical run-to-run: no
    wall-clock, no unseeded RNG, no set-iteration feeding order."""

    #: ``numpy.random`` members that carry an explicit seed and are
    #: therefore fine in the analysis path.
    seeded_numpy_random: tuple[str, ...] = (
        "default_rng", "Generator", "RandomState", "SeedSequence",
        "PCG64", "Philox",
    )

    # -- RL020: everything-through-the-registries ------------------------
    registry_only: dict[str, tuple[str, ...]] = field(default_factory=lambda: {
        # class name -> extra modules allowed to construct it (the
        # defining module and api/registry.py are always allowed).
        "MemoryBackend": ("persistence/backend.py",),
        "SqliteBackend": ("persistence/sqlite_backend.py",),
        "ShardExecutor": ("parallel/executor.py",),
        "ProcessShardExecutor": ("parallel/executor.py",),
    })
    """Classes that must be built via :mod:`repro.api.registry` (or a
    factory next to their definition), never constructed ad hoc."""

    registry_modules: tuple[str, ...] = (
        "api/registry.py",
    )
    """Modules that may construct anything: the registries themselves."""

    # -- RL022: user-facing output stays at the edge ---------------------
    print_allowed: tuple[str, ...] = (
        "cli.py",
        "reporting.py",
        "devtools/*",
        "devtools/*/*",
        "devtools/*/*/*",
    )
    """Modules allowed to ``print``: the CLI/report edge and the lint
    tool's own output layer."""

    # -- RL002: calls that block while a lock is held --------------------
    blocking_calls: tuple[str, ...] = (
        "time.sleep",
        "socket.socket",
        "socket.create_connection",
        "subprocess.run",
        "subprocess.Popen",
        "subprocess.check_call",
        "subprocess.check_output",
        "urllib.request.urlopen",
        "requests.get",
        "requests.post",
        "requests.request",
    )
    """Dotted call names that may stall every thread queued on the
    same lock (the deny-list is exact dotted matches, so ``", ".join``
    or ``os.path.join`` can never false-positive)."""


DEFAULT_CONFIG = LintConfig()
