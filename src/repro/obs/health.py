"""Liveness surface: named health probes aggregated into one verdict.

``/healthz`` must answer a different question than ``/metrics``: not
"what are the numbers" but "should an operator (or an orchestrator's
restart policy) worry".  A :class:`HealthModel` holds named probe
callables, each returning ``(ok, detail)``; the aggregate is healthy
iff every probe passes.  Probes are evaluated at *request* time -- the
model holds no cached state, so a recovered bus immediately reads
healthy again.

The engine wiring (:mod:`repro.api.session`) registers two standard
probes:

* ``bus`` -- the ingestion bus is not shedding load (overflow drops
  since the last probe mean producers outrun the analysis);
* ``checkpoint`` -- the newest checkpoint is not older than a
  configured number of analyzed windows (durability lag).

A probe that *raises* counts as failing with the exception as detail:
a health surface that crashes on the condition it should report is
worse than none.
"""

from __future__ import annotations

import threading
from typing import Callable

#: A probe returns (ok, human-readable detail).
Probe = Callable[[], tuple[bool, str]]


class HealthModel:
    """Named liveness probes with an all-must-pass aggregate."""

    def __init__(self) -> None:
        self._probes: dict[str, Probe] = {}  # guarded-by: _lock
        self._lock = threading.Lock()

    def add_probe(self, name: str, probe: Probe) -> None:
        """Register (or replace) one named probe."""
        with self._lock:
            self._probes[name] = probe

    def remove_probe(self, name: str) -> None:
        with self._lock:
            self._probes.pop(name, None)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._probes)

    def check(self) -> tuple[bool, dict[str, dict]]:
        """Evaluate every probe now.

        Returns ``(healthy, {name: {"ok": bool, "detail": str}})``;
        healthy with zero probes (nothing claims to be monitorable).
        """
        with self._lock:
            probes = dict(self._probes)
        report: dict[str, dict] = {}
        healthy = True
        for name in sorted(probes):
            try:
                ok, detail = probes[name]()
            except Exception as exc:  # noqa: BLE001 - see module doc
                ok, detail = False, f"probe raised: {exc!r}"
            report[name] = {"ok": bool(ok), "detail": str(detail)}
            healthy = healthy and bool(ok)
        return healthy, report

    def as_dict(self) -> dict:
        healthy, report = self.check()
        return {"healthy": healthy, "probes": report}


def bus_probe(bus) -> Probe:
    """Standard probe over the ingestion bus: are we shedding load?

    Overflow *since the previous evaluation* fails the probe, so a
    transient spike reads unhealthy while it sheds and recovers on the
    next quiet scrape -- matching how an operator reasons about
    backpressure.
    """
    seen = {"dropped": 0, "downsampled": 0}

    def probe() -> tuple[bool, str]:
        stats = bus.stats
        dropped = stats.overflow_dropped - seen["dropped"]
        downsampled = stats.overflow_downsampled - seen["downsampled"]
        seen["dropped"] = stats.overflow_dropped
        seen["downsampled"] = stats.overflow_downsampled
        if dropped or downsampled:
            return False, (f"bus shedding load: {dropped} dropped, "
                           f"{downsampled} downsampled since last check")
        return True, (f"pending {bus.pending_points} points, "
                      f"{stats.overflow_dropped} dropped lifetime")

    return probe


def checkpoint_probe(policy, max_lag_windows: int | None = None) -> Probe:
    """Standard probe over a checkpoint policy: durability lag.

    Fails when more than ``max_lag_windows`` windows were analyzed
    since the last checkpoint landed (default: twice the policy's
    ``every``, i.e. one missed checkpoint is tolerated, two are not).
    """

    def probe() -> tuple[bool, str]:
        lag = policy.windows_since_checkpoint
        limit = max_lag_windows
        if limit is None:
            limit = 2 * policy.every if policy.every else None
        if limit is not None and lag > limit:
            return False, (f"checkpoint lag {lag} windows "
                           f"(limit {limit})")
        return True, (f"{policy.checkpoints_written} checkpoints, "
                      f"lag {lag} windows")

    return probe
