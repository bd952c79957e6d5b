"""The socket run: a real ``repro serve`` child driven over one
keep-alive connection, and the in-process reference it is checked
against.

Load model: the generator (this process) is pinned to the first
allowed CPU and the server child to the last, BLAS threads are 1, and
the one sender waits for every ack before it sends the next ``seq``
-- a closed loop with one client.  Work per run is fixed in requests.
"""

from __future__ import annotations

import http.client
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from collections import Counter
from math import comb
from pathlib import Path
from typing import Any

import numpy as np

import workloads as wl
from workloads import Scale, Workload

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
OUT = HERE / "out"

#: ``GET`` routes the read traffic cycles over.
READ_ROUTES = ("/api/windows", "/api/clusters", "/api/drift",
               "/api/events?since=0", "/metrics")

#: durable_mixed: a read after every timed request, and a replayed
#: seq and a torn payload after every 15th.  A hop is 15 requests, so
#: every hop carries three cycles of the read routes, one duplicate
#: and one torn payload: hops stay equal work.
READ_EVERY, DUPLICATE_EVERY, TORN_EVERY = 1, 15, 15

SPIN_ITERATIONS = 6_000_000


# -- machine ----------------------------------------------------------


#: The two ends of the CPU set this process was started with (the same
#: CPU when only one is allowed).  Read once, before anything is pinned:
#: the generator narrows its own affinity later.
_ALLOWED_CPUS = sorted(os.sched_getaffinity(0))
GENERATOR_CPU, SERVER_CPU = _ALLOWED_CPUS[0], _ALLOWED_CPUS[-1]


def spin() -> float:
    """Milliseconds a fixed pure-Python loop takes: the noise probe
    timed before and after every run."""
    started = time.perf_counter()
    x = 0
    for i in range(SPIN_ITERATIONS):
        x += i & 3
    return (time.perf_counter() - started) * 1e3


def fingerprint(seed: int) -> dict:
    """What the numbers were measured on."""
    import scipy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    try:
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, text=True,
            capture_output=True, timeout=10, check=False)
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "workload_version": wl.WORKLOAD_VERSION,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        # Set to 1 by run.py before numpy loads; children inherit it.
        "blas_env": {name: value for name, value in os.environ.items()
                     if name.endswith("_NUM_THREADS")},
        "generator_cpu": GENERATOR_CPU,
        "server_cpu": SERVER_CPU,
        "git_commit": commit,
        "seed": seed,
    }


# -- the server child -------------------------------------------------


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Server:
    """One ``python -m repro serve --spec <generated spec>`` child."""

    def __init__(self, workload: Workload, workdir: Path,
                 resume: bool = False) -> None:
        from repro.api import save_spec

        self.port = _free_port()
        spec_path = workdir / "spec.json"
        save_spec(wl.builder(workload, str(workdir), self.port).spec(),
                  spec_path)
        command = [sys.executable, "-m", "repro", "serve",
                   "--spec", str(spec_path)]
        if resume:
            command.append("--resume")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        self._log = open(workdir / "server.log", "ab")
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            command, env=env, cwd=workdir, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT)
        os.sched_setaffinity(self.process.pid, {SERVER_CPU})

    @property
    def pid(self) -> int:
        return self.process.pid

    def connect(self, path: str = "/healthz", contains: str = "",
                timeout: float = 60.0) -> "Client":
        """Poll until ``GET path`` answers 200 (with ``contains`` in
        the body); returns the connected client."""
        deadline = time.perf_counter() + timeout
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode}; "
                    f"see {self._log.name}")
            client = Client(self.port)
            try:
                status, body, _ = client.call("GET", path)
                if status == 200 and contains.encode() in body:
                    return client
            except OSError:
                pass
            client.close()
            if time.perf_counter() > deadline:
                raise TimeoutError(f"server not ready on {path}")
            time.sleep(0.005)

    def cpu_seconds(self) -> float:
        """user+system CPU of the child so far, from its process CPU
        clock (nanoseconds; /proc/<pid>/stat only has 10 ms ticks)."""
        return time.clock_gettime(((~self.pid) << 3) | 2)

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.pid}/status").read_text() \
                .splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def kill(self) -> None:
        """SIGKILL and reap (idempotent)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self.process.wait()
        self._log.close()


class Client:
    """One keep-alive connection to the server."""

    def __init__(self, port: int, host: str = "127.0.0.1") -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=120)

    def call(self, method: str, path: str, body: bytes | None = None,
             headers: dict | None = None) -> tuple[int, bytes, float]:
        """``(status, body, round-trip seconds)``."""
        started = time.perf_counter()
        self.conn.request(method, path, body=body,
                          headers=headers or {})
        response = self.conn.getresponse()
        data = response.read()
        return response.status, data, time.perf_counter() - started

    def close(self) -> None:
        self.conn.close()


# -- the traffic ------------------------------------------------------


class Driver:
    """Sends the workload's operations, checks every answer against
    the expected one and keeps the client-side samples.  With a
    ``recorder`` every operation is the root span of one trace."""

    def __init__(self, workload: Workload, bodies: list[bytes],
                 client: Client, recorder: Any = None) -> None:
        self.workload = workload
        self.bodies = bodies
        self.client = client
        self.recorder = recorder
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.accepted = 0
        self.sent_points = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.ack_ms: list[float] = []
        self.insight_ms: list[float] = []
        self.query_ms: list[float] = []
        self.windows: dict[int, dict] = {}
        """window index -> ``/api/windows`` summary, as first seen."""
        self._reads = 0

    def _call(self, name: str, method: str, path: str,
              body: bytes | None = None,
              headers: dict | None = None) -> tuple[int, bytes, float]:
        self.attempted += 1
        if body is not None:
            self.bytes_in += len(body)
        if self.recorder is None:
            result = self.client.call(method, path, body, headers)
        else:
            with self.recorder.request(name, len(body or b"")):
                result = self.client.call(method, path, body, headers)
        self.bytes_out += len(result[1])
        return result

    def _expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)

    def _post(self, name: str, index: int,
              body: bytes | None = None) -> tuple[int, dict, float]:
        status, data, elapsed = self._call(
            name, "POST", "/ingest",
            self.bodies[index] if body is None else body,
            wl.request_headers(self.workload, index))
        try:
            payload = json.loads(data)
        except ValueError:
            payload = {}
        return status, payload, elapsed

    def ingest(self, index: int) -> None:
        """A fresh request: every point must be accepted.  When it
        triggers a window, poll until the query API shows it."""
        sent = time.perf_counter()
        status, payload, elapsed = self._post("ingest", index)
        self.sent_points += wl.POINTS_PER_REQUEST
        accepted = payload.get("accepted", 0)
        self.accepted += accepted if status == 200 else 0
        self._expect(
            status == 200 and payload.get("status") == "ok"
            and accepted == wl.POINTS_PER_REQUEST
            and payload.get("rejected") == 0
            and payload.get("clipped") == 0,
            f"ingest {index}: {status} {payload}")
        window = payload.get("analyzed_window")
        if window is None:
            self.ack_ms.append(elapsed * 1e3)
            return
        for _ in range(50):
            self.poll_windows()
            if window in self.windows:
                break
        self._expect(window in self.windows,
                     f"window {window} never showed in /api/windows")
        self.insight_ms.append((time.perf_counter() - sent) * 1e3)

    def poll_windows(self) -> None:
        status, data, _ = self._call("query", "GET", "/api/windows")
        self._expect(status == 200, f"/api/windows: {status}")
        if status == 200:
            for summary in json.loads(data)["windows"]:
                self.windows.setdefault(summary["window"], summary)

    def read(self, path: str | None = None) -> bytes:
        """One query; ``None`` takes the next route of the cycle."""
        if path is None:
            path = READ_ROUTES[self._reads % len(READ_ROUTES)]
            self._reads += 1
        status, data, elapsed = self._call("query", "GET", path)
        self.query_ms.append(elapsed * 1e3)
        ok = status == 200
        if ok and path != "/metrics":
            try:
                json.loads(data)
            except ValueError:
                ok = False
        elif ok:
            ok = b"repro_" in data
        self._expect(ok, f"GET {path}: {status}")
        return data

    def duplicate(self, index: int) -> None:
        """A replayed ``seq``: acknowledged, nothing published."""
        status, payload, _ = self._post("duplicate", index)
        self._expect(
            status == 200 and payload.get("status") == "duplicate"
            and payload.get("accepted") == 0,
            f"duplicate {index}: {status} {payload}")

    def torn(self, index: int) -> None:
        """Half a payload: a 400 and zero perturbation."""
        body = self.bodies[index]
        status, payload, _ = self._post("torn", index,
                                        body[:len(body) // 2])
        self._expect(status == 400,
                     f"torn {index}: {status} {payload}")

    def resend(self, index: int) -> None:
        """After a resume the sender replays its last request (the
        ack may have died with the server): all of it is already
        journaled, so all of it must be clipped, none accepted."""
        status, payload, _ = self._post("resend", index)
        self._expect(
            status == 200 and payload.get("accepted") == 0
            and payload.get("clipped") == wl.POINTS_PER_REQUEST,
            f"resend {index}: {status} {payload}")

    def timed(self, position: int, index: int) -> None:
        """Timed request number ``position`` (1-based) and, on
        durable_mixed, whatever the mix puts behind it."""
        self.ingest(index)
        if not self.workload.durable:
            return
        if position % READ_EVERY == 0:
            self.read()
        if position % DUPLICATE_EVERY == 0:
            self.duplicate(index)
        if position % TORN_EVERY == 0:
            self.torn(index)


def generate(workload: Workload, seed: int, requests: int,
             ) -> tuple[np.ndarray, list[bytes], float]:
    """``(values, bodies, build seconds)`` for one run."""
    started = time.perf_counter()
    values = wl.make_series(seed, requests * wl.SCRAPES_PER_REQUEST)
    bodies = wl.build_bodies(workload, values, requests)
    return values, bodies, time.perf_counter() - started


def fresh_workdir(name: str) -> Path:
    workdir = OUT / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir


def disk_mb(workdir: Path) -> float:
    """Journal segments + checkpoint + store, not our spec or log."""
    total = sum(
        path.stat().st_size for path in workdir.iterdir()
        if path.name.startswith(("ingest.journal", "engine.ckpt",
                                 "store.db")))
    return total / 1e6


# -- the reference ----------------------------------------------------


def _plain(payload: Any) -> Any:
    """Through JSON and back, so tuples compare equal to lists."""
    return json.loads(json.dumps(payload, sort_keys=True))


def _untimed(summary: dict) -> dict:
    return {k: v for k, v in summary.items() if k != "analysis_ms"}


def adjusted_rand(first: list, second: list) -> float:
    """Adjusted Rand index of two labelings of the same items."""
    pairs = sum(comb(n, 2) for n in Counter(zip(first, second)).values())
    rows = sum(comb(n, 2) for n in Counter(first).values())
    cols = sum(comb(n, 2) for n in Counter(second).values())
    expected = rows * cols / comb(len(first), 2)
    ceiling = (rows + cols) / 2.0
    if ceiling == expected:
        return 1.0
    return (pairs - expected) / (ceiling - expected)


class Reference:
    """The uninterrupted in-process engine fed the same points."""

    def __init__(self, workload: Workload, values: np.ndarray,
                 requests: int) -> None:
        session = wl.builder(workload).build()
        try:
            engine = session.engine
            service = session.service
            names = wl.metric_names()
            keys = [(wl.component_name(c), names[m], c, m)
                    for c in range(wl.COMPONENTS)
                    for m in range(len(names))]
            self.clusters: dict[int, dict] = {}
            """window index -> the ``/api/clusters`` payload that was
            current once that window was published."""
            final = None
            chunk = workload.requests_per_hop
            for first in range(0, requests, chunk):
                # One publish per series and hop, not per request: the
                # rings then run ahead of the offers below by at most
                # a hop, which a window snapshot (bounded by its own
                # end, inside a retention of two windows) cannot see.
                last = min(first + chunk, requests)
                lo = first * wl.SCRAPES_PER_REQUEST
                hi = last * wl.SCRAPES_PER_REQUEST
                times = np.arange(lo, hi) * wl.SCRAPE_INTERVAL
                for component, metric, c, m in keys:
                    engine.bus.publish_points(component, metric, times,
                                              values[c, m, lo:hi])
                for index in range(first, last):
                    analysis = engine.offer(wl.request_watermark(index),
                                            service.call_graph)
                    if analysis is not None:
                        final = analysis
                        self.clusters[analysis.index] = _plain(
                            service.view.clusters())
            self.summaries = {
                s["window"]: _untimed(s)
                for s in _plain(service.view.windows()["windows"])}
            self.points = engine.windows.points_ingested
            truth = wl.planted_labels()
            scores = []
            for clustering in final.clusterings.values():
                found = clustering.labels()
                metrics = sorted(truth)
                scores.append(adjusted_rand(
                    [truth[m] for m in metrics],
                    [found.get(m, -1) for m in metrics]))
            self.cluster_ari = float(np.mean(scores))
            edges = final.dependency_graph.component_edge_set()
            planted = wl.planted_edges()
            hits = len(edges & planted)
            self.edge_f1 = 2.0 * hits / (len(edges) + len(planted))
        finally:
            session.close()

    def mismatches(self, seen: dict[int, dict]) -> list[int]:
        """Window indexes whose socket summary differs from ours."""
        return sorted(
            index for index, summary in seen.items()
            if _untimed(summary) != self.summaries.get(index))


def implied_windows(workload: Workload, requests: int) -> int:
    """Windows the data-time axis implies after ``requests``: the
    first once a full window exists, one per hop after."""
    last = wl.request_watermark(requests - 1)
    if last < workload.window:
        return 0
    return int((last - workload.window) // workload.hop) + 1


# -- one socket run ---------------------------------------------------


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def undisturbed(values: list[float], better: str = "lower",
                keep: int = 3) -> float:
    """Mean of the ``keep`` best of ``values``: what an equal-work
    unit (a hop, a cold start, a resume) reads when the host leaves
    it alone.  The shared host only ever *adds* time, for seconds at
    a stretch and sometimes for minutes, so most of a run's units say
    more about the host than about the program, but even a run inside
    a slow spell has a few hops at full speed.  Over six sets of ten
    runs the median over hops spread by 0.06-0.16 of itself from run
    to run, the better-side quartile by 0.04-0.16 and this by
    0.02-0.10 (nan when there are no values)."""
    if not values:
        return float("nan")
    ordered = sorted(values, reverse=better == "higher")
    return statistics.fmean(ordered[:keep])


def read_cycles(reads: list[float]) -> list[float]:
    """Mean round trip of each whole cycle of the read routes.  The
    routes differ 2.5x in cost, so the median of the pooled reads sits
    in the gap between the cheap and the dear ones and jumps with the
    noise; a cycle weighs every route the same every time."""
    size = len(READ_ROUTES)
    return [statistics.fmean(reads[first:first + size])
            for first in range(0, len(reads) - size + 1, size)]


def percentile(values: list[float], share: float) -> float:
    """The sample at ``share`` of the sorted values (nan when empty)."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def socket_run(workload: Workload, seed: int, scale: Scale) -> dict:
    """Every phase of one run; returns metrics, checks and counts."""
    os.sched_setaffinity(0, {GENERATOR_CPU})
    total = workload.total_requests(scale)
    values, bodies, build_s = generate(workload, seed, total)
    workdir = fresh_workdir(workload.name)
    server = None
    try:
        # Set-up: throwaway cold starts, then the one that serves.
        setups = []
        for start in range(scale.cold_starts):
            server = Server(workload, workdir)
            client = server.connect()
            setups.append(time.perf_counter() - server.spawned)
            if start < scale.cold_starts - 1:
                client.close()
                server.kill()
        driver = Driver(workload, bodies, client)

        warm = workload.warmup_requests
        for index in range(warm):
            driver.ingest(index)
        warm_windows = len(driver.windows)

        # The timed closed loop, one hop (one window) at a time.  On
        # durable_mixed the reads ride inside the hop; elsewhere a few
        # idle reads follow it, outside the hop's clock.
        per_hop = workload.requests_per_hop
        hops: dict[str, list[float]] = {
            "rate": [], "cpu_s": [], "ack_ms": [], "insight_ms": [],
            "query_ms": []}
        all_ack_ms: list[float] = []
        all_insight_ms: list[float] = []
        all_query_ms: list[float] = []
        loop_s = 0.0
        for hop in range(workload.timed_hops(scale)):
            driver.ack_ms.clear()
            driver.insight_ms.clear()
            driver.query_ms.clear()
            accepted_before = driver.accepted
            cpu_before = server.cpu_seconds()
            started = time.perf_counter()
            for k in range(per_hop):
                position = hop * per_hop + k + 1
                driver.timed(position, warm + position - 1)
            elapsed = time.perf_counter() - started
            loop_s += elapsed
            hops["rate"].append((driver.accepted - accepted_before)
                                / elapsed)
            hops["cpu_s"].append(server.cpu_seconds() - cpu_before)
            if not workload.durable:
                for _ in range(workload.idle_reads_per_hop(scale)):
                    driver.read()
            hops["ack_ms"].append(_median(driver.ack_ms))
            hops["insight_ms"].append(_median(driver.insight_ms))
            hops["query_ms"].append(_median(driver.query_ms))
            all_ack_ms += driver.ack_ms
            all_insight_ms += driver.insight_ms
            all_query_ms += driver.query_ms
        timed = len(hops["rate"]) * per_hop

        peak_rss = server.peak_rss_mb()
        disk = disk_mb(workdir)
        loaded = warm + timed
        metrics_text = driver.read("/metrics").decode()
        store_points = _metric_value(
            metrics_text, 'repro_store_total{event="points_ingested"}')
        before_kill = dict(driver.windows)
        clusters_before = json.loads(driver.read("/api/clusters"))

        # Kill/resume cycles, each followed by its share of the tail.
        resumes = []
        sent = loaded
        for tail in workload.tail_requests(scale):
            last_window = max(driver.windows)
            killed = time.perf_counter()
            server.kill()
            client.close()
            server = Server(workload, workdir, resume=True)
            client = server.connect(
                "/metrics", f"repro_last_window_epoch {last_window}\n")
            resumes.append(time.perf_counter() - killed)
            driver.client = client
            driver.resend(sent - 1)
            for index in range(sent, sent + tail):
                driver.ingest(index)
            sent += tail
        after_resume = {index: summary
                        for index, summary in driver.windows.items()
                        if index not in before_kill}
        clusters_after = json.loads(driver.read("/api/clusters"))
        client.close()
    finally:
        if server is not None:
            server.kill()
        shutil.rmtree(workdir, ignore_errors=True)

    reference = Reference(workload, values, total)
    checks = {
        "points_accepted_equal_sent":
            driver.accepted == driver.sent_points == reference.points
            and store_points == loaded * wl.POINTS_PER_REQUEST,
        "windows_as_time_axis_implies":
            warm_windows == 2
            and len(before_kill) == implied_windows(workload, loaded)
            and len(driver.windows) == implied_windows(workload, total)
            and set(driver.windows) == set(reference.summaries),
        "windows_equal_reference":
            not reference.mismatches(before_kill)
            and clusters_before
            == reference.clusters.get(max(before_kill)),
        "resumed_windows_equal_reference":
            len(after_resume) == 1
            and not reference.mismatches(after_resume)
            and clusters_after
            == reference.clusters.get(max(driver.windows)),
        "no_failed_operations": driver.failed == 0,
    }
    return {
        "metrics": {
            "setup_s": undisturbed(setups, keep=1),
            "ingest_points_per_s": undisturbed(hops["rate"], "higher"),
            "ack_ms_p50": undisturbed(hops["ack_ms"]),
            "insight_ms_p50": undisturbed(hops["insight_ms"]),
            # A GET is mostly two vCPU wake-ups, whose noise is fast
            # and two-sided: over the whole run it averages out, where
            # the best hops would pick its lucky side.
            "query_ms_p50": _median(read_cycles(all_query_ms)),
            "resume_s": undisturbed(resumes, keep=1),
            "server_cpu_s": undisturbed(hops["cpu_s"]) * len(hops["cpu_s"]),
            "peak_rss_mb": peak_rss,
            "disk_mb": disk,
            "cluster_ari": reference.cluster_ari,
            "edge_f1": reference.edge_f1,
            "fail_share": driver.failed / driver.attempted,
        },
        "samples": {
            "hops": hops,
            "setups": setups,
            "resumes": resumes,
            "acks": len(all_ack_ms),
            "insights": len(all_insight_ms),
            "queries": len(all_query_ms),
            "ack_ms_p50_all": _median(all_ack_ms),
            "ack_ms_p99": percentile(all_ack_ms, 0.99),
            "insight_ms_p50_all": _median(all_insight_ms),
            "insight_ms_p90": percentile(all_insight_ms, 0.90),
            "timed_requests": timed,
            "timed_loop_s": loop_s,
            "loop_points_per_s": timed * wl.POINTS_PER_REQUEST / loop_s,
            "generator_build_s": build_s,
            "body_bytes": len(bodies[0]),
        },
        "checks": checks,
        "attempted": driver.attempted,
        "failed": driver.failed,
        "failures": driver.failures,
    }


def _metric_value(text: str, series: str) -> float | None:
    """The sample of ``series`` in a Prometheus exposition."""
    for line in text.splitlines():
        if line.startswith(series + " "):
            return float(line.rsplit(" ", 1)[1])
    return None
