"""Tests for the live operations surface (ingest + query API).

Covers the PR's acceptance surface:

* wire-format decoding (JSON envelope / bare list / point runs, text
  exposition) with strict rejection of torn or malformed payloads;
* per-source sequencing (duplicates acknowledged, never re-published)
  and the bus's out-of-order guard surfacing as ``rejected`` counts;
* HTTP hygiene on the telemetry server: HEAD support,
  ``charset=utf-8`` everywhere, 405 (with ``Allow``) on known routes;
* the end-to-end ``serve`` session: HTTP-fed windows, query routes,
  the event log, staleness gauges, 429 backpressure when the bus
  sheds, and scrape-while-ingest thread-safety;
* the proof obligation: the same point stream pushed via HTTP
  ``POST /ingest`` and via the in-process bus yields bit-identical
  windows (edge Jaccard 1.0), including across a kill + ``--resume``;
* spec plumbing: ``ServiceSpec`` round-trips, serve-mode validation,
  ``PipelineBuilder.service()`` and the ``repro spec serve`` CLI.
"""

import json
import socket
import struct
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import PipelineBuilder, RunSpec, ServiceSpec, load_spec
from repro.api.spec import loads_spec, spec_to_toml
from repro.causality.depgraph import edge_jaccard
from repro.core import StreamingConfig
from repro.obs import (
    AnalysisView,
    EventLog,
    IngestError,
    SourceGate,
    decode_payload,
)
from repro.obs.ingest import _number, _numbers, decode_json, decode_text
from repro.streaming import StreamingSieve
from repro.tracing.callgraph import CallGraph

import test_obs  # noqa: F401  - registers the demo-chain application


# ---------------------------------------------------------------------------
# HTTP helpers


def _get(url: str, method: str = "GET"):
    request = urllib.request.Request(url, method=method)
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, dict(response.headers), \
                response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def _get_json(url: str):
    status, headers, body = _get(url)
    return status, headers, json.loads(body)


def _post(url: str, payload, content_type="application/json",
          headers=None):
    body = payload if isinstance(payload, bytes) \
        else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, method="POST",
        headers={"Content-Type": content_type, **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, dict(response.headers), \
                json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), \
            json.loads(error.read())


# ---------------------------------------------------------------------------
# Wire-format decoding


class TestDecodeJson:
    def test_envelope_with_both_batch_shapes(self):
        request = decode_json(json.dumps({
            "source": "agent-1", "seq": 7,
            "batches": [
                {"component": "front", "time": 12.5,
                 "metrics": {"cpu": 0.6, "mem": 480.0}},
                {"component": "back", "metric": "cpu",
                 "times": [12.0, 12.5], "values": [0.4, 0.45]},
            ],
        }).encode())
        assert request.source == "agent-1" and request.seq == 7
        assert request.point_count == 4
        assert request.watermark == 12.5
        scrape, points = request.batches
        assert not scrape.is_points and scrape.metrics["cpu"] == 0.6
        assert points.is_points and points.times == [12.0, 12.5]

    def test_bare_list_is_an_unsequenced_payload(self):
        request = decode_json(json.dumps([
            {"component": "a", "time": 1.0, "metrics": {"m": 2.0}},
        ]).encode())
        assert request.source == "" and request.seq is None
        assert request.watermark == 1.0

    @pytest.mark.parametrize("body", [
        b"",                                   # empty
        b"{\"batches\": [",                    # torn mid-structure
        b"\xff\xfe",                           # not UTF-8
        b"42",                                 # wrong top-level type
        b"{\"batches\": []}",                  # no batches
        b"{\"batches\": [{}]}",                # batch without component
        b"{\"batches\": [{\"component\": \"a\"}]}",  # no shape
        b"{\"batches\": 3}",
        b"{\"bathces\": []}",                  # typo'd field
    ])
    def test_malformed_payloads_raise(self, body):
        with pytest.raises(IngestError):
            decode_json(body)

    def test_nan_and_mismatched_runs_rejected(self):
        with pytest.raises(IngestError):
            decode_json(json.dumps({"batches": [
                {"component": "a", "time": 1.0,
                 "metrics": {"m": float("nan")}},
            ]}).encode())
        with pytest.raises(IngestError):
            decode_json(json.dumps({"batches": [
                {"component": "a", "metric": "m",
                 "times": [1.0, 2.0], "values": [1.0]},
            ]}).encode())

    def test_sequenced_payload_needs_a_source(self):
        with pytest.raises(IngestError):
            decode_json(json.dumps({"seq": 1, "batches": [
                {"component": "a", "time": 1.0, "metrics": {"m": 1.0}},
            ]}).encode())

    def test_integer_beyond_float_range_is_a_decode_error(self):
        huge = "1" + "0" * 400
        for batch in (
                f'{{"component": "a", "metric": "m", "times": [1], '
                f'"values": [{huge}]}}',
                f'{{"component": "a", "metric": "m", "times": [{huge}], '
                f'"values": [1]}}',
                f'{{"component": "a", "time": 1, "metrics": {{"m": {huge}}}}}'):
            with pytest.raises(IngestError, match="out of float range"):
                decode_json(f"[{batch}]".encode())

    @given(st.lists(st.one_of(
        st.floats(allow_nan=True, allow_infinity=True,
                  allow_subnormal=True),
        st.integers(),
        st.integers(-10**400, 10**400),
        st.sampled_from([1e308, -1e308, 1.7976931348623157e308, -0.0]),
        st.booleans(), st.none(), st.text(max_size=3),
        st.lists(st.integers(), max_size=2),
    ), max_size=8), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_bulk_numbers_equal_the_per_item_path(self, items, finite):
        # The one-pass path accepts exactly what _number accepts, as the
        # same floats, and fails with the same message otherwise.
        def outcome(convert):
            try:
                return struct.pack(f"<{len(items)}d", *convert())
            except IngestError as exc:
                return str(exc)

        assert outcome(lambda: _numbers(items, "times[]", finite)) \
            == outcome(lambda: [_number(item, "times[]", finite)
                                for item in items])


class TestDecodeText:
    def test_samples_with_labels_and_comments(self):
        request = decode_text(
            b'# HELP cpu_usage cores\n'
            b'cpu_usage{component="front"} 0.61 12.5\n'
            b'\n'
            b'disk_io{component="back",device="sda"} 9.0 12.0\n'
        )
        assert request.point_count == 2
        assert request.watermark == 12.5
        first, second = request.batches
        assert (first.component, first.metric) == ("front", "cpu_usage")
        # Extra labels fold into the metric name deterministically.
        assert second.metric == 'disk_io{device="sda"}'

    @pytest.mark.parametrize("line", [
        b'cpu_usage{component="a"} 0.5',        # missing timestamp
        b'cpu_usage 0.5 1.0',                   # missing component
        b'cpu_usage{component="a"} abc 1.0',    # bad value
        b'cpu_usage{component="a"} 0.5 xyz',    # bad timestamp
        b'{component="a"} 0.5 1.0',             # no metric name
        b'cpu{component=a} 0.5 1.0',            # unquoted label
    ])
    def test_malformed_lines_raise(self, line):
        with pytest.raises(IngestError):
            decode_text(line)

    def test_dispatch_by_content_type_and_headers(self):
        request = decode_payload(
            "text/plain; version=0.0.4",
            b'cpu{component="a"} 1.0 2.0\n',
            source="agent", seq_header="9",
        )
        assert request.source == "agent" and request.seq == 9
        with pytest.raises(IngestError):
            decode_payload("application/x-protobuf", b"")
        with pytest.raises(IngestError):
            decode_payload("application/json", b"[]",
                           seq_header="not-a-number")

    def test_names_the_journal_cannot_frame_are_refused(self):
        # The journal frames names with u16 byte lengths; a longer name
        # must be a 400, not a batch that can never be journaled.
        fits, long = "é" * (0xFFFF // 2), "é" * (0xFFFF // 2 + 1)
        payloads = [
            {"component": "{}", "metric": "m",
             "times": [1.0], "values": [1.0]},
            {"component": "a", "metric": "{}",
             "times": [1.0], "values": [1.0]},
            {"component": "a", "time": 1.0, "metrics": {"{}": 1.0}},
        ]
        for payload in payloads:
            def body(name, payload=payload):
                return json.dumps([json.loads(
                    json.dumps(payload).replace("{}", name))]).encode()

            decode_payload("application/json", body(fits))
            with pytest.raises(IngestError, match="bytes of UTF-8"):
                decode_payload("application/json", body(long))
        with pytest.raises(IngestError, match="bytes of UTF-8"):
            decode_payload("text/plain", (
                f'cpu{{component="{long}"}} 1.0 2.0\n').encode())

    def test_millisecond_unit_header_rescales_timestamps(self):
        # Prometheus-native senders stamp milliseconds since epoch;
        # X-Repro-Time-Unit: ms brings them onto the seconds axis.
        request = decode_payload(
            "text/plain",
            b'cpu{component="a"} 1.0 12500\n',
            time_unit="ms",
        )
        assert request.watermark == 12.5
        request = decode_payload(
            "application/json",
            json.dumps({"batches": [
                {"component": "a", "time": 2000.0,
                 "metrics": {"m": 1.0}},
                {"component": "a", "metric": "n",
                 "times": [1000.0, 1500.0], "values": [1.0, 2.0]},
            ]}).encode(),
            time_unit="MS",  # case-insensitive
        )
        assert request.batches[0].time == 2.0
        assert request.batches[1].times == [1.0, 1.5]
        # Seconds (the default) pass through untouched.
        request = decode_payload(
            "text/plain", b'cpu{component="a"} 1.0 12.5\n',
            time_unit="s",
        )
        assert request.watermark == 12.5
        with pytest.raises(IngestError):
            decode_payload("text/plain",
                           b'cpu{component="a"} 1.0 1.0\n',
                           time_unit="fortnights")


class TestSourceGate:
    def test_per_source_sequencing(self):
        gate = SourceGate()
        assert gate.admit("a", 1) and gate.admit("a", 2)
        assert not gate.admit("a", 2)   # duplicate
        assert not gate.admit("a", 1)   # replayed past
        assert gate.admit("b", 1)       # sources are independent
        assert gate.admit("a", None)    # unsequenced always admitted
        assert gate.admit("", 5)        # no source -> no gating
        stats = gate.as_dict()
        assert stats["duplicates"] == 2 and stats["sources"] == 2
        assert gate.last_seq("a") == 2


# ---------------------------------------------------------------------------
# Read-side structures


class TestViewAndEvents:
    def test_empty_view_shapes(self):
        view = AnalysisView()
        assert view.latest() is None
        assert view.windows() == {"count": 0, "windows": []}
        assert view.clusters() == {"window": None, "clusters": {}}
        assert view.drift()["window"] is None

    def test_event_log_since_and_bound(self):
        events = EventLog(history=3)
        for index in range(5):
            events.append("tick", float(index), {"n": index})
        assert events.latest_seq == 5
        assert len(events) == 3  # bounded retention
        recent = events.since(3)
        assert [event["seq"] for event in recent["events"]] == [4, 5]
        assert events.since(5)["events"] == []


# ---------------------------------------------------------------------------
# A serve-mode session fixture


def _serve_session(tmp_path=None, *, clock="ingest", seed=3,
                   min_window_samples=8, consumers=(), journal="",
                   checkpoint="", resume=False, **streaming):
    builder = (PipelineBuilder("http").mode("serve")
               .workload("constant", rate=10.0)
               .streaming(window=10.0, hop=5.0, retention=60.0,
                          min_window_samples=min_window_samples,
                          **streaming)
               .service(port=0, clock=clock,
                        topology=(("front", "back"),))
               .duration(30).seed(seed))
    for kind, options in consumers:
        builder.consumer(kind, **options)
    if journal:
        builder.journal(journal)
    if checkpoint:
        builder.checkpoint(checkpoint)
    if resume:
        builder.resume()
    return builder.build()


def _batches(step: int, t: float) -> list:
    wave = 0.3 if (step // 40) % 2 else 0.0
    return [
        {"component": "front", "time": t,
         "metrics": {"cpu": 0.5 + 0.01 * (step % 10) + wave,
                     "mem": 100.0 + step % 7,
                     "net": 5.0 + 0.1 * (step % 13)}},
        {"component": "back", "time": t,
         "metrics": {"cpu": 0.4 + 0.02 * (step % 5) + wave,
                     "mem": 80.0 + step % 11,
                     "net": 3.0 + 0.2 * (step % 3)}},
    ]


def _push(session, steps, source="s1", start_step=0):
    """POST one sequenced JSON payload per half-second step."""
    for step in range(start_step, start_step + steps):
        status, _headers, body = _post(
            session.url + "/ingest",
            {"source": source, "seq": step,
             "batches": _batches(step, step * 0.5)},
        )
        assert status == 200, body
    return start_step + steps


# ---------------------------------------------------------------------------
# HTTP hygiene (satellite: HEAD, charset, 405)


class TestHttpHygiene:
    @pytest.fixture()
    def session(self):
        session = _serve_session()
        yield session
        session.close()

    def test_head_returns_headers_without_body(self, session):
        get_status, get_headers, get_body = _get(
            session.url + "/metrics")
        status, headers, body = _get(session.url + "/metrics",
                                     method="HEAD")
        assert status == get_status == 200
        assert body == b""
        # Content-Length advertises what a GET would have carried.
        assert int(headers["Content-Length"]) == len(get_body)

    def test_every_content_type_carries_charset(self, session):
        for path in ("/metrics", "/metrics.json", "/healthz",
                     "/api/windows", "/export/prometheus", "/nope"):
            _status, headers, _body = _get(session.url + path)
            assert "charset=utf-8" in headers["Content-Type"], path

    def test_wrong_method_on_known_route_is_405(self, session):
        status, headers, _body = _post(session.url + "/metrics", {})
        assert status == 405
        assert headers["Allow"] == "GET"
        status, headers, _body = _get(session.url + "/ingest")
        assert status == 405
        assert headers["Allow"] == "POST"
        status, headers, _body = _post(session.url + "/api/windows",
                                       {})
        assert status == 405

    @pytest.mark.parametrize("length, status, error", [
        ("-1", 400, "invalid Content-Length header"),
        ("abc", 400, "invalid Content-Length header"),
        (str(16 * 1024 * 1024 + 1), 413, "body exceeds 16777216 bytes"),
    ])
    def test_bad_content_length(self, session, length, status, error):
        # Over a raw socket: an HTTP client library would not send
        # these headers.
        with socket.create_connection(
                (session.server.host, session.server.port),
                timeout=10) as sock:
            sock.sendall(
                f"POST /ingest HTTP/1.1\r\nHost: x\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {length}\r\nConnection: close\r\n\r\n"
                .encode())
            response = b""
            while chunk := sock.recv(65536):
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split()[1] == str(status).encode()
        assert json.loads(body) == {"error": error}
        assert session.engine.bus.stats.points_published == 0

    def test_unknown_route_is_still_404(self, session):
        status, _headers, body = _get(session.url + "/nope")
        assert status == 404
        # The route listing now advertises the service surface too.
        assert "/ingest" in json.loads(body)["routes"]


# ---------------------------------------------------------------------------
# End-to-end ingest + queries


class TestServeSession:
    def test_http_fed_windows_and_queries(self):
        session = _serve_session(consumers=(
            ("scaling", dict(component="front", scale_up=0.9,
                             scale_down=0.2)),
        ))
        try:
            _push(session, 90)
            engine = session.engine
            assert engine.stats.windows >= 2

            status, _h, windows = _get_json(session.url + "/api/windows")
            assert status == 200
            assert windows["count"] == engine.stats.windows
            latest = windows["windows"][-1]

            status, _h, clusters = _get_json(session.url + "/api/clusters")
            assert status == 200
            assert clusters["window"] == latest["window"]
            assert set(clusters["clusters"]) == {"front", "back"}
            for payload in clusters["clusters"].values():
                assert payload["n_clusters"] >= 1
                assert payload["representatives"]

            status, _h, drift = _get_json(session.url + "/api/drift")
            assert status == 200 and drift["window"] == \
                latest["window"]
            assert set(drift["drift"]) <= {"front", "back"}

            status, _h, scaling = _get_json(session.url + "/api/scaling")
            assert status == 200 and scaling["enabled"]
            assert scaling["windows_seen"] == engine.stats.windows

            status, _h, rca = _get_json(session.url + "/api/rca")
            assert status == 200 and not rca["enabled"]

            status, _h, events = _get_json(session.url + "/api/events")
            assert status == 200
            kinds = {event["kind"] for event in events["events"]}
            assert "recluster" in kinds
            seen = events["latest_seq"]
            status, _h, tail = _get_json(
                session.url + f"/api/events?since={seen}")
            assert tail["events"] == []

            # /metrics stays consistent with the query surface.
            _status, _h, text = _get(session.url + "/metrics")
            scrape = text.decode()
            assert (f"repro_last_window_epoch "
                    f"{engine.latest().index}") in scrape
            assert "repro_last_analysis_timestamp_seconds" in scrape
        finally:
            session.close()

    def test_duplicate_and_out_of_order_over_http(self):
        session = _serve_session()
        try:
            next_step = _push(session, 30)
            flushed = session.engine.bus.stats.points_flushed
            pending = session.engine.bus.pending_points

            # A replayed seq is acknowledged but never re-published.
            status, _h, body = _post(
                session.url + "/ingest",
                {"source": "s1", "seq": 3,
                 "batches": _batches(3, 1.5)},
            )
            assert status == 200 and body["status"] == "duplicate"
            assert body["accepted"] == 0
            assert session.engine.bus.pending_points == pending
            assert session.engine.bus.stats.points_flushed == flushed

            # Unsequenced but time-regressing samples hit the bus's
            # per-key monotonic guard and come back as rejected.
            status, _h, body = _post(
                session.url + "/ingest",
                [{"component": "front", "time": 1.0,
                  "metrics": {"cpu": 0.9}}],
            )
            assert status == 200
            assert body["rejected"] == 1 and body["accepted"] == 0

            # A fresh source is gated independently and lands.
            status, _h, body = _post(
                session.url + "/ingest",
                {"source": "s2", "seq": 1,
                 "batches": _batches(next_step,
                                     next_step * 0.5)},
            )
            assert status == 200 and body["status"] == "ok"
            assert body["accepted"] == 6
        finally:
            session.close()

    def test_time_unit_header_over_http(self):
        # A Prometheus-native sender stamps milliseconds; the header
        # rescales them onto the engine's seconds axis end to end.
        session = _serve_session()
        try:
            t_ms = 12500
            status, _h, body = _post(
                session.url + "/ingest",
                f'cpu{{component="front"}} 0.5 {t_ms}\n'.encode(),
                content_type="text/plain",
                headers={"X-Repro-Time-Unit": "ms"},
            )
            assert status == 200 and body["accepted"] == 1
            assert body["watermark"] == 12.5

            status, _h, body = _post(
                session.url + "/ingest",
                f'cpu{{component="front"}} 0.5 {t_ms}\n'.encode(),
                content_type="text/plain",
                headers={"X-Repro-Time-Unit": "parsecs"},
            )
            assert status == 400
            assert "X-Repro-Time-Unit" in body["error"]
        finally:
            session.close()

    def test_torn_payloads_do_not_perturb_the_engine(self):
        session = _serve_session()
        try:
            _push(session, 50)
            engine = session.engine
            before = (engine.stats.windows,
                      engine.bus.stats.points_published,
                      engine.bus.pending_points,
                      engine.windows.total_points())
            for payload, content_type in [
                (b"{\"batches\": [", "application/json"),
                (b"\xff\xfe", "application/json"),
                (b"cpu_usage 0.5", "text/plain"),
                (json.dumps({"batches": [
                    {"component": "front", "time": 99.0,
                     "metrics": {"cpu": float("nan")}},
                ]}).encode(), "application/json"),
            ]:
                status, _h, body = _post(session.url + "/ingest",
                                         payload, content_type)
                assert status == 400 and "error" in body
            after = (engine.stats.windows,
                     engine.bus.stats.points_published,
                     engine.bus.pending_points,
                     engine.windows.total_points())
            assert before == after
        finally:
            session.close()

    @pytest.mark.parametrize("poison, content_type", [
        (b'zz{component="back"} 1.0 +Inf\n', "text/plain"),
        (b'[{"component":"back","metric":"zz","times":[Infinity],'
         b'"values":[1.0]}]', "application/json"),
    ])
    def test_infinite_timestamp_cannot_freeze_the_schedule(
            self, poison, content_type):
        # An acked time of +Inf used to park the hop schedule (and the
        # key's ordering guard) at infinity: no window ever closed
        # again, however much finite data followed.
        session = _serve_session()
        try:
            engine = session.engine
            step = _push(session, 45)
            windows = engine.stats.windows
            assert windows >= 1
            before = (engine.bus.stats.points_published,
                      engine.bus.pending_points,
                      engine.windows.total_points())
            status, _h, body = _post(session.url + "/ingest", poison,
                                     content_type)
            assert status == 400 and "error" in body
            assert before == (engine.bus.stats.points_published,
                              engine.bus.pending_points,
                              engine.windows.total_points())
            _push(session, 20, start_step=step)  # two healthy hops on
            assert engine.stats.windows > windows
            status, _h, body = _post(
                session.url + "/ingest",
                f'zz{{component="back"}} 1.0 {step * 0.5}\n'.encode(),
                content_type="text/plain",
            )
            assert status == 200 and body["accepted"] == 1
        finally:
            session.close()

    def test_backpressure_returns_429_when_the_bus_sheds(self):
        # Wall clock + no poller running: nothing drains the bus, so
        # a tiny max_pending fills and the service must signal 429.
        session = _serve_session(clock="wall", bus_max_pending=64)
        try:
            times = [i * 0.01 for i in range(100)]
            status, headers, body = _post(
                session.url + "/ingest",
                {"batches": [{"component": "front", "metric": "cpu",
                              "times": times,
                              "values": [1.0] * len(times)}]},
            )
            assert status == 429 and body["status"] == "shed"
            assert body["shed"] > 0
            assert headers["Retry-After"] == "1"

            # The bus is now at its bound: the next payload is
            # refused outright, before anything is published.
            status, _h, body = _post(
                session.url + "/ingest",
                [{"component": "back", "time": 5.0,
                  "metrics": {"cpu": 1.0}}],
            )
            assert status == 429 and "backpressure" in body["error"]
            assert session.service.backpressure_responses == 2
        finally:
            session.close()

    def test_backpressured_sequenced_payload_is_retryable(self):
        # A sequenced payload refused with 429 was never published, so
        # its seq must NOT be committed: the Retry-After retry has to
        # land as fresh data, not be swallowed as a duplicate ack.
        session = _serve_session(clock="wall", bus_max_pending=64)
        try:
            times = [i * 0.01 for i in range(100)]
            status, _h, _b = _post(
                session.url + "/ingest",
                {"batches": [{"component": "front", "metric": "cpu",
                              "times": times,
                              "values": [1.0] * len(times)}]},
            )
            assert status == 429  # the bus is now at its bound

            payload = {"source": "agent", "seq": 1, "batches": [
                {"component": "back", "time": 5.0,
                 "metrics": {"cpu": 1.0}},
            ]}
            status, _h, body = _post(session.url + "/ingest", payload)
            assert status == 429 and "backpressure" in body["error"]
            assert session.service.gate.last_seq("agent") is None

            session.engine.bus.flush()  # drain: backpressure clears
            status, _h, body = _post(session.url + "/ingest", payload)
            assert status == 200 and body["status"] == "ok"
            assert body["accepted"] == 1
            assert session.service.gate.last_seq("agent") == 1
        finally:
            session.close()

    def test_wall_poller_tick_drains_a_jammed_bus(self):
        # The poller's offer must schedule off *pending* (unflushed)
        # data: a bus jammed at max_pending before its first flush
        # has delivered nothing, so a watermark derived only from
        # flushed data would no-op forever and every Retry-After
        # would be a lie.
        session = _serve_session(clock="wall", bus_max_pending=64)
        try:
            times = [i * 0.01 for i in range(100)]
            status, _h, _b = _post(
                session.url + "/ingest",
                {"batches": [{"component": "front", "metric": "cpu",
                              "times": times,
                              "values": [1.0] * len(times)}]},
            )
            assert status == 429
            assert session.engine.bus.pending_points == 64

            session.service.offer_watermark()  # one poller tick
            assert session.engine.bus.pending_points == 0

            status, _h, body = _post(
                session.url + "/ingest",
                [{"component": "back", "time": 5.0,
                  "metrics": {"cpu": 1.0}}],
            )
            assert status == 200 and body["status"] == "ok"
        finally:
            session.close()

    def test_concurrent_scrape_while_ingest(self):
        session = _serve_session()
        errors: list = []
        stop = threading.Event()

        def scraper(path):
            while not stop.is_set():
                status, _h, _b = _get(session.url + path)
                if status >= 500:
                    errors.append((path, status))

        threads = [
            threading.Thread(target=scraper, args=(path,), daemon=True)
            for path in ("/metrics", "/api/clusters", "/api/events",
                         "/healthz")
        ]
        try:
            for thread in threads:
                thread.start()

            def ingester(source, offset):
                for step in range(120):
                    status, _h, body = _post(
                        session.url + "/ingest",
                        {"source": source, "seq": step, "batches": [
                            {"component": f"svc-{offset}",
                             "time": step * 0.5,
                             "metrics": {"cpu": 0.5, "mem": 10.0}},
                        ]})
                    if status != 200:
                        errors.append((source, status, body))

            ingesters = [
                threading.Thread(target=ingester,
                                 args=(f"src-{n}", n), daemon=True)
                for n in range(3)
            ]
            for thread in ingesters:
                thread.start()
            for thread in ingesters:
                thread.join(timeout=60)
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            assert not errors
            # Counters are lock-guarded: no increment lost to racing
            # handler threads.
            assert session.service.ingest_requests == 3 * 120
            assert session.engine.stats.windows >= 1
            # Post-storm consistency: scrape and queries agree.
            _s, _h, text = _get(session.url + "/metrics")
            assert (f"repro_last_window_epoch "
                    f"{session.engine.latest().index}"
                    ) in text.decode()
        finally:
            stop.set()
            session.close()

    def test_serve_summary_and_events_wiring(self, tmp_path):
        session = _serve_session(
            tmp_path,
            journal=str(tmp_path / "serve.journal"),
            checkpoint=str(tmp_path / "serve.ckpt"),
        )
        try:
            _push(session, 90)
            status, _h, events = _get_json(session.url + "/api/events")
            kinds = {event["kind"] for event in events["events"]}
            assert "checkpoint" in kinds  # policy hook fired
            summary = session.service.summary()
            assert summary["ingest_requests"] == 90
            assert summary["windows_published"] == \
                session.engine.stats.windows
            assert summary["duplicates"] == 0
        finally:
            session.close()


# ---------------------------------------------------------------------------
# The proof obligation: HTTP-fed == in-process, bit for bit


def _fingerprints(analyses):
    return [test_obs._fingerprint(analysis) for analysis in analyses]


def _reference_windows(steps, seed=3):
    """The same point stream pushed through the in-process bus."""
    config = StreamingConfig(window=10.0, hop=5.0, retention=60.0,
                             min_window_samples=8)
    engine = StreamingSieve(config=config, seed=seed,
                            application="http", workload="constant")
    graph = CallGraph()
    graph.record_call("front", "back")
    analyses = []
    for step in range(steps):
        t = step * 0.5
        for batch in _batches(step, t):
            engine.bus.publish(batch["component"], batch["time"],
                               batch["metrics"])
        analysis = engine.offer(t, graph)
        if analysis is not None:
            analyses.append(analysis)
    engine.close()
    return analyses


class TestBitIdentical:
    def test_http_ingest_matches_in_process_bus(self):
        steps = 100
        reference = _reference_windows(steps)
        assert len(reference) >= 2

        session = _serve_session()
        try:
            _push(session, steps)
            streamed = list(session.engine.history)
        finally:
            session.close()

        assert len(streamed) == len(reference)
        for http_window, bus_window in zip(streamed, reference):
            assert http_window.index == bus_window.index
            assert http_window.start == bus_window.start
            assert http_window.end == bus_window.end
            assert http_window.reclustered == bus_window.reclustered
            assert http_window.reused == bus_window.reused
        assert _fingerprints(streamed) == _fingerprints(reference)
        assert edge_jaccard(
            streamed[-1].dependency_graph,
            reference[-1].dependency_graph,
        ) == 1.0

    def test_http_fed_resume_is_bit_identical(self, tmp_path):
        steps, cut = 100, 50
        reference = _reference_windows(steps)

        journal = str(tmp_path / "ingest.journal")
        checkpoint = str(tmp_path / "serve.ckpt")
        first = _serve_session(journal=journal, checkpoint=checkpoint)
        try:
            _push(first, cut)
            assert first.engine.stats.windows >= 1
        finally:
            first.close()  # the "kill": journal + checkpoint survive

        resumed = _serve_session(journal=journal,
                                 checkpoint=checkpoint, resume=True)
        try:
            assert resumed.resumed
            # A sender replaying pre-crash samples gets them clipped
            # as already-journaled -- and the ack reports them as
            # clipped, not accepted.
            status, _h, body = _post(
                resumed.url + "/ingest", [_batches(0, 0.0)[0]])
            assert status == 200 and body["status"] == "ok"
            assert body["clipped"] == 3
            assert body["accepted"] == 0 and body["rejected"] == 0
            _push(resumed, steps - cut, start_step=cut)
            tail = list(resumed.engine.history)
            assert resumed.engine.stats.windows == len(reference)
        finally:
            resumed.close()

        expected_tail = reference[-len(tail):]
        assert _fingerprints(tail) == _fingerprints(expected_tail)
        for resumed_window, expected in zip(tail, expected_tail):
            assert resumed_window.index == expected.index
            assert resumed_window.start == expected.start
            assert resumed_window.end == expected.end


# ---------------------------------------------------------------------------
# Stream mode: query surface over a co-simulation


class TestStreamModeService:
    def test_cosim_service_serves_queries_but_not_ingest(self):
        session = (PipelineBuilder("demo-chain").mode("stream")
                   .workload("constant", rate=12.0)
                   .streaming(window=10.0, hop=5.0, retention=60.0)
                   .service(port=0)
                   .duration(15).seed(3).build())
        try:
            url = session.telemetry.server.url
            outcome = session.run()
            assert outcome.analyses
            status, _h, windows = _get_json(url + "/api/windows")
            assert status == 200
            assert windows["count"] == len(outcome.analyses)
            # The driver owns the bus: HTTP ingest is refused.
            status, _h, body = _post(
                url + "/ingest",
                [{"component": "front", "time": 1.0,
                  "metrics": {"cpu": 1.0}}],
            )
            assert status == 409 and "co-simulation" in body["error"]
        finally:
            session.close()


# ---------------------------------------------------------------------------
# Spec plumbing


class TestServiceSpec:
    def test_defaults_and_validation(self):
        spec = ServiceSpec()
        assert not spec.active
        assert ServiceSpec(port=9100).active
        with pytest.raises(ValueError):
            ServiceSpec(clock="lamport")
        with pytest.raises(ValueError):
            ServiceSpec(poll_interval=-1.0)
        with pytest.raises(ValueError):
            ServiceSpec(topology=(("only-one",),))

    def test_topology_normalizes_and_builds_a_graph(self):
        spec = ServiceSpec(topology=[["front", "back"],
                                     ("back", "db", 3)])
        assert spec.topology == (("front", "back", 1),
                                 ("back", "db", 3))
        graph = spec.build_call_graph()
        assert graph.has_edge("front", "back")
        assert graph.call_count("back", "db") == 3

    def test_serve_mode_requires_an_active_service(self):
        with pytest.raises(ValueError):
            RunSpec(mode="serve")
        RunSpec(mode="serve", service=ServiceSpec(enabled=True))

    def test_round_trip_json_and_toml(self):
        spec = (PipelineBuilder("http").mode("serve")
                .workload("constant", rate=10.0)
                .service(port=9123, clock="wall", poll_interval=2.0,
                         topology=(("front", "back", 2),))
                .duration(30).seed(7).spec())
        rebuilt = RunSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert loads_spec(spec_to_toml(spec), format="toml") == spec
        with pytest.raises(ValueError):
            RunSpec.from_dict({**spec.to_dict(),
                               "service": {"bogus": 1}})

    def test_cli_spec_serve_round_trips(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "serve.toml"
        code = main(["spec", "serve", "--port", "9123",
                     "--clock", "wall", "--topology", "front:back:2",
                     "--topology", "back:db", "-o", str(out)])
        assert code == 0
        spec = load_spec(out)
        assert spec.mode == "serve"
        assert spec.service.enabled and spec.service.port == 9123
        assert spec.service.clock == "wall"
        assert spec.service.topology == (("front", "back", 2),
                                         ("back", "db", 1))

    def test_cli_rejects_bad_topology(self, capsys):
        from repro.cli import main

        code = main(["spec", "serve", "--topology", "oops"])
        assert code == 2
        assert "topology edge" in capsys.readouterr().err
