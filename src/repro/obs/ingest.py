"""Wire-format decoding and admission control for HTTP metric ingest.

``POST /ingest`` accepts two remote-write-style payloads:

* **JSON** (``application/json``) -- either a bare list of batches or
  an envelope with per-source sequencing::

      {"source": "collector-1", "seq": 7,
       "batches": [
         {"component": "front", "time": 12.5,
          "metrics": {"cpu": 0.61, "mem": 480.0}},
         {"component": "back", "metric": "cpu",
          "times": [12.0, 12.5], "values": [0.4, 0.45]}
       ]}

  The first batch shape mirrors :meth:`IngestionBus.publish
  <repro.streaming.bus.IngestionBus.publish>` (one scrape of one
  component), the second :meth:`publish_points
  <repro.streaming.bus.IngestionBus.publish_points>` (a pre-batched
  run of one metric).

* **Prometheus text exposition** (``text/plain``) -- one sample per
  line, the component carried as a label and the timestamp in
  *seconds* (the engine's time axis)::

      cpu_usage{component="front"} 0.61 12.5

  Samples are grouped into one run per (component, metric), each key
  in its own line order (:func:`decode_text`), so the bus sees one
  ``publish_points`` per series, not one per line.
  Sequencing rides the ``X-Repro-Source`` / ``X-Repro-Seq`` headers.
  Standard Prometheus clients stamp samples in *milliseconds* since
  epoch; they must send ``X-Repro-Time-Unit: ms`` so the decoder
  rescales onto the engine's seconds axis (the header works for JSON
  payloads too).

Decoding is strict and total: the whole payload is validated into
:class:`IngestBatch` objects *before* anything touches the bus, so a
torn or malformed request is rejected with 400 and zero engine
perturbation.  :class:`SourceGate` then applies per-source sequencing
-- a replayed ``seq`` is acknowledged as a duplicate (200, nothing
published) so a retrying sender stops resending, remote-write style.
Out-of-order samples *within* an accepted batch are handled by the
bus's own per-key monotonicity guard and reported back as
``rejected``.  Timestamps must be finite in both formats: an acked
``inf`` would park the engine's hop schedule beyond every later sample.
"""

from __future__ import annotations

import json
import math
import re
import threading
from dataclasses import dataclass, field
from typing import Any

from repro.persistence.journal import MAX_NAME_BYTES


class IngestError(ValueError):
    """A malformed ingest payload (maps to HTTP 400)."""


@dataclass
class IngestBatch:
    """One decoded unit of ingest: a scrape batch or a point run."""

    component: str
    time: float = 0.0
    metrics: dict[str, float] = field(default_factory=dict)
    metric: str = ""
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    @property
    def is_points(self) -> bool:
        """True for the pre-batched single-metric shape."""
        return bool(self.metric)

    @property
    def point_count(self) -> int:
        return len(self.times) if self.is_points else len(self.metrics)

    @property
    def newest_time(self) -> float:
        if self.is_points:
            return self.times[-1] if self.times else float("-inf")
        return self.time


@dataclass
class IngestRequest:
    """A fully decoded ``POST /ingest`` payload."""

    batches: list[IngestBatch]
    source: str = ""
    seq: int | None = None

    @property
    def point_count(self) -> int:
        return sum(batch.point_count for batch in self.batches)

    @property
    def watermark(self) -> float | None:
        """Newest timestamp across every batch (None when empty)."""
        newest = float("-inf")
        for batch in self.batches:
            newest = max(newest, batch.newest_time)
        return None if newest == float("-inf") else newest


def _number(value: Any, what: str, finite: bool = False) -> float:
    """A non-NaN number; ``finite`` (timestamps) also refuses ``inf``,
    which would park the hop schedule beyond every later sample."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise IngestError(f"{what} must be a number, got {value!r}")
    try:
        result = float(value)
    except OverflowError:  # an integer literal beyond float range
        raise IngestError(f"{what} is out of float range") from None
    if math.isnan(result):
        raise IngestError(f"{what} must not be NaN")
    if finite and math.isinf(result):
        raise IngestError(f"{what} must be finite")
    return result


#: Item types :func:`_numbers` converts in one pass (not ``bool``).
_PLAIN_NUMBERS = frozenset((int, float))


def _numbers(items: list, what: str, finite: bool = False) -> list[float]:
    """``[_number(item, what, finite) for item in items]``, validated
    in one C-level pass when every item is exactly an ``int`` or a
    ``float``: a finite sum (not NaN, for values) proves every item
    valid.  Anything else -- another type, an integer beyond float
    range, a sum that fails the test -- takes the per-item path, so
    the accepted floats and the error message are the same."""
    if _PLAIN_NUMBERS.issuperset(map(type, items)):
        try:
            result = list(map(float, items))
        except OverflowError:
            pass
        else:
            total = sum(result)
            if (math.isfinite(total) if finite
                    else not math.isnan(total)):
                return result
    return [_number(item, what, finite) for item in items]


def _component(value: Any) -> str:
    if not isinstance(value, str) or not value:
        raise IngestError(
            f"component must be a non-empty string, got {value!r}"
        )
    return value


def _decode_batch(entry: Any) -> IngestBatch:
    if not isinstance(entry, dict):
        raise IngestError(f"batch must be an object, got {entry!r}")
    component = _component(entry.get("component"))
    if "metrics" in entry:
        extra = set(entry) - {"component", "time", "metrics"}
        if extra:
            raise IngestError(
                f"unknown batch field(s): {', '.join(sorted(extra))}"
            )
        metrics = entry["metrics"]
        if not isinstance(metrics, dict) or not metrics:
            raise IngestError("metrics must be a non-empty object")
        return IngestBatch(
            component=component,
            time=_number(entry.get("time", 0.0), "time", finite=True),
            metrics={
                str(name): _number(value, f"metrics[{name!r}]")
                for name, value in metrics.items()
            },
        )
    if "metric" in entry:
        extra = set(entry) - {"component", "metric", "times", "values"}
        if extra:
            raise IngestError(
                f"unknown batch field(s): {', '.join(sorted(extra))}"
            )
        metric = entry["metric"]
        if not isinstance(metric, str) or not metric:
            raise IngestError("metric must be a non-empty string")
        times = entry.get("times")
        values = entry.get("values")
        if not isinstance(times, list) or not isinstance(values, list):
            raise IngestError("times and values must be arrays")
        if len(times) != len(values):
            raise IngestError("times and values must have equal length")
        return IngestBatch(
            component=component,
            metric=metric,
            times=_numbers(times, "times[]", finite=True),
            values=_numbers(values, "values[]"),
        )
    raise IngestError(
        "batch needs either a 'metrics' object or a "
        "'metric' + 'times' + 'values' run"
    )


def decode_json(body: bytes) -> IngestRequest:
    """Decode a JSON ingest payload (envelope or bare batch list)."""
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IngestError(f"invalid JSON payload: {exc}") from None
    if isinstance(data, list):
        data = {"batches": data}
    if not isinstance(data, dict):
        raise IngestError("payload must be an object or a batch array")
    extra = set(data) - {"source", "seq", "batches"}
    if extra:
        raise IngestError(
            f"unknown payload field(s): {', '.join(sorted(extra))}"
        )
    batches = data.get("batches")
    if not isinstance(batches, list) or not batches:
        raise IngestError("payload needs a non-empty 'batches' array")
    seq = data.get("seq")
    if seq is not None:
        if isinstance(seq, bool) or not isinstance(seq, int):
            raise IngestError(f"seq must be an integer, got {seq!r}")
    source = data.get("source", "")
    if not isinstance(source, str):
        raise IngestError("source must be a string")
    if seq is not None and not source:
        raise IngestError("a sequenced payload needs a 'source'")
    return IngestRequest(
        batches=[_decode_batch(entry) for entry in batches],
        source=source,
        seq=seq,
    )


#: ``name{labels}`` -- the series header of an exposition sample line
#: (what is left once ``value timestamp`` are split off the right).
_HEADER_RE = re.compile(
    r"(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
)

_LABEL_RE = re.compile(
    r'\s*(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*"(?P<value>[^"]*)"\s*'
    r"(?:,|$)"
)


def _parse_labels(text: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    position = 0
    while position < len(text):
        match = _LABEL_RE.match(text, position)
        if match is None:
            raise IngestError(f"invalid label set {text!r}")
        labels[match.group("name")] = match.group("value")
        position = match.end()
    return labels


def _series_key(header: str, lineno: int) -> tuple[str, str]:
    """``(component, metric)`` of one ``name{labels}`` series header."""
    match = _HEADER_RE.fullmatch(header)
    if match is None:
        raise IngestError(f"line {lineno}: invalid sample {header!r}")
    labels = _parse_labels(match.group("labels") or "")
    component = labels.pop("component", "")
    if not component:
        raise IngestError(f"line {lineno}: missing component label")
    metric = match.group("name")
    if labels:
        rendered = ",".join(
            f'{name}="{labels[name]}"' for name in sorted(labels)
        )
        metric = f"{metric}{{{rendered}}}"
    return component, metric


@dataclass
class _Series:
    """Decode-time state of one (component, metric) key in a request."""

    component: str
    metric: str
    newest: float = float("-inf")
    run: IngestBatch | None = None


def decode_text(body: bytes, source: str = "",
                seq: int | None = None) -> IngestRequest:
    """Decode a Prometheus-text-exposition ingest payload.

    Samples are grouped into per-series runs: each line is split from
    the right into ``header value timestamp``, the ``name{labels}``
    header is validated once per distinct spelling, and the sample
    joins the open run of the component named by its ``component``
    label; labels beyond ``component`` are folded into the metric name
    deterministically so distinct label sets stay distinct series.  A
    scrape-major body of S series x N scrapes decodes to S runs of N
    points -- the shape the JSON point-run path delivers.

    Each key keeps its line order exactly: a sample older than the
    newest one its series has carried in this request closes that run
    and becomes its own one-point batch (the next in-order sample
    opens a new run), so the bus rejects, clips and accepts the very
    samples it would have, had every line been published on its own.

    Timestamps are seconds (the engine's time axis) and must be finite
    -- Prometheus-native millisecond stamps need the
    ``X-Repro-Time-Unit: ms`` header, applied by
    :func:`decode_payload`; a line without a timestamp is rejected --
    the engine has no wall clock to substitute.
    """
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestError(f"payload is not UTF-8: {exc}") from None
    batches: list[IngestBatch] = []
    by_header: dict[str, _Series] = {}
    by_key: dict[tuple[str, str], _Series] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.rsplit(None, 2)
        if len(parts) != 3:
            raise IngestError(
                f"line {lineno}: expected 'name{{labels}} value "
                f"timestamp', got {line!r}"
            )
        header, value_text, time_text = parts
        try:
            value, time = float(value_text), float(time_text)
        except ValueError:
            raise IngestError(
                f"line {lineno}: invalid value or timestamp in {line!r}"
            ) from None
        if math.isnan(value) or not math.isfinite(time):
            raise IngestError(
                f"line {lineno}: NaN sample or non-finite timestamp"
            )
        series = by_header.get(header)
        if series is None:
            # Distinct spellings of one label set share one state, or
            # the key's line order would be lost across them.
            key = _series_key(header, lineno)
            series = by_key.get(key)
            if series is None:
                series = by_key[key] = _Series(*key)
            by_header[header] = series
        if time < series.newest:
            series.run = None
            batches.append(IngestBatch(
                component=series.component, metric=series.metric,
                times=[time], values=[value],
            ))
            continue
        series.newest = time
        run = series.run
        if run is None:
            run = series.run = IngestBatch(
                component=series.component, metric=series.metric,
            )
            batches.append(run)
        run.times.append(time)
        run.values.append(value)
    if not batches:
        raise IngestError("payload holds no samples")
    if seq is not None and not source:
        raise IngestError("a sequenced payload needs a source header")
    return IngestRequest(batches=batches, source=source, seq=seq)


#: Accepted ``X-Repro-Time-Unit`` values -> scale onto engine seconds.
TIME_UNITS = {"s": 1.0, "seconds": 1.0, "ms": 0.001, "milliseconds": 0.001}


def _time_scale(time_unit: str | None) -> float:
    if time_unit is None or time_unit == "":
        return 1.0
    scale = TIME_UNITS.get(time_unit.strip().lower())
    if scale is None:
        raise IngestError(
            f"unsupported X-Repro-Time-Unit {time_unit!r} "
            f"(expected one of {sorted(TIME_UNITS)})"
        )
    return scale


def _rescale(request: IngestRequest, scale: float) -> IngestRequest:
    """Bring every decoded timestamp onto the engine's seconds axis."""
    if scale != 1.0:
        for batch in request.batches:
            if batch.is_points:
                batch.times = [t * scale for t in batch.times]
            else:
                batch.time *= scale
    return request


def decode_payload(content_type: str, body: bytes, source: str = "",
                   seq_header: str | None = None,
                   time_unit: str | None = None) -> IngestRequest:
    """Dispatch on Content-Type (JSON by default, text exposition for
    ``text/plain``).  ``source``/``seq_header``/``time_unit`` carry
    the ``X-Repro-Source`` / ``X-Repro-Seq`` / ``X-Repro-Time-Unit``
    headers; the last rescales timestamps onto the engine's seconds
    axis (Prometheus-native senders stamp milliseconds)."""
    scale = _time_scale(time_unit)
    seq: int | None = None
    if seq_header is not None and seq_header != "":
        try:
            seq = int(seq_header)
        except ValueError:
            raise IngestError(
                f"invalid X-Repro-Seq header {seq_header!r}"
            ) from None
    kind = (content_type or "application/json").split(";", 1)[0].strip()
    if kind in ("text/plain", "application/openmetrics-text"):
        request = decode_text(body, source=source, seq=seq)
    elif kind in ("application/json", ""):
        request = decode_json(body)
        if source and not request.source:
            request.source = source
        if seq is not None and request.seq is None:
            if not request.source:
                raise IngestError(
                    "a sequenced payload needs a source header"
                )
            request.seq = seq
    else:
        raise IngestError(f"unsupported Content-Type {content_type!r}")
    _check_name_lengths(request)
    return _rescale(request, scale)


def _check_name_lengths(request: IngestRequest) -> None:
    """Refuse names the write-ahead journal cannot frame: an accepted
    batch it then failed to journal would be requeued forever."""
    for batch in request.batches:
        for name in (batch.component, batch.metric, *batch.metrics):
            # A name of n characters is at most 4n bytes of UTF-8.
            if len(name) * 4 > MAX_NAME_BYTES and len(name.encode(
                    "utf-8", "surrogatepass")) > MAX_NAME_BYTES:
                raise IngestError(
                    f"name of {len(name)} characters exceeds "
                    f"{MAX_NAME_BYTES} bytes of UTF-8"
                )


class SourceGate:
    """Per-source sequence admission (duplicate/replay suppression).

    Each source carries a monotonically increasing ``seq``; a payload
    whose ``seq`` is at or below the last admitted one is a
    retransmission and must be *acknowledged but not re-published* --
    the remote-write contract that lets senders retry safely.
    Unsequenced payloads (no ``seq``) are always admitted.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._last_seq: dict[str, int] = {}  # guarded-by: _lock
        self.admitted = 0  # guarded-by: _lock
        self.duplicates = 0  # guarded-by: _lock

    def admit(self, source: str, seq: int | None) -> bool:
        """True to publish, False for an already-seen retransmission."""
        with self._lock:
            if seq is None or not source:
                self.admitted += 1
                return True
            last = self._last_seq.get(source)
            if last is not None and seq <= last:
                self.duplicates += 1
                return False
            self._last_seq[source] = seq
            self.admitted += 1
            return True

    def last_seq(self, source: str) -> int | None:
        with self._lock:
            return self._last_seq.get(source)

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "sources": len(self._last_seq),
                "admitted": self.admitted,
                "duplicates": self.duplicates,
            }
