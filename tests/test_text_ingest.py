"""Series-major text decoding against the per-line oracle.

``decode_text`` groups a Prometheus-text payload into per-series runs;
before that it emitted one single-point batch per line.  The old
decoder lives on here, as the oracle: whatever a payload holds --
series interleaved in any order, late and equal timestamps, comment
and blank lines, label values with spaces and ``=``, extra labels in
any order or spelling, millisecond stamps, an armed resume clip, a
guard left behind by an earlier request -- both decoders must leave
the service's acks, the bus's counters and guards, the rings and the
journal in the same state.

Two things differ by design and are left out of the comparison: the
ack's ``batches`` / the bus's ``batches_published`` (runs, not lines),
and where an automatic flush cuts a request in two when the flush
threshold is smaller than the request (the journal then holds the same
points per key in differently sized records).
"""

import math
import re
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import ingest
from repro.obs.ingest import (
    IngestBatch,
    IngestError,
    IngestRequest,
    decode_payload,
    decode_text,
)
from repro.obs.service import OperationsService
from repro.persistence import IngestJournal
from repro.persistence.journal import replay_journal
from repro.streaming import IngestionBus, WindowStore


# ---------------------------------------------------------------------------
# The oracle: one single-point batch per line (the pre-grouping decoder)


_LINE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<timestamp>\S+))?\s*$"
)

_PAIR_RE = re.compile(
    r'\s*(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*"(?P<value>[^"]*)"\s*'
    r"(?:,|$)"
)


def decode_text_per_line(body: bytes, source: str = "",
                         seq: int | None = None) -> IngestRequest:
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestError(f"payload is not UTF-8: {exc}") from None
    batches = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _LINE_RE.match(line)
        if match is None:
            raise IngestError(f"line {lineno}: invalid sample {line!r}")
        labels = {}
        label_text, position = match.group("labels") or "", 0
        while position < len(label_text):
            pair = _PAIR_RE.match(label_text, position)
            if pair is None:
                raise IngestError(f"invalid label set {label_text!r}")
            labels[pair.group("name")] = pair.group("value")
            position = pair.end()
        component = labels.pop("component", "")
        if not component:
            raise IngestError(f"line {lineno}: missing component label")
        metric = match.group("name")
        if labels:
            rendered = ",".join(
                f'{name}="{labels[name]}"' for name in sorted(labels)
            )
            metric = f"{metric}{{{rendered}}}"
        if match.group("timestamp") is None:
            raise IngestError(f"line {lineno}: missing timestamp")
        try:
            value = float(match.group("value"))
            time = float(match.group("timestamp"))
        except ValueError:
            raise IngestError(f"line {lineno}: invalid number") from None
        if math.isnan(value) or not math.isfinite(time):
            raise IngestError(f"line {lineno}: NaN or non-finite")
        batches.append(IngestBatch(
            component=component, metric=metric,
            times=[time], values=[value],
        ))
    if not batches:
        raise IngestError("payload holds no samples")
    if seq is not None and not source:
        raise IngestError("a sequenced payload needs a source header")
    return IngestRequest(batches=batches, source=source, seq=seq)


# ---------------------------------------------------------------------------
# Grouping


def _shape(request):
    return [(b.component, b.metric, b.times, b.values)
            for b in request.batches]


class TestGrouping:
    def test_scrape_major_body_becomes_one_run_per_series(self):
        lines = [
            f'm{s}{{component="c{s % 3}"}} {s + scrape / 10} {scrape}.5'
            for scrape in range(8) for s in range(6)
        ]
        request = decode_text("\n".join(lines).encode())
        assert len(request.batches) == 6
        assert request.point_count == 48
        assert request.watermark == 7.5
        for s, batch in enumerate(request.batches):
            assert (batch.component, batch.metric) == (f"c{s % 3}",
                                                       f"m{s}")
            assert batch.times == [scrape + 0.5 for scrape in range(8)]
            assert batch.values == [s + scrape / 10
                                    for scrape in range(8)]

    def test_late_sample_closes_the_run_and_stands_alone(self):
        request = decode_text(
            b'cpu{component="a"} 1 10\n'
            b'cpu{component="a"} 2 11\n'
            b'cpu{component="a"} 3 9\n'    # late: own batch
            b'cpu{component="a"} 4 10.5\n'  # still behind 11: own batch
            b'cpu{component="a"} 5 11\n'   # equal to newest: new run
            b'cpu{component="a"} 6 12\n'
        )
        assert _shape(request) == [
            ("a", "cpu", [10.0, 11.0], [1.0, 2.0]),
            ("a", "cpu", [9.0], [3.0]),
            ("a", "cpu", [10.5], [4.0]),
            ("a", "cpu", [11.0, 12.0], [5.0, 6.0]),
        ]
        assert request.watermark == 12.0

    def test_label_spellings_of_one_series_share_a_run(self):
        request = decode_text(
            b'io{component="a b",dev="s=1",mode="r w"} 1 1\n'
            b'io{mode="r w", dev="s=1" ,component="a b"} 2 2\n'
            b'io{ dev = "s=1",component="a b",mode="r w",} 3 3\n'
        )
        assert _shape(request) == [
            ("a b", 'io{dev="s=1",mode="r w"}',
             [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
        ]

    def test_runs_keep_first_appearance_order(self):
        request = decode_text(
            b'x{component="b"} 1 1\n'
            b'x{component="a"} 1 1\n'
            b'x{component="b"} 1 2\n'
        )
        assert [b.component for b in request.batches] == ["b", "a"]


MALFORMED = [
    b'cpu_usage{component="a"} 0.5',        # missing timestamp
    b'cpu_usage 0.5 1.0',                   # missing component
    b'cpu_usage{component="a"} abc 1.0',    # bad value
    b'cpu_usage{component="a"} 0.5 xyz',    # bad timestamp
    b'{component="a"} 0.5 1.0',             # no metric name
    b'cpu{component=a} 0.5 1.0',            # unquoted label
    # a header the memo has already resolved, then no timestamp
    b'cpu{component="a"} 0.5 1.0\ncpu{component="a"} 0.5',
    b'cpu{component="a b"} 0.5',            # spaces in label, no time
    b'cpu{component="a"} 0.5 1.0 2.0',      # one field too many
    b'cpu{component="a"}0.5 1.0',           # no gap after the labels
    b'cpu {component="a"} 0.5 1.0',         # gap before the labels
    b'cpu{component="a"} NaN 1.0',
    b'cpu{component="a"} 0.5 NaN',
    b'cpu{component="a"} 0.5 +Inf',
    b'cpu{component="a"} 0.5 -Infinity',
    b'cpu{component="a"} 0.5 1e400',
    b'cpu{component="a"} 0.5 1.0\nzz{component="b"} 1.0 Infinity',
    b'# only a comment\n\n',
    b'\xff\xfe',
]


@pytest.mark.parametrize("decoder", [decode_text, decode_text_per_line])
@pytest.mark.parametrize("body", MALFORMED)
def test_malformed_payloads_raise_from_both_decoders(decoder, body):
    with pytest.raises(IngestError):
        decoder(body)


@pytest.mark.parametrize("time_unit", [None, "s", "ms"])
@pytest.mark.parametrize("content_type, body", [
    ("text/plain", b'zz{component="b"} 1.0 +Inf\n'),
    ("text/plain", b'zz{component="b"} 1.0 1e999\n'),
    ("application/json",
     b'[{"component":"b","time":Infinity,"metrics":{"zz":1.0}}]'),
    ("application/json",
     b'[{"component":"b","time":-Infinity,"metrics":{"zz":1.0}}]'),
    ("application/json",
     b'[{"component":"b","metric":"zz","times":[1.0,1e999],'
     b'"values":[1.0,2.0]}]'),
])
def test_non_finite_timestamps_are_400(content_type, body, time_unit):
    with pytest.raises(IngestError):
        decode_payload(content_type, body, time_unit=time_unit)


def test_infinite_values_are_still_samples():
    request = decode_text(b'q{component="a"} +Inf 1.0\n')
    assert request.batches[0].values == [math.inf]


# ---------------------------------------------------------------------------
# The property: grouped == per-line, all the way into rings and journal


COMPONENTS = ["a", "b c", "k=v"]
NAMES = ["cpu", "net:rx"]
EXTRA_LABELS = [("dev", "sda"), ("mode", "r w"), ("zone", "x=y,z")]
SERIES = [
    (component, name, extras)
    for component in COMPONENTS
    for name in NAMES
    for extras in ((), EXTRA_LABELS[:1], EXTRA_LABELS)
]


def _key(series) -> tuple[str, str]:
    """The bus key a series decodes to (extras sorted into the name)."""
    component, name, extras = series
    if extras:
        rendered = ",".join(f'{k}="{v}"' for k, v in sorted(extras))
        name = f"{name}{{{rendered}}}"
    return component, name


@st.composite
def _header(draw, series):
    """One spelling of a series header: labels in any order, optional
    blanks around them, optional trailing comma."""
    component, name, extras = series
    labels = draw(st.permutations(
        [("component", component), *extras]))
    gap = draw(st.sampled_from(["", " "]))
    body = f",{gap}".join(
        f'{gap}{label}{gap}={gap}"{value}"' for label, value in labels)
    return f"{name}{{{body}{draw(st.sampled_from(['', ',']))}}}"


@st.composite
def _payload(draw, unit):
    lines = []
    for _ in range(draw(st.integers(1, 30))):
        noise = draw(st.sampled_from([None] * 8 + ["", "  ", "# HELP x"]))
        if noise is not None:
            lines.append(noise)
        header = draw(_header(draw(st.sampled_from(SERIES))))
        time = draw(st.integers(0, 12)) * 0.5
        stamp = repr(time * 1000.0 if unit == "ms" else time)
        value = draw(st.floats(allow_nan=False, width=32))
        pad = draw(st.sampled_from([" ", "  ", "\t"]))
        lines.append(f"{header}{pad}{value!r}{pad}{stamp}")
    end = draw(st.sampled_from(["", "\n", "\r\n"]))
    return ("\n".join(lines) + end).encode()


class _Stack:
    """Service -> bus -> journal + rings, with no analysis behind it."""

    def __init__(self, directory: Path, name: str, flush_threshold: int,
                 clip: dict):
        self.bus = IngestionBus(flush_threshold=flush_threshold)
        self.path = directory / f"{name}.journal"
        self.journal = IngestJournal(self.path)
        self.bus.attach_journal(self.journal)
        self.rings = WindowStore()
        self.bus.subscribe(self.rings)
        if clip:
            self.bus.arm_resume_clip(clip)
        # The wall clock leaves hop scheduling to a poller, so an
        # ingest is decode + gate + publish and nothing else.
        self.service = OperationsService(
            SimpleNamespace(bus=self.bus), clock="wall")

    def post(self, body: bytes, unit: str):
        status, ack, _headers = self.service.handle_ingest(
            "text/plain", body, time_unit=unit)
        self.bus.flush()
        return status, ack

    def ring_contents(self) -> dict:
        out = {}
        for component in self.rings.components:
            for metric in self.rings.metrics_of(component):
                ring = self.rings.series(component, metric)
                out[component, metric] = (ring.times.tolist(),
                                          ring.values.tolist())
        return out

    def journal_by_key(self) -> dict:
        self.journal.close()
        out: dict = {}
        for component, metric, times, values in replay_journal(self.path):
            t, v = out.setdefault((component, metric), ([], []))
            t.extend(times.tolist())
            v.extend(values.tolist())
        return out


@settings(max_examples=150, deadline=None)
@given(data=st.data(),
       unit=st.sampled_from(["s", "ms"]),
       flush_threshold=st.sampled_from([4096, 4096, 5]),
       clip=st.dictionaries(
           st.sampled_from(SERIES).map(_key),
           st.integers(0, 12).map(lambda n: n * 0.5), max_size=4))
def test_grouped_decoding_equals_per_line_publication(
        data, unit, flush_threshold, clip):
    bodies = data.draw(st.lists(_payload(unit), min_size=1, max_size=3))
    with tempfile.TemporaryDirectory() as scratch:
        grouped = _Stack(Path(scratch), "grouped", flush_threshold, clip)
        per_line = _Stack(Path(scratch), "per_line", flush_threshold, clip)
        for body in bodies:
            status, ack = grouped.post(body, unit)
            with mock.patch.object(ingest, "decode_text",
                                   decode_text_per_line):
                oracle_status, oracle_ack = per_line.post(body, unit)
            assert status == oracle_status == 200
            assert ack.pop("batches") <= oracle_ack.pop("batches")
            assert ack == oracle_ack

        differ = {"batches_published"}
        if flush_threshold < 4096:
            differ |= {"flushes", "journaled_batches"}
        stats = grouped.bus.stats.as_dict()
        oracle_stats = per_line.bus.stats.as_dict()
        for name in differ:
            stats.pop(name), oracle_stats.pop(name)
        assert stats == oracle_stats
        assert grouped.bus._high_water == per_line.bus._high_water
        assert grouped.bus._resume_clip == per_line.bus._resume_clip
        assert grouped.ring_contents() == per_line.ring_contents()
        assert grouped.journal_by_key() == per_line.journal_by_key()
        if flush_threshold == 4096:
            assert grouped.journal.records_written \
                == per_line.journal.records_written


def test_stale_head_across_requests_matches_per_line():
    # The guard a first request leaves behind cuts into the *middle*
    # of the second request's run: only the head behind it is late.
    first = b'cpu{component="a"} 1 10\n'
    second = b"".join(
        f'cpu{{component="a"}} {t} {t}\n'.encode() for t in (8, 9, 10, 11))
    with tempfile.TemporaryDirectory() as scratch:
        grouped = _Stack(Path(scratch), "grouped", 4096, {})
        assert grouped.post(first, "s")[1]["accepted"] == 1
        _status, ack = grouped.post(second, "s")
        assert (ack["accepted"], ack["rejected"], ack["batches"]) \
            == (2, 2, 1)
        assert grouped.ring_contents()["a", "cpu"][0] \
            == [10.0, 10.0, 11.0]
        grouped.journal.close()

