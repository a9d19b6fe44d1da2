"""Trace contexts, the span recorder, and the bounded trace store.

The model is deliberately small — a trace is a flat list of
:class:`SpanRecord` rows sharing a ``trace_id``; the tree structure is
recovered from ``parent_id`` at render time:

- :class:`SpanContext` is the propagation handle (``trace_id`` +
  ``span_id``).  On the wire it travels as a W3C-traceparent-style
  string (``00-<32 hex>-<16 hex>-01``) in the envelope ``trace`` field.
- :class:`Tracer` records spans against a per-instance
  :class:`contextvars.ContextVar`, so the "current span" follows each
  request even when many requests interleave on one server.  Context
  vars do **not** cross executor threads or processes — callers that
  hop threads re-activate explicitly (:meth:`Tracer.activate`), and a
  request that crossed the gateway's dispatch link carries ingress
  timestamps the worker records as pre-timed spans
  (:meth:`Tracer.record`).
- :class:`TraceStore` is a bounded ring buffer keyed by trace id:
  adding the N+1st trace evicts the least-recently-touched one, so a
  long-lived server holds a sliding window of recent requests.

Timing uses :func:`repro.obs.clock.perf_counter` (high-resolution
monotonic); each span additionally carries a wall-clock *anchor* taken
at span start, used only to label exports.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.errors import ValidationError
from repro.obs import clock

__all__ = [
    "SpanContext",
    "SpanRecord",
    "TraceStore",
    "Tracer",
    "format_traceparent",
    "maybe_span",
    "new_span_id",
    "new_trace_id",
    "parse_traceparent",
    "render_trace",
    "spans_from_jsonl",
    "spans_to_jsonl",
    "summarize_traces",
]

#: W3C trace-context version emitted on the wire.  Only version 00 is
#: accepted back; the format is versioned exactly so unknown futures
#: fail loud instead of mis-parsing.
_TRACEPARENT_VERSION = "00"

#: Sampled flag — every trace we bother to stamp is sampled.
_TRACEPARENT_FLAGS = "01"

_HEX_DIGITS = frozenset("0123456789abcdef")


def new_trace_id() -> str:
    """Return a fresh 128-bit trace id as 32 lowercase hex digits.

    ``os.urandom`` rather than the global ``random`` module: trace ids
    must never consume (or be influenced by) the experiment RNG stream,
    and REP007 bans global-RNG calls outside ``rng.py``.
    """
    return os.urandom(16).hex()


def new_span_id() -> str:
    """Return a fresh 64-bit span id as 16 lowercase hex digits."""
    return os.urandom(8).hex()


def format_traceparent(context: "SpanContext") -> str:
    """Render ``context`` as a traceparent wire string."""
    return (
        f"{_TRACEPARENT_VERSION}-{context.trace_id}"
        f"-{context.span_id}-{_TRACEPARENT_FLAGS}"
    )


def _check_hex(value: str, width: int, what: str) -> str:
    if len(value) != width or not set(value) <= _HEX_DIGITS:
        raise ValidationError(
            f"traceparent {what} must be {width} lowercase hex digits, "
            f"got {value!r}"
        )
    if value == "0" * width:
        raise ValidationError(f"traceparent {what} must be non-zero")
    return value


def parse_traceparent(text: str) -> "SpanContext":
    """Parse a traceparent wire string into a :class:`SpanContext`.

    Raises :class:`~repro.errors.ValidationError` on malformed input.
    Callers on the serving path catch it and start a fresh root trace
    instead — per the W3C spec, an invalid incoming context is
    discarded, never propagated.
    """
    parts = text.split("-")
    if len(parts) != 4:
        raise ValidationError(
            f"traceparent must have 4 '-'-separated fields, got {text!r}"
        )
    version, trace_id, span_id, _flags = parts
    if version != _TRACEPARENT_VERSION:
        raise ValidationError(
            f"unsupported traceparent version {version!r} (expected "
            f"{_TRACEPARENT_VERSION!r})"
        )
    return SpanContext(
        trace_id=_check_hex(trace_id, 32, "trace-id"),
        span_id=_check_hex(span_id, 16, "parent-id"),
    )


@dataclass(frozen=True)
class SpanContext:
    """Propagation handle: which trace, and which span to parent to."""

    trace_id: str
    span_id: str


@dataclass
class SpanRecord:
    """One finished (or in-flight, inside ``Tracer.span``) span.

    ``start``/``end`` are :func:`repro.obs.clock.perf_counter` readings
    — meaningful only as differences within one process.  ``wall`` is a
    wall-clock anchor taken at span start, for labelling exports.
    ``attrs`` values are strings so the JSONL export stays flat.
    """

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start: float
    end: float = 0.0
    wall: float = 0.0
    attrs: dict[str, str] = field(default_factory=dict)

    @property
    def context(self) -> SpanContext:
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "wall": self.wall,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SpanRecord":
        try:
            return cls(
                trace_id=payload["trace_id"],
                span_id=payload["span_id"],
                parent_id=payload.get("parent_id"),
                name=payload["name"],
                start=float(payload["start"]),
                end=float(payload["end"]),
                wall=float(payload.get("wall", 0.0)),
                attrs={
                    str(key): str(value)
                    for key, value in dict(payload.get("attrs") or {}).items()
                },
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed span record: {exc}") from exc


class Tracer:
    """Low-overhead span recorder bound to an optional :class:`TraceStore`.

    One tracer serves the whole server; per-request identity lives in a
    per-instance :class:`~contextvars.ContextVar`, not in the tracer.
    Components hold ``tracer = None`` when tracing is disabled — the
    *presence* of a tracer is the enable flag, so the disabled hot path
    pays a single ``is not None`` check and nothing else.
    """

    def __init__(self, store: "TraceStore | None" = None) -> None:
        self.store = store
        #: Called with each finished SpanRecord; the metrics exporter
        #: hooks this to feed repro_span_duration_seconds{phase=...}.
        self.observer: Callable[[SpanRecord], None] | None = None
        self._current: ContextVar[SpanContext | None] = ContextVar(
            "repro_obs_span", default=None
        )

    def current(self) -> SpanContext | None:
        """The active span context on this thread/task, if any."""
        return self._current.get()

    def activate(self, context: SpanContext | None):
        """Make ``context`` current; returns a token for :meth:`restore`.

        Executor threads are reused across requests, so every activate
        must be paired with a ``try/finally`` restore or contexts leak
        from one request into the next.
        """
        return self._current.set(context)

    def restore(self, token) -> None:
        self._current.reset(token)

    def _finish(self, record: SpanRecord) -> None:
        if self.store is not None:
            self.store.add(record)
        observer = self.observer
        if observer is not None:
            observer(record)

    @contextmanager
    def span(
        self,
        name: str,
        *,
        parent: SpanContext | None = None,
        start: float | None = None,
        attrs: dict[str, str] | None = None,
    ) -> Iterator[SpanRecord]:
        """Record a span around a code block and make it current.

        ``parent`` defaults to the current context; with neither, the
        span roots a brand-new trace.  ``start`` may be supplied to
        back-date the span (e.g. the request span starts at parse time,
        before the tracer was consulted).  The yielded record is
        mutable — callers may set ``attrs`` entries before exit.
        """
        if parent is None:
            parent = self._current.get()
        if parent is None:
            trace_id = new_trace_id()
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        record = SpanRecord(
            trace_id=trace_id,
            span_id=new_span_id(),
            parent_id=parent_id,
            name=name,
            start=clock.perf_counter() if start is None else start,
            wall=clock.wall_clock(),
            attrs=attrs if attrs is not None else {},
        )
        token = self._current.set(record.context)
        try:
            yield record
        finally:
            self._current.reset(token)
            record.end = clock.perf_counter()
            self._finish(record)

    def child_span(
        self, name: str, *, attrs: dict[str, str] | None = None
    ):
        """Like :meth:`span`, but a no-op when no trace is active.

        The guard for optional instrumentation points (broker phases):
        an engine used outside any traced request must not mint stray
        root traces.
        """
        if self._current.get() is None:
            return _NO_SPAN
        return self.span(name, attrs=attrs)

    def record(
        self,
        name: str,
        *,
        parent: SpanContext | None,
        start: float,
        end: float,
        attrs: dict[str, str] | None = None,
    ) -> SpanRecord:
        """Record a pre-timed span without entering a context.

        Used where the timing happened elsewhere: ``parse`` (measured
        before the root span opens), ``queue_wait`` (submit→run gap),
        the gateway → worker ``dispatch`` hop, and a whole warm
        recommend timed with bare clock reads.  ``parent=None`` roots a
        brand-new trace.
        """
        record = SpanRecord(
            trace_id=new_trace_id() if parent is None else parent.trace_id,
            span_id=new_span_id(),
            parent_id=None if parent is None else parent.span_id,
            name=name,
            start=start,
            end=end,
            wall=clock.wall_clock(),
            attrs=attrs if attrs is not None else {},
        )
        self._finish(record)
        return record


#: Shared no-op context manager returned by the disabled paths.
#: nullcontext is reusable and reentrant, so one instance serves all.
_NO_SPAN = nullcontext(None)


def maybe_span(
    tracer: Tracer | None, name: str, *, attrs: dict[str, str] | None = None
):
    """``tracer.child_span`` if tracing is both enabled and active.

    The single-call guard for instrumentation sites: returns a shared
    no-op context manager when ``tracer`` is None (tracing disabled) or
    no span is current (call outside any traced request).
    """
    if tracer is None:
        return _NO_SPAN
    return tracer.child_span(name, attrs=attrs)


class TraceStore:
    """Bounded ring buffer of recent traces, keyed by trace id.

    Adding a span to a new trace beyond ``capacity`` evicts the
    least-recently-touched trace (touch = any span added).  ``dropped``
    counts evictions so operators can tell the window overflowed.
    """

    def __init__(self, capacity: int = 256) -> None:
        self.check_capacity(capacity)
        self.capacity = capacity
        self.dropped = 0
        self._lock = threading.Lock()
        self._traces: OrderedDict[str, list[SpanRecord]] = OrderedDict()

    @staticmethod
    def check_capacity(capacity: int) -> None:
        """Raise what constructing a store of ``capacity`` would raise."""
        if capacity < 1:
            raise ValidationError(
                f"trace store capacity must be >= 1, got {capacity}"
            )

    def add(self, record: SpanRecord) -> None:
        with self._lock:
            spans = self._traces.get(record.trace_id)
            if spans is None:
                while len(self._traces) >= self.capacity:
                    self._traces.popitem(last=False)
                    self.dropped += 1
                self._traces[record.trace_id] = [record]
            else:
                spans.append(record)
                self._traces.move_to_end(record.trace_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def get(self, trace_id: str) -> list[SpanRecord] | None:
        """All spans of one trace (recording order), or None."""
        with self._lock:
            spans = self._traces.get(trace_id)
            return list(spans) if spans is not None else None

    def snapshot(self) -> list[SpanRecord]:
        """Every stored span, oldest trace first."""
        with self._lock:
            return [span for spans in self._traces.values() for span in spans]

    def summaries(
        self, *, min_duration: float = 0.0, limit: int = 50
    ) -> list[dict[str, Any]]:
        """Per-trace summaries, most recent first.

        ``min_duration`` filters on the root span's duration, so `GET
        /v2/traces?min_duration=...` surfaces only slow requests.
        """
        with self._lock:
            traces = [list(spans) for spans in self._traces.values()]
        out: list[dict[str, Any]] = []
        for spans in reversed(traces):
            root = _root_span(spans)
            if root.duration < min_duration:
                continue
            out.append(
                {
                    "trace_id": root.trace_id,
                    "name": root.name,
                    "duration_seconds": root.duration,
                    "spans": len(spans),
                    "wall_start": root.wall,
                }
            )
            if len(out) >= limit:
                break
        return out

    def export_jsonl(self) -> str:
        """Every stored span as JSON lines (one span per line)."""
        return spans_to_jsonl(self.snapshot())


def _root_span(spans: list[SpanRecord]) -> SpanRecord:
    """The trace's root: no parent, or parent never recorded here.

    A server-side trace parented to a client-stamped span id has a
    parent that was never recorded server-side; it renders as the root.
    Ties (shouldn't happen) break toward the earliest start.
    """
    recorded = {span.span_id for span in spans}
    roots = [
        span
        for span in spans
        if span.parent_id is None or span.parent_id not in recorded
    ]
    return min(roots or spans, key=lambda span: span.start)


def spans_to_jsonl(spans: Iterable[SpanRecord]) -> str:
    lines = [
        json.dumps(span.to_dict(), sort_keys=True, separators=(",", ":"))
        for span in spans
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def spans_from_jsonl(text: str) -> list[SpanRecord]:
    spans: list[SpanRecord] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"trace JSONL line {lineno} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise ValidationError(
                f"trace JSONL line {lineno} must be an object"
            )
        spans.append(SpanRecord.from_dict(payload))
    return spans


def summarize_traces(spans: Iterable[SpanRecord]) -> list[dict[str, Any]]:
    """Group loose spans by trace id and summarise each trace.

    The offline twin of :meth:`TraceStore.summaries`, for `repro trace
    --file <export.jsonl>` listings.
    """
    by_trace: OrderedDict[str, list[SpanRecord]] = OrderedDict()
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    out = []
    for trace_spans in by_trace.values():
        root = _root_span(trace_spans)
        out.append(
            {
                "trace_id": root.trace_id,
                "name": root.name,
                "duration_seconds": root.duration,
                "spans": len(trace_spans),
                "wall_start": root.wall,
            }
        )
    return out


def _format_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1000.0:.2f}ms"


def render_trace(spans: Iterable[SpanRecord]) -> str:
    """Render spans (possibly several traces) as indented span trees.

    Spans whose parent was never recorded render as roots — that is the
    normal shape for a server trace parented to a client-stamped span.
    Children sort by start time, so the tree reads chronologically.
    """
    spans = list(spans)
    if not spans:
        return "(no spans)"
    by_trace: OrderedDict[str, list[SpanRecord]] = OrderedDict()
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    blocks: list[str] = []
    for trace_id, trace_spans in by_trace.items():
        recorded = {span.span_id for span in trace_spans}
        children: dict[str | None, list[SpanRecord]] = {}
        roots: list[SpanRecord] = []
        for span in trace_spans:
            if span.parent_id is None or span.parent_id not in recorded:
                roots.append(span)
            else:
                children.setdefault(span.parent_id, []).append(span)
        roots.sort(key=lambda span: span.start)
        root = _root_span(trace_spans)
        lines = [
            f"trace {trace_id}  "
            f"({len(trace_spans)} spans, {_format_duration(root.duration)})"
        ]

        def _walk(span: SpanRecord, prefix: str, tail: bool) -> None:
            connector = "`- " if tail else "|- "
            attrs = "".join(
                f"  {key}={value}" for key, value in sorted(span.attrs.items())
            )
            lines.append(
                f"{prefix}{connector}{span.name:<16} "
                f"{_format_duration(span.duration):>10}{attrs}"
            )
            kids = sorted(
                children.get(span.span_id, ()), key=lambda s: s.start
            )
            child_prefix = prefix + ("   " if tail else "|  ")
            for index, kid in enumerate(kids):
                _walk(kid, child_prefix, index == len(kids) - 1)

        for index, span in enumerate(roots):
            _walk(span, "", index == len(roots) - 1)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
