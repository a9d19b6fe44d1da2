"""Observability: tracing, structured logging, latency attribution.

The serving stack's window into *where a request's time went*.  The
package splits into small leaf modules so the hot paths can import
exactly what they need:

- :mod:`repro.obs.clock` — the single sanctioned time source.  Every
  duration measurement in the package routes through it (the REP007
  lint rule bans ad-hoc ``time.time()``/``time.monotonic()`` reads
  everywhere else).
- :mod:`repro.obs.trace` — trace contexts (W3C-traceparent-style wire
  field), the :class:`~repro.obs.trace.Tracer` span recorder, the
  bounded ring-buffer :class:`~repro.obs.trace.TraceStore`, JSONL
  export and span-tree rendering.
- :mod:`repro.obs.logging` — structured JSON logging with trace-id
  correlation and the slow-request log helper.

Tracing is **zero-cost when disabled**: components hold ``tracer =
None`` and guard every recording site with a single ``is not None``
check, so the disabled path costs one attribute load — results are
byte-identical either way.
"""

from repro.obs.trace import (
    SpanContext,
    SpanRecord,
    TraceStore,
    Tracer,
    format_traceparent,
    maybe_span,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    render_trace,
    spans_from_jsonl,
    spans_to_jsonl,
    summarize_traces,
)

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
