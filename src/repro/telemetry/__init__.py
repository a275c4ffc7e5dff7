"""Zero-overhead-by-default observability for the repro pipeline.

* :mod:`.metrics` -- ``Counter`` / ``Gauge`` / ``Histogram`` primitives
  in a :class:`MetricRegistry`, with a module-level *active* registry
  that defaults to a shared no-op :class:`NullRegistry`;
* :mod:`.tracing` -- :func:`span`, the one way to time a region (its
  timings are ordinary labelled metrics *and* trace records), and the
  :class:`Tracer`: causally linked records sharing one per-run
  ``trace_id`` across processes (fabric queue messages and the query
  service's W3C ``traceparent`` header carry the context);
* :mod:`.flight` / :mod:`.chrome` -- a bounded per-process
  flight-recorder ring dumped atomically on crashes and stalls, and a
  Chrome-trace/Perfetto exporter behind ``python -m repro trace-view``;
* :mod:`.manifest` -- :class:`RunManifest` snapshots of what ran under
  what configuration (dataset, seed, scale, fault digest, git SHA);
* :mod:`.export` -- Prometheus text and JSON-lines exporters, written
  per run into a ``--telemetry DIR`` directory and read back by
  ``python -m repro stats``, and :func:`run_scope`, which every command
  runs inside: it switches telemetry and tracing on, exports on every
  exit path, and restores what it found;
* :mod:`.tap` -- :class:`ReplayTap`, the per-record counters of a pass.

Instrumentation contract: enabling telemetry must never change any
experiment result -- only record what happened.  With telemetry off
(the default) instrumented code pays at most one no-op call per
aggregate update, and hot paths are gated on ``registry().enabled``.
"""

from repro.telemetry.export import (
    JSONL_FILE,
    MANIFEST_FILE,
    PROMETHEUS_FILE,
    jsonl_text,
    load_metrics,
    load_run,
    prometheus_text,
    run_scope,
    write_exports,
)
from repro.telemetry.manifest import (
    RunManifest,
    fault_plan_digest,
    git_sha,
    load_manifest,
)
from repro.telemetry.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    NullRegistry,
    disable,
    enable,
    registry,
    set_registry,
    telemetry_enabled,
)
from repro.telemetry.chrome import (
    chrome_trace,
    load_events,
    summarize,
    write_chrome_trace,
)
from repro.telemetry.flight import (
    DEFAULT_FLIGHT_LIMIT,
    FlightRecorder,
    NullFlightRecorder,
)
from repro.telemetry.tap import ReplayTap
from repro.telemetry.tracing import (
    NullTracer,
    SpanContext,
    Tracer,
    disable_tracing,
    enable_tracing,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    set_tracer,
    span,
    tracer,
    tracing_enabled,
)

__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "NullFlightRecorder",
    "NullRegistry",
    "NullTracer",
    "SpanContext",
    "ReplayTap",
    "RunManifest",
    "Tracer",
    "DEFAULT_FLIGHT_LIMIT",
    "DEFAULT_TIME_BUCKETS",
    "JSONL_FILE",
    "MANIFEST_FILE",
    "PROMETHEUS_FILE",
    "chrome_trace",
    "disable",
    "disable_tracing",
    "enable",
    "enable_tracing",
    "fault_plan_digest",
    "git_sha",
    "jsonl_text",
    "load_events",
    "load_manifest",
    "load_metrics",
    "load_run",
    "new_span_id",
    "new_trace_id",
    "parse_traceparent",
    "prometheus_text",
    "registry",
    "run_scope",
    "set_registry",
    "set_tracer",
    "span",
    "summarize",
    "telemetry_enabled",
    "tracer",
    "tracing_enabled",
    "write_chrome_trace",
    "write_exports",
]
