"""Timed spans and distributed event tracing, free when disabled.

:func:`span` is the one way the code base times a region.  A span reads
the clocks once and on exit feeds whichever sinks are enabled: the
metric registry (a ``repro_span_seconds{span=<path>}`` histogram and a
``repro_span_cpu_seconds_total{span=<path>}`` counter, where the path
is the ``/``-joined names of the spans open on this thread, plus a
``process`` label when the registry names one) and the tracer (one
``kind: "span"`` record).  With both off it is a shared null object.

The tracer gives every run a single ``trace_id`` and lets each process
emit causally linked records into an append-only JSONL file
(``trace-events-<process>.jsonl``) under one shared trace directory.
Causality crosses process boundaries two ways:

* **Fabric queues** -- the supervisor appends its current
  ``(trace_id, span_id)`` pair to every in-band queue message, and the
  shard worker uses it as the ``parent`` of the records it emits while
  handling that message.  A failover therefore shows up as one causal
  chain: death detection (supervisor) -> restore span (supervisor) ->
  ``worker.start`` (replacement incarnation) -> gap-replay batches.
* **HTTP** -- the query service accepts a W3C ``traceparent`` request
  header (``00-<32 hex>-<16 hex>-01``) and parents its per-request
  span on the caller's span.

Two emission tiers keep hot paths cheap: :meth:`Tracer.event` is
*durable* (ring buffer + JSONL line + flush) and is reserved for
low-rate lifecycle/barrier moments; :meth:`Tracer.note` touches only
the in-memory flight-recorder ring and is safe per batch.  A span is
durable unless its site sets ``durable = False`` on it, which every
per-batch site must.  When tracing is off the module-level singleton
is a shared :class:`NullTracer` whose methods are constant no-ops --
the same contract (byte-identical reports, <2% overhead) the metric
registry makes.

The tracer is shared between an ingest thread and the asyncio serving
thread in ``repro serve``; the stack of open spans is therefore
thread-local and file writes take a lock.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.telemetry.flight import FlightRecorder, NullFlightRecorder
from repro.telemetry.metrics import registry

#: Per-process event files are named ``trace-events-<process>.jsonl``.
EVENTS_PREFIX = "trace-events-"

_HEX = set("0123456789abcdef")


def new_trace_id() -> str:
    """A fresh 128-bit trace id (32 lowercase hex chars)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 64-bit span id (16 lowercase hex chars)."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class SpanContext:
    """An addressable point in a trace: ``(trace_id, span_id)``."""

    trace_id: str
    span_id: str

    def to_traceparent(self) -> str:
        """Serialize as a W3C ``traceparent`` header value."""
        return f"00-{self.trace_id}-{self.span_id}-01"


def parse_traceparent(header: str | None) -> SpanContext | None:
    """Parse a W3C ``traceparent`` header; ``None`` when malformed.

    Only version-00 headers are understood; the all-zero trace id is
    rejected per the spec.
    """
    if not header:
        return None
    parts = header.strip().lower().split("-")
    if len(parts) != 4 or parts[0] != "00":
        return None
    trace_id, span_id = parts[1], parts[2]
    if len(trace_id) != 32 or len(span_id) != 16:
        return None
    if not (set(trace_id) <= _HEX and set(span_id) <= _HEX):
        return None
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return SpanContext(trace_id, span_id)


def _parent_ids(parent) -> tuple[str | None, str | None]:
    """Normalize a parent argument to ``(trace_id_or_None, span_id)``.

    Accepts a :class:`SpanContext`, a ``(trace_id, span_id)`` tuple
    (the wire form carried on fabric queue messages), or a bare span-id
    string from the local process.
    """
    if parent is None:
        return None, None
    if isinstance(parent, SpanContext):
        return parent.trace_id, parent.span_id
    if isinstance(parent, tuple) and len(parent) == 2:
        return parent[0], parent[1]
    if isinstance(parent, str):
        return None, parent
    return None, None


_local = threading.local()


def _open_spans() -> list["Span"]:
    """The calling thread's open spans, innermost last."""
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


# A forked child starts outside every span its parent had open.
os.register_at_fork(after_in_child=lambda: _open_spans().clear())


class Span:
    """One timed region, recorded once on exit (see :func:`span`).

    ``fields`` and ``durable`` are mutable while the span is open, so a
    call site can attach results discovered mid-span (record counts,
    status codes) or demote a per-batch span to the ring-only tier.
    """

    __slots__ = (
        "name", "path", "span_id", "fields", "durable",
        "_registry", "_tracer", "_parent", "_ts", "_wall0", "_cpu0",
    )

    def __init__(self, reg, trc, name: str, parent, fields: dict) -> None:
        self.name = self.path = name
        self.span_id = new_span_id() if trc.enabled else ""
        self.fields = fields
        self.durable = True
        self._registry = reg
        self._tracer = trc
        self._parent = parent

    def __enter__(self) -> "Span":
        stack = _open_spans()
        if stack:
            outer = stack[-1]
            self.path = f"{outer.path}/{self.name}"
            if self._parent is None:
                self._parent = outer.span_id or None
        stack.append(self)
        self._ts = time.time()
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        stack = _open_spans()
        if stack and stack[-1] is self:
            stack.pop()
        reg = self._registry
        if reg.enabled:
            labels = {"span": self.path}
            if reg.process is not None:
                labels["process"] = reg.process
            reg.histogram(
                "repro_span_seconds",
                "Wall time spent inside each span path.",
                **labels,
            ).observe(wall)
            reg.counter(
                "repro_span_cpu_seconds_total",
                "CPU time spent inside each span path.",
                **labels,
            ).inc(cpu)
        trc = self._tracer
        if trc.enabled:
            if exc_type is not None:
                self.fields.setdefault("error", exc_type.__name__)
            trc._emit(
                kind="span",
                name=self.name,
                span_id=self.span_id,
                parent=self._parent,
                ts=self._ts,
                dur=wall,
                fields=self.fields,
                durable=self.durable,
            )


class _NullSpan:
    """The shared do-nothing span; it absorbs what a site sets on it."""

    name = path = span_id = ""
    fields: dict = {}
    durable = True

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


def span(name: str, *, parent=None, **fields) -> Span | _NullSpan:
    """Time a region: ``with span("replay"): ...``.

    Spans nest per thread; *parent* (a :class:`SpanContext`, a wire
    ``(trace_id, span_id)`` pair or a local span id) overrides the
    enclosing span as the trace parent.  A no-op when both the metric
    registry and the tracer are off.
    """
    reg = registry()
    trc = _active
    if reg.enabled or trc.enabled:
        return Span(reg, trc, name, parent, fields)
    return _NULL_SPAN


class Tracer:
    """A per-process emitter of causally linked trace events."""

    enabled = True

    def __init__(
        self,
        directory: str | Path,
        *,
        trace_id: str | None = None,
        process: str = "main",
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.trace_id = trace_id or new_trace_id()
        self.process = process
        self.pid = os.getpid()
        # Every record a process emits parents, by default, on this
        # root span, so "who started this process" is always answerable.
        self.root_id = new_span_id()
        self.flight = FlightRecorder(process=process)
        self._lock = threading.Lock()
        self._file = open(
            self.directory / f"{EVENTS_PREFIX}{process}.jsonl",
            "a",
            encoding="utf-8",
        )
        self._closed = False
        self.event("process.start", span=self.root_id)

    def current_ids(self) -> tuple[str, str]:
        """The ``(trace_id, span_id)`` wire context to attach to messages."""
        stack = _open_spans()
        return (
            self.trace_id,
            (stack[-1].span_id if stack else "") or self.root_id,
        )

    # -- emission --

    def _emit(
        self,
        *,
        kind: str,
        name: str,
        parent,
        ts: float,
        fields: dict,
        span_id: str | None = None,
        dur: float | None = None,
        durable: bool = False,
    ) -> None:
        parent_trace, parent_span = _parent_ids(parent)
        if parent_span is None:
            parent_span = self.root_id
        record = {
            "ts": ts,
            "kind": kind,
            "name": name,
            "trace": self.trace_id,
            "parent": parent_span,
            "process": self.process,
            "pid": self.pid,
        }
        if span_id is not None:
            record["span"] = span_id
        if dur is not None:
            record["dur"] = dur
        if parent_trace is not None and parent_trace != self.trace_id:
            record["link_trace"] = parent_trace
        if fields:
            record["fields"] = fields
        self.flight.record(record)
        if durable and not self._closed:
            line = json.dumps(record, separators=(",", ":"))
            with self._lock:
                if not self._closed:
                    self._file.write(line + "\n")
                    self._file.flush()

    def event(self, name: str, *, parent=None, span: str | None = None, **fields) -> None:
        """A durable point event (ring + JSONL + flush). Low-rate only."""
        self._emit(
            kind="event",
            name=name,
            span_id=span,
            parent=parent,
            ts=time.time(),
            fields=fields,
            durable=True,
        )

    def note(self, name: str, *, parent=None, **fields) -> None:
        """A ring-only event: cheap enough for per-batch call sites."""
        self._emit(
            kind="event",
            name=name,
            parent=parent,
            ts=time.time(),
            fields=fields,
            durable=False,
        )

    def dump_flight(self, key: str, reason: str) -> Path | None:
        """Dump the flight ring to the trace directory (once per key)."""
        return self.flight.dump(self.directory, key, reason)

    def flush(self) -> None:
        """Flush the event file (call before forking a child)."""
        with self._lock:
            if not self._closed:
                self._file.flush()

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self._file.flush()
                self._file.close()


class NullTracer:
    """Shared no-op tracer active when tracing is off.

    Mirrors the :class:`Tracer` surface with constant-cost methods so
    call sites can run unconditionally cheap checks (``tracer().enabled``)
    or even skip the check for rare events.
    """

    enabled = False
    trace_id = ""
    process = "null"
    root_id = ""
    directory = None
    flight = NullFlightRecorder()

    def current_ids(self) -> None:
        return None

    def event(self, name: str, *, parent=None, span=None, **fields) -> None:
        pass

    def note(self, name: str, *, parent=None, **fields) -> None:
        pass

    def dump_flight(self, key: str, reason: str) -> None:
        return None

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


_NULL_TRACER = NullTracer()
_active: Tracer | NullTracer = _NULL_TRACER


def tracer() -> Tracer | NullTracer:
    """The process-wide active tracer (the shared null one by default)."""
    return _active


def set_tracer(instance: Tracer | NullTracer | None) -> Tracer | NullTracer:
    """Install *instance* (``None`` -> the null tracer); returns it.

    Forked fabric workers call this first thing: the child inherits the
    parent's tracer object, whose file handle it must not write.
    """
    global _active
    _active = instance if instance is not None else _NULL_TRACER
    return _active


def enable_tracing(
    directory: str | Path,
    *,
    process: str = "main",
    trace_id: str | None = None,
) -> Tracer:
    """Create and install a real tracer writing under *directory*."""
    return set_tracer(Tracer(directory, trace_id=trace_id, process=process))


def disable_tracing() -> None:
    """Close the active tracer (if real) and restore the null tracer."""
    global _active
    if _active is not _NULL_TRACER:
        _active.close()
    _active = _NULL_TRACER


def tracing_enabled() -> bool:
    return _active.enabled
