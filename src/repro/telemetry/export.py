"""Exporters: Prometheus text format and JSON lines, and the run scope.

Every command runs inside :func:`run_scope`, which owns its
``--telemetry`` / ``--trace`` switches.  One instrumented run exports
three files into its telemetry directory (:func:`write_exports`):

``manifest.json``
    The :class:`~repro.telemetry.manifest.RunManifest` plus a full
    metrics snapshot (machine-readable, one file per run).
``metrics.prom``
    Prometheus text exposition format -- scrape-ready, with histograms
    rendered as cumulative ``_bucket``/``_sum``/``_count`` series.
``metrics.jsonl``
    One JSON object per metric per line (``type`` / ``name`` /
    ``labels`` / values) -- the format ``python -m repro stats`` reads
    back, and the easiest one to post-process with ``jq``.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro.telemetry.manifest import RunManifest, load_manifest
from repro.telemetry.metrics import Histogram, MetricRegistry, set_registry
from repro.telemetry.metrics import registry as _active_registry
from repro.telemetry.tracing import enable_tracing, set_tracer, tracer

MANIFEST_FILE = "manifest.json"
PROMETHEUS_FILE = "metrics.prom"
JSONL_FILE = "metrics.jsonl"


def _format_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(labels, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = tuple(labels) + extra
    if not pairs:
        return ""
    rendered = ",".join(f'{key}="{value}"' for key, value in pairs)
    return "{" + rendered + "}"


def prometheus_text(registry: MetricRegistry) -> str:
    """Render every metric in exposition format."""
    lines: list[str] = []
    seen_types: set[str] = set()

    def type_line(name: str, kind: str, help: str) -> None:
        if name in seen_types:
            return
        seen_types.add(name)
        if help:
            lines.append(f"# HELP {name} {help}")
        lines.append(f"# TYPE {name} {kind}")

    for metric in registry.collect():
        if isinstance(metric, Histogram):
            type_line(metric.name, "histogram", metric.help)
            cumulative = 0
            for bound, count in zip(metric.bounds, metric.bucket_counts):
                cumulative += count
                labels = _format_labels(metric.labels, (("le", f"{bound:g}"),))
                lines.append(f"{metric.name}_bucket{labels} {cumulative}")
            labels = _format_labels(metric.labels, (("le", "+Inf"),))
            lines.append(f"{metric.name}_bucket{labels} {metric.count}")
            lines.append(
                f"{metric.name}_sum{_format_labels(metric.labels)} "
                f"{_format_value(metric.sum)}"
            )
            lines.append(
                f"{metric.name}_count{_format_labels(metric.labels)} "
                f"{metric.count}"
            )
        else:
            type_line(metric.name, metric.kind, metric.help)
            lines.append(
                f"{metric.name}{_format_labels(metric.labels)} "
                f"{_format_value(metric.value)}"
            )
    return "\n".join(lines) + "\n"


def jsonl_records(registry: MetricRegistry) -> Iterator[dict]:
    """Every metric as one plain dict (JSONL payloads)."""
    for metric in registry.collect():
        record = {
            "type": metric.kind,
            "name": metric.name,
            "labels": dict(metric.labels),
        }
        if isinstance(metric, Histogram):
            record.update(
                bounds=list(metric.bounds),
                bucket_counts=list(metric.bucket_counts),
                overflow=metric.overflow,
                sum=metric.sum,
                count=metric.count,
                mean=metric.mean,
            )
        else:
            record["value"] = metric.value
        yield record


def jsonl_text(registry: MetricRegistry) -> str:
    return "".join(
        json.dumps(record, sort_keys=True) + "\n"
        for record in jsonl_records(registry)
    )


def write_exports(
    directory: str | Path,
    registry: MetricRegistry,
    manifest: RunManifest | None = None,
) -> list[Path]:
    """Write the run's manifest + Prometheus + JSONL files; return paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if manifest is not None:
        written.append(
            manifest.write(directory / MANIFEST_FILE, metrics=registry.snapshot())
        )
    prom = directory / PROMETHEUS_FILE
    prom.write_text(prometheus_text(registry), encoding="utf-8")
    written.append(prom)
    jsonl = directory / JSONL_FILE
    jsonl.write_text(jsonl_text(registry), encoding="utf-8")
    written.append(jsonl)
    return written


@contextmanager
def run_scope(
    command: str,
    telemetry: str | Path | None = None,
    trace: str | Path | None = None,
    *,
    process: str = "main",
    **manifest_fields,
) -> Iterator[dict]:
    """One command's observability, set up and torn down in one place.

    *telemetry* (``--telemetry DIR``) installs a fresh metric registry
    and *trace* (``--trace DIR``) a tracer writing as *process*.  The
    body may fill in the yielded manifest fields (``dataset``, ``seed``,
    ``scale``, ``faults``, ``arguments``), e.g. whether a run resumed.
    On every exit -- return, interrupt or error -- the tracer is closed
    and announced, the manifest and exports are written, and the
    registry and tracer found on entry are active again.
    """
    found_registry, found_tracer = _active_registry(), tracer()
    installed = enable_tracing(trace, process=process) if trace else None
    if telemetry:
        set_registry(MetricRegistry())
    try:
        yield manifest_fields
    finally:
        if installed is not None:
            installed.close()
            print(
                f"trace: events in {trace}; view with "
                f"python -m repro trace-view {trace}",
                file=sys.stderr,
            )
        try:
            if telemetry:
                written = write_exports(
                    telemetry,
                    _active_registry(),
                    RunManifest.collect(command=command, **manifest_fields),
                )
                print(
                    "telemetry: wrote "
                    + ", ".join(str(path) for path in written),
                    file=sys.stderr,
                )
        finally:
            set_registry(found_registry)
            set_tracer(found_tracer)


def load_metrics(directory: str | Path) -> list[dict]:
    """Read back ``metrics.jsonl`` from a telemetry directory."""
    path = Path(directory) / JSONL_FILE
    records: list[dict] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except ValueError:
                    continue
    except OSError:
        return []
    return records


def load_run(directory: str | Path) -> tuple[dict | None, list[dict]]:
    """(manifest payload, metric records) for a telemetry directory."""
    directory = Path(directory)
    return load_manifest(directory / MANIFEST_FILE), load_metrics(directory)
