"""Command-line interface: ``python -m repro <command>``.

Operational entry points over the library:

``datasets``
    Print the dataset registry (the paper's Table 1).
``survey DATASET``
    Build a dataset, run both discovery methods, print the overlap
    summary -- the quickstart as a command.
``stream DATASET``
    Run the online streaming discovery engine: sharded ingestion with
    periodic completeness watermarks, checkpoint/resume, and a final
    report byte-identical to ``survey`` on the same configuration.
``serve DATASET``
    Run streaming ingest under a live HTTP/JSON query service:
    ``GET /host/{addr}``, ``/services``, ``/liveness/{addr}``,
    ``/watermarks``, ``/healthz``, ``/metricsz`` answer from immutable
    published snapshots while ingest continues.
``checkpoint prune DIR``
    Drop old checkpoint generations from a checkpoint store, keeping
    the newest ``--keep N``.
``record DATASET OUT``
    Record a dataset's border traffic to a binary trace file,
    optionally anonymised.
``trace-stats FILE``
    Summarise a recorded trace (record counts, protocol mix, top
    campus responders).
``trace convert SRC DST``
    Rewrite a trace in the current (v2, columnar) format -- how a v1
    recording from an older version is brought forward; the record
    sequence is preserved exactly.
``cache``
    Show the record-once trace cache (location, entries, sizes, and the
    persistent hit/miss counters); ``--clear`` empties it.
``degradation``
    Sweep seeded capture-loss/outage fault plans against passive and
    active completeness (see :mod:`repro.experiments.degradation`).
``online_probing``
    Compare heartbeat and periodic online probing against the passive
    stream across probe budgets: completeness and evidence freshness
    per policy (see :mod:`repro.experiments.online_probing`).
``stats DIR``
    Read back a ``--telemetry DIR`` export: run manifest, counters and
    gauges, histograms, and span timings.  ``--require NAME...`` exits
    non-zero unless every named metric is present and non-zero (the CI
    smoke check).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.core.report import (
    TextTable,
    count_rows,
    format_count,
    format_count_pct,
    format_percent,
)


class UsageError(ValueError):
    """An argument a command cannot run with: a flag value its config
    rejects, or an unreadable input file.  :func:`main` reports it the
    way argparse reports a bad flag: one ``error:`` line, exit status 2.
    """


def _configured(factory, **fields):
    """``factory(**fields)``, a rejected value being a bad flag."""
    try:
        return factory(**fields)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# ---- declarations shared by every parser that has them ----------------


def add_dataset_arguments(
    parser: argparse.ArgumentParser,
    *,
    scale: float = 0.1,
    default: str | None = None,
    dataset: bool = True,
) -> None:
    """The ``dataset`` positional (optional when it has a *default*) and
    its ``--scale`` / ``--seed``; the runner takes only the two flags."""
    if dataset:
        parser.add_argument(
            "dataset", nargs="?" if default else None, default=default
        )
    parser.add_argument("--scale", type=float, default=scale)
    parser.add_argument("--seed", type=int, default=0)


def add_telemetry_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="collect metrics/spans and export a run manifest, "
             "Prometheus text and JSONL into DIR when the command exits "
             "(read back with `python -m repro stats DIR`)",
    )


def add_out_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None,
                        help="also write the report to this file")


def print_report(args: argparse.Namespace, report: str) -> None:
    """Print *report*, and write it to ``--out`` when one was given."""
    print(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        print(f"wrote {args.out}", file=sys.stderr)


# ---- commands ----------------------------------------------------------


def cmd_datasets(_args: argparse.Namespace) -> int:
    from repro.datasets.registry import dataset_table_rows

    table = TextTable(
        title="Datasets (paper Table 1)",
        headers=["Name", "Start", "Passive", "Scans", "Services",
                 "Addresses", "Section"],
    )
    for row in dataset_table_rows():
        table.add_row(*row)
    print(table.render())
    return 0


def _discovery_gauges(table, active=None) -> None:
    """The discovery-size gauges ``survey`` and ``stream`` export."""
    from repro.telemetry import registry

    reg = registry()
    if not reg.enabled:
        return
    reg.gauge(
        "repro_passive_services_inferred",
        "Service endpoints the passive table discovered.",
    ).set(len(table.endpoints()))
    reg.gauge(
        "repro_passive_server_addresses",
        "Addresses with at least one passively discovered service.",
    ).set(len(table.server_addresses()))
    if active is not None:
        reg.gauge(
            "repro_active_open_addresses",
            "Addresses with an open port in any active sweep.",
        ).set(len(active))


def cmd_survey(args: argparse.Namespace) -> int:
    from repro.core.completeness import summarize_overlap
    from repro.core.report import survey_table
    from repro.datasets import build_dataset
    from repro.passive.monitor import PassiveServiceTable
    from repro.telemetry import run_scope, span

    with run_scope(
        "survey", args.telemetry,
        dataset=args.dataset, seed=args.seed, scale=args.scale,
    ):
        with span("survey"):
            with span("build"):
                dataset = build_dataset(
                    args.dataset, seed=args.seed, scale=args.scale
                )
            table = PassiveServiceTable(
                is_campus=dataset.is_campus,
                tcp_ports=dataset.tcp_ports,
                udp_ports=dataset.udp_ports,
            )
            with span("replay"):
                records = dataset.replay(table)
            with span("analyze"):
                active = dataset.active_addresses()
                summary = summarize_overlap(table.server_addresses(), active)
        report = survey_table(
            args.dataset, args.scale, args.seed,
            records, len(dataset.scan_reports), summary,
        )
        print(report.render())
        _discovery_gauges(table, active)
    return 0


def _fabric_config(args: argparse.Namespace, worker_faults=None):
    """The worker fabric's config for ``stream`` and ``serve`` (with
    ``stream``'s chaos plan, if any), or ``None`` for in-process shards
    (no ``--workers``).  Its supervision timings are constants."""
    if args.workers is None:
        return None
    from repro.stream import FabricConfig

    return FabricConfig(worker_faults=worker_faults)


def _stream_config(args: argparse.Namespace, **extra):
    """The ``StreamConfig`` a ``stream`` or ``serve`` invocation runs.

    Reads the flags :func:`_add_stream_arguments` declares; *extra*
    carries what only ``serve`` has (``snapshot_every``).  ``--resume``
    and ``--out`` are ``stream``'s alone, hence the ``getattr``.  A
    value the config (or its fault plan) rejects is a
    :class:`UsageError`.
    """
    from repro.simkernel.clock import hours
    from repro.stream import StreamConfig

    plan = None
    if args.loss_rate or args.burst_loss_rate or args.outage_fraction:
        from repro.faults.plan import FaultPlan

        plan = _configured(
            FaultPlan,
            seed=args.fault_seed,
            capture_loss_rate=args.loss_rate,
            burst_loss_rate=args.burst_loss_rate,
            outage_fraction=args.outage_fraction,
            outage_count=args.outage_count,
        )
    checkpoint = args.checkpoint
    if checkpoint is None and (
        args.checkpoint_every is not None or getattr(args, "resume", False)
    ):
        base = getattr(args, "out", None) or f"{args.dataset}-stream"
        checkpoint = f"{base}.checkpoint"
    return _configured(
        StreamConfig,
        dataset=args.dataset,
        seed=args.seed,
        scale=args.scale,
        shards=args.workers if args.workers is not None else args.shards,
        batch_records=args.batch_records,
        emit_every=hours(args.emit_every) if args.emit_every else None,
        checkpoint_every=(
            hours(args.checkpoint_every) if args.checkpoint_every else None
        ),
        checkpoint_path=checkpoint,
        faults=plan,
        probe_policy=args.probe_policy,
        probe_rate=args.probe_rate,
        probe_ports=tuple(args.probe_ports) if args.probe_ports else None,
        **extra,
    )


def _worker_fault_plan(args: argparse.Namespace):
    """``stream``'s seeded worker chaos, or ``None`` when it asks none."""
    if not (args.worker_crash_rate or args.worker_stall_rate):
        return None
    from repro.faults.worker import WorkerFaultPlan

    return _configured(
        WorkerFaultPlan,
        seed=args.worker_fault_seed,
        crash_rate=args.worker_crash_rate,
        stall_rate=args.worker_stall_rate,
    )


def cmd_stream(args: argparse.Namespace) -> int:
    import signal

    from repro.stream import (
        FabricDegradedError,
        FabricSupervisor,
        ShardCheckpointStore,
        StreamEngine,
    )
    from repro.telemetry import run_scope

    config = _stream_config(args)
    fabric = _fabric_config(args, _worker_fault_plan(args))
    checkpoint = config.checkpoint_path
    if args.resume and checkpoint:
        if ShardCheckpointStore(checkpoint).generations():
            print(f"resuming: {checkpoint}", file=sys.stderr)

    engine = None

    def _stop(signum, frame):  # pragma: no cover - exercised via subprocess
        # The run loop interrupts itself at its next batch boundary;
        # before it exists there is nothing to save, so unwind now.
        if engine is None:
            raise KeyboardInterrupt
        engine.request_stop()

    with run_scope(
        "stream", args.telemetry, args.trace,
        process="engine" if fabric is None else "supervisor",
        dataset=args.dataset, seed=args.seed, scale=args.scale,
        faults=config.faults,
        arguments={
            "shards": config.shards,
            "fabric": fabric is not None,
            "emit_every_hours": args.emit_every,
            "checkpoint_every_hours": args.checkpoint_every,
        },
    ) as manifest:
        previous = {
            signum: signal.signal(signum, _stop)
            for signum in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            # Without --emit-every the only watermark is the final one,
            # which would just duplicate the report line; stay quiet then.
            progress = (
                (lambda watermark: print(watermark.render()))
                if args.emit_every else None
            )
            if fabric is not None:
                supervisor = FabricSupervisor(config, fabric)
                engine = supervisor.engine
                try:
                    result = supervisor.run(
                        resume=args.resume,
                        progress=progress,
                        on_event=lambda line: print(line, file=sys.stderr),
                    )
                except FabricDegradedError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 3
            else:
                engine = StreamEngine(config)
                result = engine.run(resume=args.resume, progress=progress)
        except KeyboardInterrupt as exc:
            # The run loop attaches what its shard transport left behind.
            print(f"interrupted; {str(exc) or 'the stream had not started'}",
                  file=sys.stderr)
            return 130
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
        manifest["arguments"]["resumed"] = result.resumed
        _discovery_gauges(result.table)
        print_report(args, result.report)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.query.serve import run_serve
    from repro.simkernel.clock import hours
    from repro.telemetry import run_scope

    config = _stream_config(args, snapshot_every=hours(args.snapshot_every))
    fabric = _fabric_config(args)
    with run_scope(
        "serve", args.telemetry, args.trace,
        process="engine" if fabric is None else "supervisor",
        dataset=config.dataset, seed=config.seed, scale=config.scale,
        faults=config.faults,
    ):
        return run_serve(config, host=args.host, port=args.port, fabric=fabric)


def cmd_checkpoint_prune(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.stream import ShardCheckpointStore

    if args.keep < 1:
        # Keeping zero generations would leave nothing to resume from.
        raise UsageError(
            f"--keep must be >= 1 (got {args.keep}); a prune always "
            f"retains the newest committed generation"
        )
    root = Path(args.directory)
    if not root.is_dir():
        print(f"checkpoint store {root} does not exist", file=sys.stderr)
        return 1
    store = ShardCheckpointStore(root, keep_generations=args.keep)
    generations = store.generations()
    if not generations:
        print(f"no committed generations under {root}; nothing to prune")
        return 0
    before = {entry.name for entry in root.iterdir()}
    store.prune(generations[0])
    removed = sorted(before - {entry.name for entry in root.iterdir()})
    kept = store.generations()
    print(
        f"kept {len(kept)} generation(s) (newest {kept[0]}), "
        f"removed {len(removed)} file(s)"
    )
    for name in removed:
        print(f"  removed {name}")
    return 0


def cmd_record(args: argparse.Namespace) -> int:
    from repro.datasets import build_dataset
    from repro.simkernel.clock import days
    from repro.trace.anonymize import Anonymizer
    from repro.trace.columnar import ColumnarTraceWriter

    dataset = build_dataset(args.dataset, seed=args.seed, scale=args.scale)
    end = days(args.days) if args.days is not None else None
    anonymizer = (
        Anonymizer(key=args.anonymize_key)
        if args.anonymize_key is not None
        else None
    )
    with ColumnarTraceWriter.open(args.out) as writer:
        for columns in dataset.column_batches(end):
            if anonymizer is not None:
                columns = anonymizer.anonymize_columns(columns)
            writer.write_columns(columns)
        count = writer.records_written
    suffix = " (anonymised)" if anonymizer else ""
    print(f"wrote {count:,} records to {args.out}{suffix}")
    return 0


def _trace_file_error(path: str, exc: Exception) -> UsageError:
    """An unreadable trace file, as a ``<file>: <reason>`` usage error."""
    if isinstance(exc, OSError) and exc.strerror:
        return UsageError(f"{exc.filename or path}: {exc.strerror}")
    return UsageError(f"{path}: {exc}")


def cmd_trace_convert(args: argparse.Namespace) -> int:
    from repro.trace.columnar import (
        DEFAULT_CHUNK_RECORDS,
        TRACE_FORMAT_VERSION,
        convert_trace,
        trace_version,
    )

    chunk_records = (
        args.chunk_records
        if args.chunk_records is not None
        else DEFAULT_CHUNK_RECORDS
    )
    try:
        source_version = trace_version(args.source)
        count = convert_trace(
            args.source, args.destination, chunk_records=chunk_records
        )
    except (OSError, ValueError) as exc:
        raise _trace_file_error(args.source, exc) from None
    print(
        f"converted {count:,} records: {args.source} (v{source_version}) "
        f"-> {args.destination} (v{TRACE_FORMAT_VERSION})"
    )
    return 0


def cmd_trace_stats(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.net.addr import format_ipv4, parse_cidr
    from repro.net.packet import PROTO_ICMP, PROTO_TCP, PROTO_UDP
    from repro.trace.columnar import read_trace_columns

    network, prefix = parse_cidr(args.campus)
    mask = ~((1 << (32 - prefix)) - 1) & 0xFFFFFFFF
    proto_names = {PROTO_TCP: "tcp", PROTO_UDP: "udp", PROTO_ICMP: "icmp"}
    proto_labels = [proto_names.get(value, str(value)) for value in range(256)]
    protocols: dict[str, int] = {}
    flags: dict[str, int] = {}
    links: dict[str, int] = {}
    synack_sources = [np.zeros(0, dtype=np.uint32)]
    first, last, total = float("inf"), float("-inf"), 0

    def tally(counts: dict[str, int], labels, column) -> None:
        bins = np.bincount(column, minlength=len(labels)).tolist()
        for label, count in zip(labels, bins):
            if count:
                counts[label] = counts.get(label, 0) + count

    # The decoder raises where it finds the damage, which for a truncated
    # body is mid-pass: nothing is printed until the whole file has read.
    try:
        for cols in read_trace_columns(args.file):
            total += len(cols)
            first = min(first, float(cols.time.min()))
            last = max(last, float(cols.time.max()))
            tally(protocols, proto_labels, cols.proto)
            tally(links, [name or "unknown" for name in cols.link_names], cols.link)
            tcp = cols.proto == PROTO_TCP
            bits = cols.flags[tcp]
            synack = (bits & 0x12) == 0x12
            # First match wins, so a SYN here has ACK clear (``is_syn``).
            kind = np.select(
                [synack, (bits & 0x02) != 0, (bits & 0x04) != 0], [0, 1, 2], 3
            )
            tally(flags, ("syn-ack", "syn", "rst", "other"), kind)
            sources = cols.src[tcp][synack]
            synack_sources.append(sources[(sources & mask) == network])
    except (OSError, ValueError) as exc:
        raise _trace_file_error(args.file, exc) from None
    addresses, counts = np.unique(
        np.concatenate(synack_sources), return_counts=True
    )
    responders = dict(zip(addresses.tolist(), counts.tolist()))
    table = TextTable(
        title=f"Trace {args.file}: {total:,} records",
        headers=["Measure", "Value"],
    )
    if total:
        table.add_row("time span", f"{first:.1f}s .. {last:.1f}s "
                                   f"({(last - first) / 3600:.1f} h)")
    for label, cell in count_rows(protocols, label_prefix="protocol "):
        table.add_row(label, cell)
    for label, cell in count_rows(flags, label_prefix="tcp "):
        table.add_row(label, cell)
    for label, cell in count_rows(links, label_prefix="link "):
        table.add_row(label, cell)
    print(table.render())
    if responders:
        top = TextTable(
            title="Top campus responders (SYN-ACK senders)",
            headers=["Address", "SYN-ACKs"],
        )
        ranked = sorted(responders.items(), key=lambda item: (-item[1], item[0]))
        for address, count in ranked[: args.top]:
            top.add_row(format_ipv4(address), format_count(count))
        print()
        print(top.render())
    return 0


def cmd_trace_view(args: argparse.Namespace) -> int:
    from repro.telemetry import load_events, summarize, write_chrome_trace

    events = load_events(args.directory)
    if not events:
        print(f"no trace events under {args.directory}", file=sys.stderr)
        return 1
    print(summarize(events))
    path, count = write_chrome_trace(args.directory, out=args.out)
    print(f"chrome trace: {count} events -> {path}", file=sys.stderr)
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.trace.cache import ENV_VAR, default_trace_cache

    cache = default_trace_cache()
    if not cache.enabled:
        print(f"trace cache disabled ({ENV_VAR}={os.environ.get(ENV_VAR)})")
        return 0
    if args.clear:
        removed = cache.clear()
        print(f"removed {removed} cached trace(s) from {cache.root}")
        return 0
    entries = cache.entries()
    table = TextTable(
        title=f"Trace cache {cache.root}: {len(entries)} entr"
              f"{'y' if len(entries) == 1 else 'ies'}",
        headers=["Trace", "Size"],
    )
    total = 0
    for path in entries:
        size = path.stat().st_size
        total += size
        table.add_row(path.name, f"{size / 1e6:,.1f} MB")
    table.add_row("total", f"{total / 1e6:,.1f} MB")
    print(table.render())
    persisted = cache.persistent_stats()
    lookups = persisted.get("hits", 0) + persisted.get("misses", 0)
    if lookups:
        effectiveness = TextTable(
            title="Cache effectiveness (all runs)",
            headers=["Measure", "Value"],
        )
        effectiveness.add_row("lookups", format_count(lookups))
        effectiveness.add_row("hits", format_count(persisted.get("hits", 0)))
        effectiveness.add_row("misses", format_count(persisted.get("misses", 0)))
        effectiveness.add_row(
            "corrupt evictions", format_count(persisted.get("evictions", 0))
        )
        effectiveness.add_row(
            "hit rate",
            format_percent(100.0 * persisted.get("hits", 0) / lookups),
        )
        print()
        print(effectiveness.render())
    return 0


def _stats_links(args: argparse.Namespace) -> int:
    """Aggregate link/protocol counters across a directory of exports.

    The per-link dashboard: ``DIR`` may itself be one ``--telemetry``
    export or a directory of them (one per sweep point, as the
    monitor-outage sweeps produce); every export found is summed into
    one link-mix table.
    """
    from pathlib import Path

    from repro.telemetry import load_run

    root = Path(args.directory)
    if not root.is_dir():
        print(f"telemetry directory {root} does not exist", file=sys.stderr)
        return 1
    run_dirs = [root] + sorted(path for path in root.iterdir() if path.is_dir())
    links: dict[str, float] = {}
    protocols: dict[str, float] = {}
    drops: dict[str, float] = {}
    runs = 0
    for directory in run_dirs:
        manifest, records = load_run(directory)
        if manifest is None and not records:
            continue
        runs += 1
        for record in records:
            if record.get("type") != "counter":
                continue
            name = record.get("name")
            labels = record.get("labels", {})
            value = record.get("value", 0)
            if name == "repro_passive_link_records_total":
                link = labels.get("link", "unknown")
                links[link] = links.get(link, 0) + value
            elif name == "repro_passive_protocol_records_total":
                proto = labels.get("proto", "unknown")
                protocols[proto] = protocols.get(proto, 0) + value
            elif name == "repro_passive_dropped_total":
                cause = labels.get("cause", "unknown")
                drops[cause] = drops.get(cause, 0) + value
    if not links:
        print(f"no per-link telemetry found under {root} "
              f"({runs} export(s) scanned)", file=sys.stderr)
        return 1
    total = sum(links.values())
    table = TextTable(
        title=f"Link mix: {runs} run(s), {int(total):,} records ({root})",
        headers=["Link", "Records"],
    )
    ranked = sorted(links.items(), key=lambda item: (-item[1], item[0]))
    for link, count in ranked:
        table.add_row(link, format_count_pct(int(count), 100.0 * count / total))
    print(table.render())
    if protocols:
        proto_table = TextTable(
            title="Protocol mix", headers=["Protocol", "Records"],
        )
        proto_total = sum(protocols.values())
        for proto, count in sorted(
            protocols.items(), key=lambda item: (-item[1], item[0])
        ):
            proto_table.add_row(
                proto, format_count_pct(int(count), 100.0 * count / proto_total)
            )
        print()
        print(proto_table.render())
    if drops:
        drop_table = TextTable(
            title="Capture drops", headers=["Cause", "Records"],
        )
        seen = total + sum(drops.values())
        for cause, count in sorted(
            drops.items(), key=lambda item: (-item[1], item[0])
        ):
            drop_table.add_row(
                cause, format_count_pct(int(count), 100.0 * count / seen)
            )
        print()
        print(drop_table.render())
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.telemetry import load_run

    if getattr(args, "links", False):
        return _stats_links(args)
    manifest, records = load_run(args.directory)
    if manifest is None and not records:
        if not Path(args.directory).is_dir():
            print(f"telemetry directory {args.directory} does not exist",
                  file=sys.stderr)
        else:
            print(f"telemetry directory {args.directory} exists but "
                  f"contains no exports", file=sys.stderr)
        return 1
    if args.require is not None and not records:
        # --require is the CI gate: a manifest with no metric records
        # means the instrumented run exported nothing measurable.
        print(f"telemetry export in {args.directory} has no metric records",
              file=sys.stderr)
        return 1
    if manifest is not None:
        payload = manifest.get("manifest", {})
        info = TextTable(
            title=f"Run manifest ({args.directory})",
            headers=["Field", "Value"],
        )
        for key in ("command", "dataset", "seed", "scale", "fault_digest",
                    "git_sha", "python_version", "repro_version", "platform"):
            value = payload.get(key)
            if value is not None:
                info.add_row(key, value)
        print(info.render())
        print()

    def label_suffix(labels: dict) -> str:
        if not labels:
            return ""
        inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        return "{" + inner + "}"

    scalars: dict[str, float] = {}
    totals: dict[str, float] = {}
    histograms = []
    # The two span series get tables of their own:
    # (process, path) -> [count, wall seconds, CPU seconds].
    spans: dict[tuple[str, str], list[float]] = {}

    def span_row(labels: dict) -> list[float]:
        key = (labels.get("process", ""), labels.get("span", ""))
        return spans.setdefault(key, [0, 0.0, 0.0])

    for record in records:
        kind = record.get("type")
        name = record.get("name", "")
        labels = record.get("labels", {})
        if kind in ("counter", "gauge"):
            value = record.get("value", 0)
            totals[name] = totals.get(name, 0) + value
            if name == "repro_span_cpu_seconds_total":
                span_row(labels)[2] += value
            else:
                scalars[name + label_suffix(labels)] = value
        elif kind == "histogram":
            totals[name] = totals.get(name, 0) + record.get("count", 0)
            if name == "repro_span_seconds":
                row = span_row(labels)
                row[0] += record.get("count", 0)
                row[1] += record.get("sum", 0.0)
            else:
                histograms.append(record)
    if scalars:
        table = TextTable(
            title=f"Metrics: {len(scalars)} series",
            headers=["Metric", "Value"],
        )
        for label, cell in count_rows(scalars):
            table.add_row(label, cell)
        print(table.render())
    if histograms:
        table = TextTable(
            title="Histograms",
            headers=["Metric", "Count", "Mean", "Sum"],
        )
        for record in histograms:
            table.add_row(
                record["name"] + label_suffix(record.get("labels", {})),
                format_count(record.get("count", 0)),
                f"{record.get('mean', 0):.6g}",
                f"{record.get('sum', 0):.6g}",
            )
        print()
        print(table.render())

    def span_table(title: str, lead: list[str], rows) -> None:
        table = TextTable(
            title=title, headers=lead + ["Count", "Wall s", "CPU s"]
        )
        for key, (count, wall, cpu) in sorted(rows):
            table.add_row(
                *key, format_count(count), f"{wall:.3f}", f"{cpu:.3f}"
            )
        print()
        print(table.render())

    if spans:
        # Summed over processes: a worker's time is counted once here
        # and attributed under --per-process.
        by_path: dict[tuple[str], list[float]] = {}
        for (_process, path), row in spans.items():
            merged = by_path.setdefault((path,), [0, 0.0, 0.0])
            for index, value in enumerate(row):
                merged[index] += value
        span_table("Spans", ["Span"], by_path.items())
    if getattr(args, "per_process", False):
        # Rendered even when no span carries a process label (e.g. a
        # threaded-engine export): an explicit empty table, not silence.
        span_table(
            "Spans by process", ["Process", "Span"],
            (item for item in spans.items() if item[0][0]),
        )
    missing = [name for name in (args.require or [])
               if totals.get(name, 0) <= 0]
    if missing:
        print("missing or zero metrics: " + ", ".join(missing),
              file=sys.stderr)
        return 1
    return 0


def _add_stream_arguments(parser: argparse.ArgumentParser) -> None:
    """Every flag ``stream`` and ``serve`` share: what
    :func:`_stream_config` reads (``--workers`` also selects the
    fabric) and the telemetry/trace export directories."""
    from repro.probe import POLICY_NAMES

    add_dataset_arguments(parser)
    parser.add_argument(
        "--shards", type=int, default=2,
        help="partition the stream into N shards: a worker thread each "
             "under stream, folded on the ingest thread under serve",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="run N shards as supervised worker processes (the "
             "distributed fabric) instead of in-process threads; "
             "overrides --shards",
    )
    parser.add_argument(
        "--emit-every", type=float, default=None, metavar="H",
        help="emit a windowed-completeness watermark every H sim-hours",
    )
    parser.add_argument(
        "--checkpoint-every", type=float, default=None, metavar="H",
        help="write an atomic state checkpoint every H sim-hours",
    )
    parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="checkpoint store directory (per-shard generations plus a "
             "manifest); default derived from the dataset name (or from "
             "stream's --out)",
    )
    parser.add_argument(
        "--batch-records", type=int, default=8192,
        help="records per batch of a regenerated stream (cache off or "
             "missed, or a truncated run); a cached v2 trace is read in "
             "the 65,536-record chunks it was recorded in whatever "
             "this says",
    )
    parser.add_argument("--loss-rate", type=float, default=0.0,
                        help="i.i.d. capture loss rate")
    parser.add_argument("--burst-loss-rate", type=float, default=0.0)
    parser.add_argument("--outage-fraction", type=float, default=0.0,
                        help="fraction of the observation each link's "
                             "monitor is down")
    parser.add_argument("--outage-count", type=int, default=1)
    parser.add_argument("--fault-seed", type=int, default=0)
    add_telemetry_argument(parser)
    parser.add_argument(
        "--trace", default=None, metavar="DIR",
        help="record causally linked trace events (and crash flight-"
             "recorder dumps) into DIR; view with trace-view (serve "
             "also answers /tracez from them)",
    )
    parser.add_argument(
        "--probe-policy", choices=POLICY_NAMES, default=None,
        help="run the active side online: dispatch seeded probes "
             "inside the event loop under this policy instead of "
             "reading build-time scan reports",
    )
    parser.add_argument(
        "--probe-rate", type=float, default=1.0, metavar="PPS",
        help="probes per simulated second for the online prober "
             "(default 1.0; 0 disables dispatch entirely)",
    )
    parser.add_argument(
        "--probe-ports", type=int, nargs="+", default=None, metavar="PORT",
        help="ports each target is probed on (default: the dataset's "
             "configured service ports; required for tcp-all datasets)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` parser; each command registers its
    function once, as the ``run`` default :func:`main` calls."""
    from repro.experiments import degradation, online_probing

    parser = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str, within=commands):
        sub = within.add_parser(name, help=help)
        sub.set_defaults(run=run)
        return sub

    command("datasets", cmd_datasets, "list the paper's datasets")

    survey = command("survey", cmd_survey, "run both discovery methods")
    add_dataset_arguments(survey)
    add_telemetry_argument(survey)

    stream = command(
        "stream", cmd_stream, "run the online streaming discovery engine"
    )
    _add_stream_arguments(stream)
    stream.add_argument("--worker-crash-rate", type=float, default=0.0,
                        help="chaos: probability a worker incarnation "
                             "crashes at a seeded record count")
    stream.add_argument("--worker-stall-rate", type=float, default=0.0,
                        help="chaos: probability a worker incarnation "
                             "stalls (stops answering what it is sent)")
    stream.add_argument("--worker-fault-seed", type=int, default=0)
    stream.add_argument("--resume", action="store_true",
                        help="resume from the checkpoint store's newest "
                             "committed generation, if any")
    add_out_argument(stream)

    serve = command(
        "serve", cmd_serve,
        "serve live discovery state over HTTP while ingesting",
    )
    _add_stream_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="listen port (0 picks an ephemeral port, "
                            "announced on stderr)")
    serve.add_argument(
        "--snapshot-every", type=float, default=1.0, metavar="H",
        help="publish a query snapshot every H sim-hours (default 1.0)",
    )

    checkpoint = commands.add_parser(
        "checkpoint", help="checkpoint-store utilities"
    )
    prune = command(
        "prune", cmd_checkpoint_prune,
        "drop generations older than the newest --keep N from a "
        "checkpoint store",
        within=checkpoint.add_subparsers(
            dest="checkpoint_command", required=True
        ),
    )
    prune.add_argument("directory")
    prune.add_argument("--keep", type=int, default=2, metavar="N",
                       help="committed generations to retain (default 2)")

    record = command("record", cmd_record, "record a border trace")
    add_dataset_arguments(record)
    record.add_argument("out")
    record.add_argument("--days", type=float, default=None,
                        help="record only the first N days")
    record.add_argument("--anonymize-key", type=int, default=None,
                        help="anonymise addresses with this key")

    stats = command("trace-stats", cmd_trace_stats, "summarise a trace file")
    stats.add_argument("file")
    stats.add_argument("--campus", default="128.125.0.0/16")
    stats.add_argument("--top", type=int, default=10)

    trace_view = command(
        "trace-view", cmd_trace_view,
        "merge a --trace directory into one Chrome-trace timeline",
    )
    trace_view.add_argument("directory")
    trace_view.add_argument(
        "--out", default=None, metavar="PATH",
        help="Chrome trace JSON output path (default DIR/trace.json)",
    )

    trace = commands.add_parser(
        "trace", help="trace-file utilities (convert to the current format)"
    )
    convert = command(
        "convert", cmd_trace_convert,
        "rewrite a trace (v1 or v2) in the current v2 columnar format",
        within=trace.add_subparsers(dest="trace_command", required=True),
    )
    convert.add_argument("source")
    convert.add_argument("destination")
    convert.add_argument(
        "--chunk-records", type=int, default=None,
        help="records per v2 chunk (default %d)" % 65536,
    )

    cache = command("cache", cmd_cache, "show the record-once trace cache")
    cache.add_argument("--clear", action="store_true",
                       help="remove every cached trace")

    run_stats = command(
        "stats", cmd_stats, "read back a --telemetry export directory"
    )
    run_stats.add_argument("directory")
    run_stats.add_argument(
        "--require", nargs="*", default=None, metavar="METRIC",
        help="exit non-zero unless each named metric is present "
             "and non-zero (summed across its label sets)",
    )
    run_stats.add_argument(
        "--links", action="store_true",
        help="aggregate per-link and per-protocol counters across a "
             "directory of telemetry exports into one link-mix table",
    )
    run_stats.add_argument(
        "--per-process", action="store_true", dest="per_process",
        help="also show span aggregates attributed to each fabric "
             "worker process",
    )

    degradation.configure_parser(command(
        "degradation", degradation.run_from_args,
        "sweep fault plans against passive/active completeness",
    ))
    online_probing.configure_parser(command(
        "online_probing", online_probing.run_from_args,
        "compare heartbeat/periodic online probing against the "
        "passive stream across probe budgets",
    ))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main() tests
    sys.exit(main())
