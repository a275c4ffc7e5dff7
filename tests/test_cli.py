"""Tests for the ``python -m repro`` CLI."""

import pytest

from repro.cli import main


class TestDatasetsCommand:
    def test_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("DTCP1-18d", "DTCPbreak", "DUDP", "DTCPall"):
            assert name in out


class TestSurveyCommand:
    def test_tcp_survey(self, capsys):
        assert main(["survey", "DTCP1-18d", "--scale", "0.03", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "Passive AND Active" in out
        assert "scans" in out

    def test_udp_survey(self, capsys):
        assert main(["survey", "DUDP", "--scale", "0.05", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "Total servers found" in out

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            main(["survey", "DTCP-bogus"])


class TestRecordAndStats:
    def test_record_then_stats(self, tmp_path, capsys):
        trace = tmp_path / "t.rprt"
        assert main([
            "record", "DTCP1-18d", str(trace),
            "--scale", "0.03", "--seed", "4", "--days", "1",
        ]) == 0
        recorded = capsys.readouterr().out
        assert "wrote" in recorded
        assert trace.exists() and trace.stat().st_size > 16

        assert main(["trace-stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "protocol tcp" in out
        assert "tcp syn" in out
        assert "Top campus responders" in out

    def test_record_anonymized(self, tmp_path, capsys):
        trace = tmp_path / "anon.rprt"
        assert main([
            "record", "DTCP1-18d", str(trace),
            "--scale", "0.03", "--seed", "4", "--days", "0.5",
            "--anonymize-key", "42",
        ]) == 0
        out = capsys.readouterr().out
        assert "anonymised" in out
        # Stats still work on the anonymised trace (campus preserved).
        assert main(["trace-stats", str(trace)]) == 0
        stats = capsys.readouterr().out
        assert "protocol tcp" in stats

    def test_record_anonymized_bytes_match_the_per_record_path(self, tmp_path):
        """``record --anonymize-key`` maps each batch's distinct
        addresses once and writes columns; the file is the one the
        record-at-a-time ``Anonymizer.anonymize`` loop wrote."""
        from repro.datasets import build_dataset
        from repro.simkernel.clock import days
        from repro.trace.anonymize import Anonymizer
        from repro.trace.columnar import ColumnarTraceWriter

        trace = tmp_path / "anon.rprt"
        assert main([
            "record", "DTCP1-18d", str(trace),
            "--scale", "0.03", "--seed", "4", "--days", "0.5",
            "--anonymize-key", "42",
        ]) == 0
        dataset = build_dataset("DTCP1-18d", seed=4, scale=0.03)
        anonymizer = Anonymizer(key=42)
        expected = tmp_path / "expected.rprt"
        with ColumnarTraceWriter.open(expected) as writer:
            for columns in dataset.column_batches(days(0.5)):
                for record in columns.to_records():
                    writer.write(anonymizer.anonymize(record))
        assert writer.records_written > 1000
        assert trace.read_bytes() == expected.read_bytes()


def reference_trace_stats(path, campus="128.125.0.0/16", top_n=10) -> str:
    """What ``trace-stats`` printed as a per-record loop: the definition
    its bincounts over columns must reproduce byte for byte."""
    from repro.core.report import TextTable, count_rows, format_count
    from repro.net.addr import format_ipv4, parse_cidr
    from repro.net.packet import PROTO_ICMP, PROTO_TCP, PROTO_UDP
    from repro.trace.columnar import read_trace_records

    network, prefix = parse_cidr(campus)
    mask = ~((1 << (32 - prefix)) - 1) & 0xFFFFFFFF
    proto_names = {PROTO_TCP: "tcp", PROTO_UDP: "udp", PROTO_ICMP: "icmp"}
    protocols, flags, links, responders = {}, {}, {}, {}
    first = last = None
    total = 0
    for record in read_trace_records(path):
        total += 1
        first = record.time if first is None else min(first, record.time)
        last = record.time if last is None else max(last, record.time)
        proto = proto_names.get(record.proto, str(record.proto))
        protocols[proto] = protocols.get(proto, 0) + 1
        link = record.link or "unknown"
        links[link] = links.get(link, 0) + 1
        if record.proto == PROTO_TCP:
            if record.flags.is_synack:
                flags["syn-ack"] = flags.get("syn-ack", 0) + 1
                if (record.src & mask) == network:
                    responders[record.src] = responders.get(record.src, 0) + 1
            elif record.flags.is_syn:
                flags["syn"] = flags.get("syn", 0) + 1
            elif record.flags.is_rst:
                flags["rst"] = flags.get("rst", 0) + 1
            else:
                flags["other"] = flags.get("other", 0) + 1
    table = TextTable(
        title=f"Trace {path}: {total:,} records", headers=["Measure", "Value"]
    )
    if first is not None:
        table.add_row("time span", f"{first:.1f}s .. {last:.1f}s "
                                   f"({(last - first) / 3600:.1f} h)")
    for counts, prefix_label in (
        (protocols, "protocol "), (flags, "tcp "), (links, "link "),
    ):
        for label, cell in count_rows(counts, label_prefix=prefix_label):
            table.add_row(label, cell)
    out = table.render() + "\n"
    if responders:
        ranked = sorted(responders.items(), key=lambda item: (-item[1], item[0]))
        top = TextTable(
            title="Top campus responders (SYN-ACK senders)",
            headers=["Address", "SYN-ACKs"],
        )
        for address, count in ranked[:top_n]:
            top.add_row(format_ipv4(address), format_count(count))
        out += "\n" + top.render() + "\n"
    return out


class TestTraceStatsColumns:
    """``trace-stats`` counts over columns; :func:`reference_trace_stats`
    is the per-record loop it replaced."""

    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        """One recording three ways: as ``record`` writes it, re-cut
        into 997-record chunks, and as a v1 file."""
        from repro.net.packet import PacketRecord, TcpFlags
        from repro.trace.columnar import ColumnarTraceWriter, read_trace_records
        from tests.trace_v1_reference import v1_trace_bytes

        root = tmp_path_factory.mktemp("stats")
        recorded = root / "recorded.rprt"
        assert main([
            "record", "DTCP1-18d", str(recorded),
            "--scale", "0.03", "--seed", "4", "--days", "1",
        ]) == 0
        records = list(read_trace_records(recorded))
        # Flag combinations the generator never writes: SYN+RST (a SYN),
        # SYN+ACK+RST (a SYN-ACK), ACK+RST, and none at all; and the
        # empty link, which prints as "unknown".
        records += [
            PacketRecord(time=5.0, src=0x807D0001, dst=0x08080808, sport=80,
                         dport=40000, proto=6, flags=TcpFlags(bits), link=link)
            for bits in (0x06, 0x16, 0x14, 0x00)
            for link in ("", "commercial1")
        ]
        rechunked = root / "rechunked.rprt"
        with ColumnarTraceWriter.open(rechunked, chunk_records=997) as writer:
            for record in records:
                writer.write(record)
        v1 = root / "v1.rprt"
        v1.write_bytes(v1_trace_bytes(records))
        return recorded, rechunked, v1

    @pytest.mark.parametrize("which", range(3))
    @pytest.mark.parametrize("argv", [
        [],
        ["--campus", "128.125.64.0/18", "--top", "3"],
        # No SYN-ACK sender is inside: no responders table at all.
        ["--campus", "10.0.0.0/8", "--top", "3"],
    ])
    def test_output_is_the_per_record_loop_byte_for_byte(
        self, traces, capsys, which, argv
    ):
        path = traces[which]
        capsys.readouterr()
        assert main(["trace-stats", str(path), *argv]) == 0
        campus = argv[1] if argv else "128.125.0.0/16"
        top_n = int(argv[3]) if argv else 10
        assert capsys.readouterr().out == reference_trace_stats(
            path, campus, top_n
        )

    def test_damage_past_the_first_chunk_prints_nothing(
        self, traces, tmp_path, capsys
    ):
        bad = tmp_path / "bad.rprt"
        bad.write_bytes(traces[1].read_bytes()[:-11])
        capsys.readouterr()
        assert main(["trace-stats", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}: truncated chunk at end of trace\n"


def _recorded(tmp_path):
    from repro.net.packet import tcp_synack
    from repro.trace.columnar import write_trace

    good = tmp_path / "good.rprt"
    write_trace(good, [
        tcp_synack(float(i), 0x807D0001, 0x10000001, 80, 40000 + i, "internet2")
        for i in range(20)
    ])
    return good.read_bytes()


#: name -> what to put at the path (None: nothing, the file is missing).
_BAD_TRACES = {
    "missing-file": lambda good: None,
    "bad-magic": lambda good: b"#!/bin/sh\n" + good[10:],
    "short-header": lambda good: good[:9],
    "truncated-body": lambda good: good[:-11],
    # The 20-record chunk's first link byte (its columns before that
    # hold 22 of a record's 24 bytes) names no link.
    "link-byte-out-of-range": lambda good: (
        good[:24 + 20 * 22] + b"\x09" + good[24 + 20 * 22 + 1:]
    ),
}


class TestBadTraceFiles:
    """Unreadable input is a one-line ``error:`` and exit 2 at the
    command boundary -- all of these used to be raw tracebacks."""

    @pytest.mark.parametrize("name", _BAD_TRACES)
    @pytest.mark.parametrize("command", ["trace-stats", "convert"])
    def test_reported_without_traceback(self, tmp_path, capsys, command, name):
        content = _BAD_TRACES[name](_recorded(tmp_path))
        bad = tmp_path / "bad.rprt"
        if content is not None:
            bad.write_bytes(content)
        destination = tmp_path / "out.rprt"
        argv = (
            ["trace-stats", str(bad)] if command == "trace-stats"
            else ["trace", "convert", str(bad), str(destination)]
        )
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert not destination.exists()


class TestCacheCommand:
    def test_lists_entries(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
        # Populate the cache by running a survey (first replay tees).
        main(["survey", "DTCPall", "--scale", "1.0", "--seed", "3"])
        capsys.readouterr()
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "1 entry" in out
        assert "DTCPall-" in out
        assert "MB" in out

    def test_clear(self, monkeypatch, tmp_path, capsys):
        from repro.trace.cache import default_trace_cache

        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
        main(["survey", "DTCPall", "--scale", "1.0", "--seed", "3"])
        capsys.readouterr()
        assert main(["cache", "--clear"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert default_trace_cache().entries() == []

    def test_disabled(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        assert main(["cache"]) == 0
        assert "disabled" in capsys.readouterr().out


class TestStreamCommand:
    ARGS = ["DTCP1-18d", "--scale", "0.03", "--seed", "4"]

    def test_stream_report_matches_survey(self, capsys):
        assert main(["survey", *self.ARGS]) == 0
        survey_out = capsys.readouterr().out
        assert main(["stream", *self.ARGS, "--shards", "2"]) == 0
        stream_out = capsys.readouterr().out
        assert stream_out == survey_out

    def test_stream_emits_watermarks_and_writes_out(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        assert main([
            "stream", *self.ARGS, "--shards", "2",
            "--emit-every", "96", "--out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert printed.count("watermark t=") >= 2
        assert "Passive AND Active" in printed
        report = out.read_text(encoding="utf-8")
        assert report.rstrip("\n") in printed

    @pytest.mark.parametrize(
        "mode", [["--shards", "2"], ["--workers", "2"]],
        ids=["threads", "fabric"],
    )
    def test_stream_telemetry_export(self, tmp_path, capsys, mode):
        """Both transports run the one driver, so both export the same
        stream metrics (the fabric used to miss the delivered-record
        counter, the drop counters and the per-link tap rows)."""
        from repro.telemetry import NullRegistry, set_registry

        tel = tmp_path / "tel"
        try:
            assert main([
                "stream", *self.ARGS, *mode, "--emit-every", "96",
                "--outage-fraction", "0.02", "--fault-seed", "5",
                "--telemetry", str(tel),
            ]) == 0
        finally:
            set_registry(NullRegistry())  # --telemetry enables globally
        capsys.readouterr()
        assert (tel / "manifest.json").exists()
        assert main([
            "stats", str(tel),
            "--require", "repro_stream_records_total",
            "repro_stream_watermarks_total",
            "repro_passive_dropped_total",
        ]) == 0
        stats_out = capsys.readouterr().out
        assert "repro_stream_records_total" in stats_out
        assert "repro_stream_watermark_lag_seconds" in stats_out
        assert main(["stats", str(tel), "--links"]) == 0
        links_out = capsys.readouterr().out
        assert "Link mix: 1 run(s)" in links_out
        assert "Capture drops" in links_out and "outage" in links_out

    def test_interrupted_stream_still_exports(
        self, tmp_path, monkeypatch, capsys
    ):
        """An interrupt (exit 130) leaves the export behind, and the
        in-process run leaves telemetry switched off again."""
        from repro.stream import StreamEngine
        from repro.telemetry import telemetry_enabled

        def interrupted(self, **kwargs):
            raise KeyboardInterrupt("stopped before the first batch")

        monkeypatch.setattr(StreamEngine, "run", interrupted)
        tel = tmp_path / "tel"
        assert main(["stream", *self.ARGS, "--telemetry", str(tel)]) == 130
        assert "interrupted; stopped" in capsys.readouterr().err
        assert (tel / "manifest.json").exists()
        assert not telemetry_enabled()


def _manifest_fields(directory) -> dict:
    """A manifest's fields, less the ones that name the machine or time."""
    from repro.telemetry import load_manifest

    payload = load_manifest(directory / "manifest.json")
    assert sorted(payload) == ["manifest", "metrics", "version"]
    fields = payload["manifest"]
    assert sorted(fields) == [
        "arguments", "command", "created_unix", "dataset", "fault_digest",
        "git_sha", "platform", "python_version", "repro_version", "scale",
        "seed",
    ]
    for name in ("created_unix", "git_sha", "platform", "python_version",
                 "repro_version"):
        del fields[name]
    return fields


class TestRunManifests:
    """Each command's manifest names the same fields with the same
    values (time and machine fields aside) whoever writes it."""

    def test_cli_commands(self, tmp_path, monkeypatch, capsys):
        from repro.telemetry import telemetry_enabled

        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
        runs = {
            "survey": (
                ["survey", "DTCPall", "--scale", "1.0", "--seed", "3"],
                {"arguments": {}, "dataset": "DTCPall", "scale": 1.0,
                 "seed": 3, "fault_digest": None},
            ),
            "stream": (
                ["stream", "DTCP1-18d", "--scale", "0.03", "--seed", "4",
                 "--shards", "2", "--emit-every", "96",
                 "--outage-fraction", "0.02", "--fault-seed", "5"],
                {"arguments": {"checkpoint_every_hours": None,
                               "emit_every_hours": 96.0, "fabric": False,
                               "resumed": False, "shards": 2},
                 "dataset": "DTCP1-18d", "scale": 0.03, "seed": 4,
                 "fault_digest": "5dd49b6629352a05"},
            ),
            "degradation": (
                ["degradation", "DTCPall", "--scale", "1.0",
                 "--loss-rates", "0.2", "--outage-fractions", "0"],
                {"arguments": {"jobs": 1, "loss_rates": [0.2],
                               "outage_fractions": [0.0]},
                 "dataset": "DTCPall", "scale": 1.0, "seed": 0,
                 "fault_digest": None},
            ),
        }
        for command, (argv, expected) in runs.items():
            tel = tmp_path / command
            assert main([*argv, "--telemetry", str(tel)]) == 0
            assert not telemetry_enabled()
            assert _manifest_fields(tel) == {"command": command, **expected}
        capsys.readouterr()

    def test_runner(self, tmp_path, monkeypatch, capsys):
        from repro.experiments.runner import main as runner_main

        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
        out = str(tmp_path / "R.md")
        tel = tmp_path / "tel"
        assert runner_main([
            "--only", "table1", "--scale", "0.05", "--out", out,
            "--telemetry", str(tel),
        ]) == 0
        capsys.readouterr()
        assert _manifest_fields(tel) == {
            "arguments": {"experiments": ["table1"], "jobs": 1, "out": out},
            "command": "runner", "dataset": None, "fault_digest": None,
            "scale": 0.05, "seed": 0,
        }


class TestBadFlagValues:
    """A flag value the command cannot run with is one ``error:`` line
    and exit status 2, before any work: the dataset named here does not
    exist, so a command that started working would raise ``KeyError``."""

    @pytest.mark.parametrize("argv", [
        ["stream", "--shards", "0"],
        ["stream", "--batch-records", "0"],
        ["stream", "--probe-rate", "-1"],
        ["stream", "--emit-every", "-1"],
        ["stream", "--workers", "0"],
        ["serve", "--snapshot-every", "0"],
        ["serve", "--emit-every", "-1"],
        ["degradation", "--jobs", "0"],
    ], ids=lambda argv: " ".join(argv))
    def test_rejected_before_any_work(self, capsys, argv):
        command, *flags = argv
        assert main([command, "DTCP-bogus", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


class TestServeCommand:
    def test_checkpoint_every_derives_a_checkpoint_path(self, monkeypatch):
        """``serve --checkpoint-every H`` without ``--checkpoint`` used
        to build ``checkpoint_path=None`` and silently never checkpoint;
        it gets the default ``stream`` derives, by the same rule -- one
        store path, whichever transport runs."""
        import repro.query.serve

        seen = {}

        def run_serve(config, **kwargs):
            seen[kwargs["fabric"] is not None] = config
            return 0

        monkeypatch.setattr(repro.query.serve, "run_serve", run_serve)
        args = ["serve", "DTCP1-18d", "--checkpoint-every", "24"]
        assert main(args) == 0
        assert main([*args, "--workers", "2"]) == 0
        assert seen[False].checkpoint_path == "DTCP1-18d-stream.checkpoint"
        assert seen[True].checkpoint_path == "DTCP1-18d-stream.checkpoint"
        assert seen[True].shards == 2
        assert main(["serve", "DTCP1-18d", "--checkpoint", "x.ckpt"]) == 0
        assert seen[False].checkpoint_path == "x.ckpt"
        assert main(["serve", "DTCP1-18d"]) == 0
        assert seen[False].checkpoint_path is None


class TestStatsLinks:
    @staticmethod
    def fake_export(directory, link_counts, drop_counts=None):
        from repro.telemetry import MetricRegistry, write_exports

        reg = MetricRegistry()
        for link, count in link_counts.items():
            reg.counter(
                "repro_passive_link_records_total",
                "Records by monitored link.", link=link,
            ).inc(count)
        reg.counter(
            "repro_passive_protocol_records_total",
            "Records by protocol.", proto="tcp",
        ).inc(sum(link_counts.values()))
        for cause, count in (drop_counts or {}).items():
            reg.counter(
                "repro_passive_dropped_total",
                "Records dropped by the capture fault filter.", cause=cause,
            ).inc(count)
        write_exports(directory, reg)

    def test_aggregates_across_runs(self, tmp_path, capsys):
        self.fake_export(tmp_path / "run1", {"commercial1": 600, "internet2": 100})
        self.fake_export(tmp_path / "run2", {"commercial1": 200, "commercial2": 100},
                         drop_counts={"loss": 50})
        assert main(["stats", str(tmp_path), "--links"]) == 0
        out = capsys.readouterr().out
        assert "Link mix: 2 run(s), 1,000 records" in out
        assert "commercial1" in out and "(80%)" in out
        assert "Protocol mix" in out
        assert "Capture drops" in out and "loss" in out

    def test_single_export_directory(self, tmp_path, capsys):
        self.fake_export(tmp_path, {"commercial1": 10})
        assert main(["stats", str(tmp_path), "--links"]) == 0
        assert "Link mix: 1 run(s)" in capsys.readouterr().out

    def test_missing_directory_fails(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope"), "--links"]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_no_link_metrics_fails(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert main(["stats", str(tmp_path), "--links"]) == 1
        assert "no per-link telemetry" in capsys.readouterr().err


class TestStatsRequire:
    def test_empty_directory_is_an_error(self, tmp_path, capsys):
        empty = tmp_path / "tel"
        empty.mkdir()
        assert main(["stats", str(empty), "--require"]) == 1
        err = capsys.readouterr().err
        assert "exists but contains no exports" in err

    def test_missing_directory_is_an_error(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope"), "--require"]) == 1
        assert "does not exist" in capsys.readouterr().err


class TestParser:
    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestCheckpointPruneValidation:
    def test_keep_zero_is_rejected_clearly(self, tmp_path, capsys):
        store = tmp_path / "store"
        store.mkdir()
        assert main([
            "checkpoint", "prune", str(store), "--keep", "0",
        ]) == 2
        err = capsys.readouterr().err
        assert "--keep must be >= 1" in err
        assert "Traceback" not in err

    def test_negative_keep_is_rejected(self, tmp_path, capsys):
        store = tmp_path / "store"
        store.mkdir()
        assert main([
            "checkpoint", "prune", str(store), "--keep", "-3",
        ]) == 2
        assert "--keep must be >= 1" in capsys.readouterr().err


class TestStatsPerProcess:
    def test_export_without_spans_prints_empty_table(self, tmp_path, capsys):
        from repro.telemetry import MetricRegistry, write_exports

        reg = MetricRegistry()
        reg.counter("repro_stream_records_total", "Records.").inc(3)
        write_exports(tmp_path, reg)
        assert main(["stats", str(tmp_path), "--per-process"]) == 0
        out = capsys.readouterr().out
        assert "Spans by process" in out  # empty table, not silence


class TestOnlineProbingCLI:
    def test_stream_with_probe_policy(self, capsys):
        assert main([
            "stream", "DTCP1-18d", "--scale", "0.02", "--seed", "4",
            "--shards", "2", "--probe-policy", "periodic",
            "--probe-rate", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "Passive AND Active" in out

    def test_allports_dataset_requires_probe_ports(self):
        with pytest.raises(ValueError, match="probe-ports"):
            main([
                "stream", "DTCPall", "--scale", "1.0", "--seed", "3",
                "--probe-policy", "heartbeat",
            ])

    def test_online_probing_experiment_runs(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main([
            "online_probing", "--scale", "0.02", "--days", "1",
            "--rates", "0.2", "--out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "Online probing: DTCP1-18d" in printed
        assert "heartbeat" in printed and "periodic" in printed
        assert out.read_text(encoding="utf-8").rstrip("\n") in printed

    def test_online_probing_rejects_bad_rates(self):
        from repro.experiments.online_probing import run_online_probing

        with pytest.raises(ValueError, match="positive"):
            run_online_probing(rates=(0.0,))
        with pytest.raises(ValueError, match="at least one"):
            run_online_probing(rates=())
