"""Tests for the :mod:`repro.telemetry` subsystem.

Covers the metric primitives, span nesting, snapshot/merge shipping,
manifests, both exporters, the ``stats`` CLI, the persistent cache
counters, and the subsystem's two contracts: enabling telemetry leaves
every report byte-identical, and the disabled path costs (almost)
nothing on the batched-replay hot loop.
"""

from __future__ import annotations

import json

import pytest

from repro.telemetry import (
    DEFAULT_TIME_BUCKETS,
    MetricRegistry,
    NullRegistry,
    RunManifest,
    disable,
    fault_plan_digest,
    jsonl_text,
    load_manifest,
    load_metrics,
    load_run,
    prometheus_text,
    registry,
    set_registry,
    span,
    telemetry_enabled,
    write_exports,
)
from tests import overhead_harness


@pytest.fixture(autouse=True)
def _reset_registry():
    """Every test leaves the process back on the shared null registry."""
    yield
    disable()


class TestCountersGaugesHistograms:
    def test_counter_inc_and_labels(self):
        reg = MetricRegistry()
        c = reg.counter("repro_test_total", "help")
        c.inc()
        c.inc(4)
        reg.counter("repro_test_total", "help", category="scan").inc(2)
        assert reg.value("repro_test_total") == 5
        assert reg.value("repro_test_total", category="scan") == 2
        assert reg.total("repro_test_total") == 7

    def test_gauge_last_write_wins(self):
        reg = MetricRegistry()
        g = reg.gauge("repro_test_level", "help")
        g.set(3)
        g.set(11)
        assert reg.value("repro_test_level") == 11

    def test_histogram_buckets_and_mean(self):
        reg = MetricRegistry()
        h = reg.histogram("repro_test_seconds", "help", bounds=(1.0, 10.0))
        for v in (0.5, 0.6, 5.0, 100.0):
            h.observe(v)
        assert h.count == 4
        assert h.bucket_counts == [2, 1]
        assert h.overflow == 1
        assert h.mean == pytest.approx(106.1 / 4)
        assert len(DEFAULT_TIME_BUCKETS) == 24

    def test_kind_mismatch_raises(self):
        reg = MetricRegistry()
        reg.counter("repro_test_total", "help")
        with pytest.raises(TypeError):
            reg.gauge("repro_test_total", "help")

    def test_null_registry_is_free_and_shared(self):
        assert isinstance(registry(), NullRegistry)
        assert not telemetry_enabled()
        a = registry().counter("x", "h")
        b = registry().counter("y", "h", any_label=1)
        assert a is b  # one shared no-op singleton
        a.inc()  # and it swallows everything
        assert list(registry().collect()) == []


def _span_paths(reg):
    return {
        dict(metric.labels)["span"]
        for metric in reg.collect()
        if metric.name == "repro_span_seconds"
    }


class TestSpans:
    def test_nesting_builds_paths(self):
        reg = MetricRegistry()
        set_registry(reg)
        with span("outer"):
            with span("inner"):
                pass
            with span("inner"):
                pass
        assert _span_paths(reg) == {"outer", "outer/inner"}
        assert reg.histogram("repro_span_seconds", span="outer/inner").count == 2
        assert reg.histogram("repro_span_seconds", span="outer").sum >= 0.0
        assert reg.value("repro_span_cpu_seconds_total", span="outer") >= 0.0

    def test_null_span_is_noop(self):
        with span("anything") as nothing:
            nothing.fields["absorbed"] = 1
        assert span("again") is nothing  # one shared null object
        assert not telemetry_enabled()

    def test_threads_nest_on_their_own_stacks(self):
        """Two threads inside their outer spans at the same moment: each
        inner span's path names its own thread's outer span only."""
        import threading

        reg = MetricRegistry()
        set_registry(reg)
        both_open = threading.Barrier(2, timeout=10)

        def work(outer, inner):
            with span(outer):
                both_open.wait()
                with span(inner):
                    both_open.wait()

        threads = [
            threading.Thread(target=work, args=names)
            for names in (("a", "x"), ("b", "y"))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert _span_paths(reg) == {"a", "a/x", "b", "b/y"}

    def test_exception_pops_the_stack(self):
        reg = MetricRegistry()
        set_registry(reg)
        with pytest.raises(ValueError):
            with span("outer"):
                with span("doomed"):
                    raise ValueError("boom")
        with span("after"):
            pass
        assert _span_paths(reg) == {"outer", "outer/doomed", "after"}

    def test_forked_child_starts_outside_its_parents_spans(self):
        """A fabric worker is forked from inside ``fabric.reassign``; its
        own spans must not nest under a span it will never close."""
        import os

        set_registry(MetricRegistry())
        read_end, write_end = os.pipe()
        with span("parent"):
            pid = os.fork()
            if pid == 0:  # pragma: no cover - the child
                with span("child") as child:
                    os.write(write_end, child.path.encode())
                os._exit(0)
            os.waitpid(pid, 0)
            with span("sibling") as sibling:
                assert sibling.path == "parent/sibling"
        assert os.read(read_end, 64) == b"child"
        os.close(read_end)
        os.close(write_end)

    def test_worker_registry_labels_its_spans(self):
        """A worker's snapshot, merged at home through the one generic
        path, still says which process spent the time."""
        home = MetricRegistry()
        set_registry(home)
        with span("fold"):
            pass
        for name in ("shard0", "shard1"):
            set_registry(MetricRegistry(process=name))
            with span("fold"):
                pass
            home.merge_snapshot(registry().snapshot())
        series = {
            dict(metric.labels).get("process"): metric.count
            for metric in home.collect()
            if metric.name == "repro_span_seconds"
        }
        assert series == {None: 1, "shard0": 1, "shard1": 1}


class TestSnapshotMerge:
    def test_merge_adds_counters_and_spans(self):
        reg = MetricRegistry()
        reg.counter("repro_test_total", "h", kind_label="a").inc(3)
        reg.histogram("repro_test_seconds", "h").observe(0.5)
        set_registry(reg)
        with span("work"):
            pass
        snap = reg.snapshot()
        reg.merge_snapshot(snap)
        assert reg.value("repro_test_total", kind_label="a") == 6
        hist = reg.histogram("repro_test_seconds", "h")
        assert hist.count == 2
        assert reg.histogram("repro_span_seconds", span="work").count == 2

    def test_snapshot_round_trips_through_json(self):
        reg = MetricRegistry()
        reg.counter("repro_test_total", "h").inc()
        snap = json.loads(json.dumps(reg.snapshot()))
        other = MetricRegistry()
        other.merge_snapshot(snap)
        assert other.value("repro_test_total") == 1


class TestManifest:
    def test_fault_digest(self):
        from repro.faults.plan import FaultPlan

        assert fault_plan_digest(None) is None
        plan = FaultPlan(seed=1, capture_loss_rate=0.1)
        digest = fault_plan_digest(plan)
        assert digest == fault_plan_digest(FaultPlan(seed=1, capture_loss_rate=0.1))
        assert digest != fault_plan_digest(FaultPlan(seed=2, capture_loss_rate=0.1))

    def test_collect_and_round_trip(self, tmp_path):
        manifest = RunManifest.collect(
            command="survey", dataset="DTCPall", seed=3, scale=1.0
        )
        assert manifest.command == "survey"
        assert manifest.python_version
        path = tmp_path / "manifest.json"
        manifest.write(path)
        payload = load_manifest(path)
        assert payload["manifest"]["dataset"] == "DTCPall"
        assert payload["manifest"]["seed"] == 3


class TestExporters:
    def _populated(self):
        reg = MetricRegistry()
        reg.counter("repro_layer_things_total", "Things.", category="a").inc(7)
        reg.gauge("repro_layer_level", "Level.").set(2.5)
        reg.histogram(
            "repro_layer_seconds", "Timings.", bounds=(0.1, 1.0)
        ).observe(0.05)
        set_registry(reg)
        with span("phase"):
            pass
        return reg

    def test_prometheus_text(self):
        text = prometheus_text(self._populated())
        assert '# TYPE repro_layer_things_total counter' in text
        assert 'repro_layer_things_total{category="a"} 7' in text
        assert 'repro_layer_seconds_bucket{le="+Inf"} 1' in text
        assert '# TYPE repro_span_seconds histogram' in text
        assert 'repro_span_seconds_count{span="phase"} 1' in text
        assert 'repro_span_cpu_seconds_total{span="phase"}' in text

    def test_jsonl_and_load(self, tmp_path):
        reg = self._populated()
        records = [json.loads(line) for line in jsonl_text(reg).splitlines()]
        kinds = {r["type"] for r in records}
        assert kinds == {"counter", "gauge", "histogram"}
        assert {"span": "phase"} in [
            r["labels"] for r in records if r["name"] == "repro_span_seconds"
        ]
        written = write_exports(tmp_path, reg, RunManifest.collect(command="t"))
        assert len(written) == 3
        manifest, loaded = load_run(tmp_path)
        assert manifest["manifest"]["command"] == "t"
        assert {r["name"] for r in loaded if r["type"] == "counter"} == {
            "repro_layer_things_total", "repro_span_cpu_seconds_total"
        }
        assert load_metrics(tmp_path) == loaded


class TestReplayTap:
    def test_counts_synacks_links_and_protocols(self):
        from repro.net.packet import tcp_syn, tcp_synack, udp_datagram
        from tests.passive_reference import ReferenceReplayTap

        tap = ReferenceReplayTap()
        for record in (
            tcp_syn(0.0, 1, 2, 1024, 80, link="commercial1"),
            tcp_synack(0.1, 2, 1, 80, 1024, link="commercial1"),
            udp_datagram(0.2, 3, 4, 53, 53, link="internet2"),
        ):
            tap.observe(record)
        reg = MetricRegistry()
        tap.flush_into(reg)
        assert reg.value("repro_passive_records_total") == 3
        assert reg.value("repro_passive_synacks_total") == 1
        assert reg.value("repro_passive_link_records_total", link="commercial1") == 2
        assert reg.value("repro_passive_protocol_records_total", proto="udp") == 1


class TestPersistentCacheStats:
    def test_stats_survive_flush_and_accumulate(self, tmp_path):
        from repro.trace.cache import TraceCache

        cache = TraceCache(root=tmp_path / "cache")
        assert cache.lookup(("DTCPall", 1)) is None  # miss
        cache.flush_persistent_stats()
        on_disk = json.loads(cache.stats_path().read_text())
        assert on_disk["misses"] == 1
        # A second process's view: file plus its own unflushed deltas.
        other = TraceCache(root=tmp_path / "cache")
        assert other.lookup(("DTCPall", 2)) is None
        stats = other.persistent_stats()
        assert stats["misses"] == 2
        assert stats["hits"] == 0

    def test_flush_is_delta_based(self, tmp_path):
        from repro.trace.cache import TraceCache

        cache = TraceCache(root=tmp_path / "cache")
        cache.lookup(("DTCPall", 1))
        cache.flush_persistent_stats()
        cache.flush_persistent_stats()  # no new deltas: must not double
        assert cache.persistent_stats()["misses"] == 1

    def test_clear_resets_persistent_stats(self, tmp_path):
        from repro.trace.cache import TraceCache

        cache = TraceCache(root=tmp_path / "cache")
        cache.lookup(("DTCPall", 1))
        cache.flush_persistent_stats()
        cache.clear()
        assert cache.persistent_stats()["misses"] == 0


class TestStatsCommand:
    def _export(self, tmp_path):
        reg = MetricRegistry()
        reg.counter("repro_replay_records_total", "h").inc(100)
        set_registry(reg)
        with span("survey"):
            pass
        write_exports(
            tmp_path, reg, RunManifest.collect(command="survey", dataset="X")
        )

    def test_renders_manifest_metrics_and_spans(self, tmp_path, capsys):
        from repro.cli import main

        self._export(tmp_path)
        assert main(["stats", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Run manifest" in out
        assert "repro_replay_records_total" in out
        assert "### Spans" in out and "| survey " in out

    def test_require_missing_metric_fails(self, tmp_path, capsys):
        from repro.cli import main

        self._export(tmp_path)
        assert main([
            "stats", str(tmp_path), "--require", "repro_replay_records_total",
        ]) == 0
        capsys.readouterr()
        assert main([
            "stats", str(tmp_path), "--require", "repro_bogus_total",
        ]) == 1
        assert "repro_bogus_total" in capsys.readouterr().err

    def test_empty_directory_fails(self, tmp_path):
        from repro.cli import main

        assert main(["stats", str(tmp_path / "nothing")]) == 1


class TestByteIdenticalReports:
    """Enabling telemetry must not change any experiment output."""

    def test_survey_stdout_identical(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
        argv = ["survey", "DTCPall", "--scale", "1.0", "--seed", "3"]
        assert main(argv + ["--telemetry", str(tmp_path / "telemetry")]) == 0
        with_telemetry = capsys.readouterr().out
        disable()
        assert main(argv) == 0
        without = capsys.readouterr().out
        assert with_telemetry == without
        # The export captured counters from all the instrumented layers.
        _, records = load_run(tmp_path / "telemetry")
        names = {r["name"] for r in records}
        # DTCPall scans once (no periodic schedule), so the simkernel
        # layer shows up through its RNG stream counter.
        for required in (
            "repro_simkernel_rng_streams_total",
            "repro_traffic_records_total",
            "repro_cache_misses_total",
            "repro_replay_records_total",
            "repro_passive_records_total",
            "repro_active_probes_total",
        ):
            assert required in names, required

    def test_runner_report_identical(self, tmp_path, monkeypatch, capsys):
        from repro.experiments.common import clear_caches
        from repro.experiments.runner import main

        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
        base = [
            "--only", "figure09", "--scale", "0.05", "--seed", "0",
        ]
        out_a = tmp_path / "a.md"
        out_b = tmp_path / "b.md"
        clear_caches()
        assert main(base + [
            "--out", str(out_a), "--telemetry", str(tmp_path / "telemetry"),
        ]) == 0
        disable()
        clear_caches()
        assert main(base + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_text() == out_b.read_text()
        _, records = load_run(tmp_path / "telemetry")
        names = {r["name"] for r in records}
        assert "repro_runner_experiments_total" in names
        assert "repro_runner_checkpoint_writes_total" in names


class TestNoOpOverhead:
    """The disabled path on columnar replay stays within noise of the
    uninstrumented loop (the additions are one registry check per
    replay call and two flag tests per chunk)."""

    @staticmethod
    def _reference_pass(chunks, *observers):
        # replay_columnar's loop without any telemetry: the control arm
        # for measuring what the registry and per-chunk checks cost.
        count = 0
        dispatchers = [observer.observe_columns for observer in observers]
        for cols in chunks:
            if len(cols):
                for dispatch in dispatchers:
                    dispatch(cols)
                count += len(cols)
        return count

    def test_disabled_overhead_below_two_percent(self):
        from repro.passive.monitor import replay_columnar

        assert not telemetry_enabled()
        cost = overhead_harness.overhead(self._reference_pass, replay_columnar)
        assert cost < overhead_harness.BOUND, f"no-op overhead {cost:.2%}"

    def test_disabled_pass_reaches_nothing_per_chunk(self):
        """The timing check's deterministic companion: with telemetry
        and tracing off, replay over 300 chunks reaches the registry,
        the tracer and the batches exactly as often as over 10 -- so a
        per-chunk cost on the disabled path fails on every run."""
        from repro.passive.monitor import replay_columnar

        assert not telemetry_enabled()
        chunks = overhead_harness.workload()

        def reach(count):
            def run(tally):
                batches = [
                    overhead_harness.CountingBatch(chunk, tally)
                    for chunk in chunks[:count]
                ]
                observer = overhead_harness.CountingObserver()
                records = replay_columnar(batches, observer)
                assert records == count * overhead_harness.CHUNK_SIZE
                assert observer.batches == count

            return overhead_harness.disabled_reach(run)

        assert reach(10) == reach(overhead_harness.CHUNKS)

    def test_enabled_pass_times_every_chunk(self):
        """The same loop, telemetry on: one histogram sample and one
        counter tick per chunk, and the fold itself is unchanged."""
        from repro.passive.monitor import replay_columnar

        chunks = overhead_harness.workload()[:7]
        plain, timed = overhead_harness.observer(), overhead_harness.observer()
        self._reference_pass(chunks, plain)
        reg = MetricRegistry()
        set_registry(reg)
        assert replay_columnar(chunks, timed) == 7 * overhead_harness.CHUNK_SIZE
        assert timed.first_seen == plain.first_seen
        assert reg.value("repro_replay_chunks_total") == 7
        assert reg.histogram("repro_replay_chunk_seconds").count == 7
