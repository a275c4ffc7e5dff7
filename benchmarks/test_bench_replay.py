"""Benchmark: trace-replay throughput, generated vs. cached.

The record-once trace cache is the repo's single biggest wall-clock
lever: every analysis pass after the first should consume the stored
trace as zero-copy column batches instead of regenerating the
synthetic traffic.  This benchmark measures the same pass --
``replay_columnar`` over ``dataset.column_batches()`` with the standard
observer set -- from both sources on the same dataset, the generator
(cache off) and the cached v2 trace, and records their throughput
(records/sec) in ``extra_info``.  The acceptance floor is a 2x
advantage for the cached path.  Generation is columnar too, but the RNG
walks that define the trace stay scalar: at scale 0.1 with these two
observers a generated pass reads 0.41-0.54M records/s (~2 us a record)
and the cached one 2.0-2.4M (~0.45 us), 4.5-4.9x in three runs, so the
floor has room.
"""

from __future__ import annotations

import time

DATASET = "DTCP1-18d"


def _fresh_observers(dataset):
    from repro.passive.monitor import PassiveServiceTable
    from repro.passive.scandetect import ExternalScanDetector

    table = PassiveServiceTable(
        is_campus=dataset.is_campus,
        tcp_ports=dataset.tcp_ports,
        udp_ports=dataset.udp_ports,
        links=frozenset(dataset.spec.monitored_links),
    )
    return table, ExternalScanDetector(is_campus=dataset.is_campus)


def test_bench_replay_throughput(benchmark, bench_seed, bench_scale, monkeypatch):
    from repro.experiments.common import get_dataset
    from repro.passive.monitor import replay_columnar
    from repro.trace.cache import ENV_VAR, default_trace_cache

    dataset = get_dataset(DATASET, bench_seed, bench_scale)
    cache = default_trace_cache()
    assert cache.enabled, "replay benchmark needs the trace cache enabled"

    # Warm: ensure the trace is recorded (tees generation on first use).
    dataset.replay(*_fresh_observers(dataset))
    trace_path = cache.lookup(dataset.trace_cache_key)
    assert trace_path is not None

    # Reference path: regenerate the capture per pass (the pre-cache cost).
    with monkeypatch.context() as patch:
        patch.setenv(ENV_VAR, "off")
        started = time.perf_counter()
        generated_count = replay_columnar(
            dataset.column_batches(), *_fresh_observers(dataset)
        )
        generated_seconds = time.perf_counter() - started

    # Measured path: the same pass, served from the stored trace.
    def cached_pass():
        return replay_columnar(
            dataset.column_batches(), *_fresh_observers(dataset)
        )

    started = time.perf_counter()
    cached_count = benchmark.pedantic(cached_pass, rounds=1, iterations=1)
    cached_seconds = time.perf_counter() - started

    assert cached_count == generated_count
    generated_rps = generated_count / generated_seconds
    cached_rps = cached_count / cached_seconds
    speedup = cached_rps / generated_rps
    benchmark.extra_info.update(
        records=cached_count,
        generated_records_per_sec=round(generated_rps, 1),
        cached_records_per_sec=round(cached_rps, 1),
        cached_vs_generated_speedup=round(speedup, 2),
        trace_bytes=trace_path.stat().st_size,
    )
    print(
        f"\nreplay throughput ({DATASET}, scale {bench_scale}): "
        f"generated {generated_rps:,.0f} rec/s, cached {cached_rps:,.0f} rec/s "
        f"({speedup:.2f}x, {cached_count:,} records)"
    )
    # The whole point of record-once/analyze-many.
    assert speedup >= 2.0
