"""The six workloads, measured end to end with the bench's spans off.

Every workload is a closed loop: the next pass (or request) starts when
the previous one returns.  Each function prepares its own inputs inside
the run's scratch directory, does one untimed warm-up, measures for the
time budget, checks every output against an oracle *outside* the timed
region, and returns a :class:`Outcome`.  Why each workload exists is
recorded in ``BENCHMARK.json`` and ``bench/README.md``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import shutil
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import harness
from harness import DATASET, PARALLELISM

#: ``stream_probing``: heartbeat probes per second of dataset time.
#: 0.25/s over 18 days is 388,800 probes whatever the population scale.
PROBE_RATE = 0.25
#: ``stream_faulted``: capture loss and outage share (drops ~4 %).
FAULT_RATES = dict(capture_loss_rate=0.02, outage_fraction=0.02)
#: ``serve_live``: width of the slices ``query_per_s`` is the median of.
SLICE_SECONDS = 0.5
REQUEST_TIMEOUT = 10.0
CHILD_TIMEOUT = 120.0

#: The six-way request mix of ``scripts/record_bench.py``; ``{a}`` is an
#: address drawn from the most recent listing.
ROUTES = (
    ("services_recent", "/services?proto=tcp&since=48h&limit=100"),
    ("services_top", "/services?limit=25"),
    ("watermarks", "/watermarks"),
    ("healthz", "/healthz"),
    ("host", "/host/{a}"),
    ("liveness", "/liveness/{a}"),
)


@dataclass
class Context:
    """What one run of one workload is a function of."""

    scratch: Path
    seed: int
    scale: float
    seconds: float
    #: Fixed number of timed passes instead of the time budget (smoke test).
    passes: int | None
    #: ``perf_counter`` reading taken at the top of ``run.py``.
    process_start: float
    reference: harness.Reference


@dataclass
class Outcome:
    """Measurements of one workload run; ``run.py`` names them.

    ``walls`` and ``setup_s`` are at nominal machine speed
    (:class:`harness.Reference`); the ``raw_`` twins are what the clock
    read.
    """

    walls: list[float]
    raw_walls: list[float]
    records: int
    attempted: int
    failed: int
    setup_s: float
    raw_setup_s: float
    children: bool = False
    #: ``serve_live`` only: the closed-loop operation is a request, not
    #: a pass, so it brings its own (raw) latencies and per-slice
    #: counts, and the server's median kernel sample to scale them by.
    latencies: list[float] = field(default_factory=list)
    slice_counts: list[int] = field(default_factory=list)
    kernel_s: float = harness.Reference.NOMINAL_SECONDS
    notes: dict = field(default_factory=dict)

    def metrics(self) -> dict:
        """The five end-to-end metrics of ``BENCHMARK.json``.

        The closed-loop operation is one pass -- except on
        ``serve_live``, where it is one HTTP request, ``op_per_s`` is
        the median per-slice request rate and ``op_latency_ms`` the
        99th percentile over all requests (the mixed-route median sits
        on the cliff between point routes and listings).
        """
        if not self.walls:
            raise RuntimeError("no pass completed, nothing to report")
        metric = harness.metric
        passes = len(self.walls)
        pass_s = harness.median(self.walls)
        if self.latencies:
            speed = self.kernel_s / harness.Reference.NOMINAL_SECONDS
            op_per_s = metric(
                harness.median(self.slice_counts) / SLICE_SECONDS * speed,
                "1/s", len(self.slice_counts),
            )
            op_latency = metric(
                harness.percentile(self.latencies, 0.99) * 1e3 / speed,
                "ms", len(self.latencies),
            )
        else:
            op_per_s = metric(1.0 / pass_s, "1/s", passes)
            op_latency = metric(pass_s * 1e3, "ms", passes)
        return {
            "setup_s": metric(self.setup_s, "s", 1),
            "records_per_s": metric(self.records / pass_s, "rec/s", passes),
            "op_per_s": op_per_s,
            "op_latency_ms": op_latency,
            "peak_rss_mb": metric(harness.peak_rss_mb(self.children), "MB", 1),
        }


def closed_loop(one_pass, ctx: Context, budget: float | None = None):
    """Run ``one_pass`` back to back; returns (results, raised).

    ``one_pass`` returns ``(wall_seconds, payload)``; each result is
    ``(raw_wall, scaled_wall, payload)``, the wall scaled by the kernel
    samples taken right before and after that pass.  A pass that raises
    is counted and logged, not fatal: it becomes a failed operation
    with no timing sample.
    """
    budget = ctx.seconds if budget is None else budget
    reference = ctx.reference
    results, raised = [], 0
    before = reference.sample(0.05)
    started = perf_counter()
    while True:
        try:
            wall, payload = one_pass()
        except Exception:
            traceback.print_exc()
            raised += 1
        else:
            after = reference.after(wall)
            results.append((wall, reference.scaled(wall, before, after), payload))
            before = after
        done = len(results) + raised
        if ctx.passes is not None:
            if done >= ctx.passes:
                break
        elif perf_counter() - started >= budget:
            break
    return results, raised


def setup_seconds(ctx: Context, first_op: float, prepare=((), ())):
    """Process start to first timed operation; returns (scaled, raw).

    The preparations enter at their median; the rest (interpreter and
    imports, the server child's start on ``serve_live``, the warm-up
    pass) is scaled by the kernel sample nearest the first operation.
    Time spent sampling the kernel is the bench's, not the program's.
    """
    raw_prepare, scaled_prepare = prepare
    reference = ctx.reference
    rest = first_op - ctx.process_start - reference.spent - sum(raw_prepare)
    now = reference.sample(0.05)
    scaled = reference.scaled(rest, now, now)
    if raw_prepare:
        rest += harness.median(raw_prepare)
        scaled += harness.median(scaled_prepare)
    return scaled, rest


# ---- survey_cold ---------------------------------------------------------


def survey_cold(ctx: Context) -> Outcome:
    from repro.datasets import build_dataset
    from repro.stream import StreamConfig, batch_survey_report

    harness.quiet_telemetry()
    counter = itertools.count()

    def one_pass():
        # What ``repro survey usc`` does on a machine that has never
        # seen the dataset: build, generate + record + observe, report.
        directory = ctx.scratch / f"survey-{next(counter)}"
        harness.use_trace_cache(directory, ctx.scratch)
        started = perf_counter()
        dataset = build_dataset(DATASET, seed=ctx.seed, scale=ctx.scale)
        table = harness.passive_table(dataset)
        records = dataset.replay(table)
        report = harness.survey_report(dataset, table, records, ctx.seed, ctx.scale)
        wall = perf_counter() - started
        # Oracle: the warm columnar replay of the trace this pass just
        # recorded must render the same bytes as the cold scalar pass.
        oracle = batch_survey_report(
            StreamConfig(dataset=DATASET, seed=ctx.seed, scale=ctx.scale), dataset
        )
        shutil.rmtree(directory)
        return wall, (records, report == oracle)

    setup_s, raw_setup_s = setup_seconds(ctx, perf_counter())
    # The other workloads spend PREPARE_REPEATS preparations before
    # their passes; here the preparation *is* the pass, so the same
    # wall time buys that many more samples of it.
    results, raised = closed_loop(
        one_pass, ctx, budget=ctx.seconds * harness.PREPARE_REPEATS
    )
    return Outcome(
        walls=[scaled for _, scaled, _ in results],
        raw_walls=[wall for wall, _, _ in results],
        records=results[0][2][0] if results else 0,
        attempted=len(results) + raised,
        failed=raised + sum(not ok for _, _, (_, ok) in results),
        setup_s=setup_s,
        raw_setup_s=raw_setup_s,
    )


# ---- the four trace-replay workloads -------------------------------------


def _stream_overrides(name: str, ctx: Context) -> dict:
    from repro.faults.plan import FaultPlan
    from repro.simkernel.clock import hours

    if name == "stream_faulted":
        return {"faults": FaultPlan(seed=ctx.seed + 1, **FAULT_RATES)}
    if name == "stream_probing":
        return {
            "probe_policy": "heartbeat", "probe_rate": PROBE_RATE,
            "probe_ports": None,
        }
    if name == "fabric_ckpt":
        return {
            "emit_every": None, "checkpoint_every": hours(24),
            "checkpoint_path": str(ctx.scratch / "checkpoints"),
        }
    return {}


def stream_workload(name: str, ctx: Context) -> Outcome:
    """``stream_clean``, ``stream_faulted``, ``stream_probing``, ``fabric_ckpt``."""
    from repro.stream import (
        FabricConfig,
        FabricSupervisor,
        StreamEngine,
        batch_survey_report,
    )

    dataset, *prepare = harness.prepare_shared_trace(
        ctx.scratch, ctx.seed, ctx.scale, ctx.reference
    )
    harness.quiet_telemetry()
    config = harness.stream_config(
        ctx.seed, ctx.scale, **_stream_overrides(name, ctx)
    )
    fabric = name == "fabric_ckpt"
    probing = name == "stream_probing"

    def one_pass():
        started = perf_counter()
        if fabric:
            result = FabricSupervisor(config, FabricConfig(), dataset=dataset).run()
        else:
            result = StreamEngine(config, dataset=dataset).run()
        wall = perf_counter() - started
        probes = result.snapshot.probes
        return wall, (
            result.records_read,
            result.report,
            probes.issued if probes is not None else None,
            result.checkpoints_written,
        )

    one_pass()  # untimed warm-up
    setup_s, raw_setup_s = setup_seconds(ctx, perf_counter(), prepare)
    results, raised = closed_loop(one_pass, ctx)

    # Oracle, outside the timed region.  Probing replaces the report's
    # active side, so the batch survey is not its reference: a
    # single-shard run is, together with the exact probe count.
    if probing:
        reference = StreamEngine(replace(config, shards=1), dataset=dataset).run()
        expected = (reference.report, int(PROBE_RATE * dataset.duration))
    else:
        expected = (batch_survey_report(config, dataset), None)
    failed = raised + sum(
        (report, issued) != expected for _, _, (_, report, issued, _) in results
    )
    payload = results[0][2] if results else (0, None, None, 0)
    return Outcome(
        walls=[scaled for _, scaled, _ in results],
        raw_walls=[wall for wall, _, _ in results],
        records=payload[0],
        attempted=len(results) + raised,
        failed=failed,
        setup_s=setup_s,
        raw_setup_s=raw_setup_s,
        children=fabric,
        notes={
            "prepare_s": prepare[0],
            "probes_issued": payload[2],
            "checkpoint_generations": payload[3],
        },
    )


# ---- serve_live ------------------------------------------------------------


async def _client_loop(index, client, seed, samples, stop) -> None:
    """One keep-alive connection cycling the six-way mix until *stop*."""
    addresses = ["128.125.0.1"]
    n = 0
    while not stop.is_set():
        _, target = ROUTES[(index + n + seed) % len(ROUTES)]
        target = target.replace("{a}", addresses[n % len(addresses)])
        n += 1
        started = perf_counter()
        try:
            status, body = await asyncio.wait_for(
                client.get(target), REQUEST_TIMEOUT
            )
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError):
            traceback.print_exc()
            await client.close()  # reconnects on the next get
            samples.append((perf_counter(), None, False))
            continue
        finished = perf_counter()
        samples.append((finished, finished - started, status < 500))
        rows = body.get("services") if isinstance(body, dict) else None
        if isinstance(rows, list) and rows:
            addresses = [row["address"] for row in rows]


async def _serve_live(ctx: Context, prepare) -> Outcome:
    from repro.query import QueryClient

    command = [
        sys.executable, str(harness.BENCH_DIR / "serve_child.py"),
        "--seed", str(ctx.seed), "--scale", repr(ctx.scale),
    ]
    if ctx.passes is not None:
        command += ["--passes", str(ctx.passes)]
    child = await asyncio.create_subprocess_exec(
        *command, stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
        limit=1 << 26,  # the final message carries every service row
    )

    async def hear() -> dict:
        line = await asyncio.wait_for(child.stdout.readline(), CHILD_TIMEOUT)
        if not line:
            raise RuntimeError("the serve_live server exited early")
        return json.loads(line)

    def tell(word: str) -> None:
        child.stdin.write(word.encode() + b"\n")

    clients = []
    try:
        port = (await hear())["ready"]
        clients = [QueryClient("127.0.0.1", port) for _ in range(PARALLELISM)]
        samples: list[tuple] = []
        stop = asyncio.Event()
        setup_s, raw_setup_s = setup_seconds(ctx, perf_counter(), prepare)
        tell("go")
        live_start = perf_counter()
        loops = [
            asyncio.ensure_future(_client_loop(i, client, ctx.seed, samples, stop))
            for i, client in enumerate(clients)
        ]
        stopped = asyncio.ensure_future(hear())
        if ctx.passes is None:
            await asyncio.wait({stopped}, timeout=ctx.seconds)
        else:
            await asyncio.wait({stopped}, timeout=CHILD_TIMEOUT)
        tell("stop")
        await stopped  # every complete ingest pass ran under query load
        live_end = perf_counter()
        stop.set()
        await asyncio.gather(*loops)
        status, listing = await clients[0].get("/services")
        tell("quit")
        final = await hear()
        await child.wait()
    finally:
        for client in clients:
            await client.close()
        if child.returncode is None:
            child.kill()
            await child.wait()

    listing_ok = status == 200 and listing["services"] == final["reference_rows"]
    live = [s for s in samples if s[0] <= live_end]
    slices = int((live_end - live_start) / SLICE_SECONDS)
    counts = [0] * slices
    for finished, _, _ in live:
        index = int((finished - live_start) / SLICE_SECONDS)
        if index < slices:
            counts[index] += 1
    walls = final["walls"]
    kernel_s = harness.median(final["kernels"])
    return Outcome(
        walls=[
            wall * ctx.reference.NOMINAL_SECONDS / kernel_s for wall in walls
        ],
        raw_walls=walls,
        records=final["records"],
        attempted=len(samples) + len(walls) + 1,
        failed=(
            sum(not ok for _, _, ok in samples)
            + final["bad_passes"] + (not listing_ok)
        ),
        setup_s=setup_s,
        raw_setup_s=raw_setup_s,
        children=True,
        kernel_s=kernel_s,
        latencies=[latency for _, latency, _ in live if latency is not None],
        # A window shorter than one slice (smoke runs) is one slice.
        slice_counts=counts or [
            round(len(live) * SLICE_SECONDS / (live_end - live_start))
        ],
        notes={
            "prepare_s": prepare[0],
            "requests": len(samples),
            "live_seconds": live_end - live_start,
            "kernel_samples": len(final["kernels"]),
            "listing_rows": len(final["reference_rows"]),
            "server_peak_rss_mb": final["peak_rss_mb"],
        },
    )


def serve_live(ctx: Context) -> Outcome:
    # The parent only needs the trace on disk; the server child builds
    # its own dataset, as a ``repro serve`` process would.
    _, *prepare = harness.prepare_shared_trace(
        ctx.scratch, ctx.seed, ctx.scale, ctx.reference
    )
    return asyncio.run(_serve_live(ctx, prepare))


WORKLOADS = {
    "survey_cold": survey_cold,
    "stream_clean": lambda ctx: stream_workload("stream_clean", ctx),
    "stream_faulted": lambda ctx: stream_workload("stream_faulted", ctx),
    "stream_probing": lambda ctx: stream_workload("stream_probing", ctx),
    "fabric_ckpt": lambda ctx: stream_workload("fabric_ckpt", ctx),
    "serve_live": serve_live,
}
