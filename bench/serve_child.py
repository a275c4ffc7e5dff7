"""Server side of ``serve_live``: ``repro serve``'s shape, driven by pipes.

One process holds a ``QueryState``, a ``QueryService`` on an ephemeral
port, and one ingest thread that re-runs the streaming engine over the
recorded trace back to back, publishing snapshots -- reads and writes
meeting only at the published snapshot, contending for one GIL.  The
load generator (``workloads.serve_live``) is the parent process and
talks to this one over stdin/stdout, one JSON object or command per
line::

    child  -> {"ready": port, "setup_s": s}      after build + warm-up pass
    parent -> go                                  ingest passes start
    parent -> stop                                finish the current pass
    child  -> {"stopped": passes}
    parent -> quit                                after its final listing
    child  -> {"walls": [...], "kernels": [...], "records": n,
               "bad_passes": k, "reference_rows": [...], "peak_rss_mb": x}

``kernels`` are :class:`harness.Reference` samples the parent scales
every ``serve_live`` number by.  They are taken between ingest passes,
at most one per ``KERNEL_EVERY`` seconds, *on the event-loop thread
while the ingest thread waits*: for those ~10 ms nothing else in this
process runs, so neither the handlers nor ingest -- the program under
test -- can move the sample.  The one or two requests in flight wait it
out; at three samples a second that is under 0.5 % of requests, below
the 99th percentile the parent reports.

``reference_rows`` comes from one more pass run after ``quit`` with no
publisher and no client connected: the rows of an un-queried run, which
the parent's final exhaustive ``/services`` listing must equal.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
import traceback
from time import perf_counter

PROCESS_START = perf_counter()
KERNEL_EVERY = 0.3

import harness  # noqa: E402 - the clock above must start first


def say(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


async def serve(dataset, config, max_passes: int | None) -> None:
    from repro.query import ActiveView, QueryService, QueryState
    from repro.stream import StreamEngine

    loop = asyncio.get_running_loop()
    state = QueryState(ActiveView.from_dataset(dataset))
    service = QueryService(state, port=0)
    await service.start()
    ready, stopped = asyncio.Event(), asyncio.Event()
    go, stop = threading.Event(), threading.Event()
    reference = harness.Reference()
    walls: list[float] = []
    kernels: list[float] = []
    reports: list[str] = []

    def sample_kernel() -> None:
        """From the ingest thread: run the kernel alone in this process."""
        sampled = threading.Event()

        def on_loop() -> None:
            kernels.append(reference.once())
            sampled.set()

        loop.call_soon_threadsafe(on_loop)
        sampled.wait()

    def run_pass(publisher):
        return StreamEngine(config, dataset=dataset).run(publisher=publisher)

    def ingest() -> None:
        try:
            run_pass(state)  # untimed warm-up; leaves a full snapshot up
            loop.call_soon_threadsafe(ready.set)
            go.wait()
            next_kernel = 0.0
            while not stop.is_set() and (
                max_passes is None or len(walls) < max_passes
            ):
                if perf_counter() >= next_kernel:
                    sample_kernel()
                    next_kernel = perf_counter() + KERNEL_EVERY
                started = perf_counter()
                result = run_pass(state)
                walls.append(perf_counter() - started)
                reports.append(result.report)
        except Exception:
            # Reported as a failed pass; the parent must not hang.
            traceback.print_exc()
            reports.append("ingest raised")
            loop.call_soon_threadsafe(ready.set)
        finally:
            loop.call_soon_threadsafe(stopped.set)

    thread = threading.Thread(target=ingest, name="bench-ingest", daemon=True)
    thread.start()
    commands = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(commands), sys.stdin
    )

    async def expect(word: bytes) -> None:
        line = await commands.readline()
        if line.strip() != word:
            raise RuntimeError(f"expected {word!r} from the parent, got {line!r}")

    try:
        await ready.wait()
        say({"ready": service.port, "setup_s": perf_counter() - PROCESS_START})
        await expect(b"go")
        go.set()
        stop_line = asyncio.ensure_future(expect(b"stop"))
        done = asyncio.ensure_future(stopped.wait())
        await asyncio.wait({stop_line, done}, return_when=asyncio.FIRST_COMPLETED)
        stop.set()
        await done
        say({"stopped": len(walls)})
        await stop_line
        await expect(b"quit")
        reference = run_pass(None)
        say({
            "walls": walls,
            "kernels": kernels,
            "records": reference.records_read,
            "bad_passes": sum(r != reference.report for r in reports),
            "reference_rows": reference.snapshot.services(),
            "peak_rss_mb": harness.peak_rss_mb(),
        })
    finally:
        stop.set()
        go.set()
        await service.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--passes", type=int, default=None)
    args = parser.parse_args(argv)

    harness.require_source()
    from repro.datasets import build_dataset
    from repro.simkernel.clock import hours

    dataset = build_dataset(harness.DATASET, seed=args.seed, scale=args.scale)
    harness.trace_path(dataset)  # a miss would silently regenerate per pass
    harness.quiet_telemetry()
    config = harness.stream_config(
        args.seed, args.scale,
        emit_every=None, snapshot_every=hours(6),
    )
    asyncio.run(serve(dataset, config, args.passes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
