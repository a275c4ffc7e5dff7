"""Run ingest and the query service together: ``python -m repro serve``.

The glue layer: one ingest thread drives the streaming engine (or the
fabric supervisor) with a snapshot publisher, while the main thread
runs the asyncio server.  The two meet only at
:class:`~repro.query.state.QueryState` -- ingest publishes immutable
snapshots, request handlers read them -- so neither side ever waits on
the other.

Lifecycle: the service starts answering immediately (version-0 empty
snapshot), announces ``serving on http://host:port`` on stderr (the
subprocess tests parse this), keeps serving after ingest completes (the
final snapshot is the complete state), and shuts down cleanly on
SIGTERM/SIGINT: the engine is asked to stop, which it does at its next
batch boundary (checkpointing if configured; ingest then reads
``stopped``, not ``finished``), the listener closes, and the process
exits 0 -- or 1 when ingest failed.

This module is imported lazily by the CLI only: it pulls in
:mod:`repro.stream`, which itself uses :mod:`repro.query.snapshot`, so
importing it from ``repro.query.__init__`` would be a cycle.
"""

from __future__ import annotations

import asyncio
import signal
import sys
import threading
from typing import Callable

from repro.query.http import QueryService
from repro.query.liveness import ActiveView
from repro.query.state import QueryState


def run_serve(
    config,
    *,
    host: str = "127.0.0.1",
    port: int = 8080,
    fabric=None,
    dataset=None,
) -> int:
    """Serve *config*'s stream; blocks until SIGTERM/SIGINT.

    *fabric* (a :class:`repro.stream.FabricConfig`) selects the process
    fabric; ``None`` runs the in-process threaded engine.  Tracing and
    ``--telemetry`` exports belong to the caller's
    :func:`repro.telemetry.run_scope`: under a tracer the serving
    process (and, in fabric mode, every shard worker) writes causally
    linked events, ``/tracez`` serves the recent ring, and ``/healthz``
    reports flight-recorder state.  Returns the process exit code.
    """
    from repro.stream import StreamEngine
    from repro.telemetry import enable

    enable()  # /metricsz needs a live registry even without --telemetry
    if fabric is not None:
        from repro.stream import FabricSupervisor

        supervisor = FabricSupervisor(config, fabric, dataset)
        engine = supervisor.engine
    else:
        supervisor = None
        engine = StreamEngine(config, dataset)
    state = QueryState(ActiveView.from_dataset(engine.dataset))
    return asyncio.run(_serve_until_signalled(
        state, lambda: ingest(state, engine, supervisor),
        engine.request_stop, host, port,
    ))


def ingest(state: QueryState, engine, supervisor=None) -> None:
    """Run *engine* (or the fabric *supervisor*) into *state*; its end
    is the ingest status: ``finished``, ``stopped`` or ``failed``."""
    try:
        if supervisor is not None:
            supervisor.run(
                publisher=state,
                on_event=lambda line: print(line, file=sys.stderr),
                on_health=state.update_fabric,
            )
        else:
            engine.run(publisher=state)
    except KeyboardInterrupt:
        state.mark_stopped()  # stopped at a batch boundary: clean
    except BaseException as exc:  # noqa: BLE001 - surfaced via /healthz
        state.mark_failed(repr(exc))
        print(f"serve: ingest failed: {exc!r}", file=sys.stderr)
    else:
        state.mark_finished()


async def _serve_until_signalled(
    state: QueryState,
    ingest,
    stop: Callable[[], None],
    host: str,
    port: int,
) -> int:
    service = QueryService(state, host=host, port=port)
    await service.start()
    print(f"serving on http://{host}:{service.port}", file=sys.stderr, flush=True)
    loop = asyncio.get_running_loop()
    signalled = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, signalled.set)
    thread = threading.Thread(target=ingest, name="repro-serve-ingest", daemon=True)
    thread.start()
    try:
        await signalled.wait()
    finally:
        stop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.remove_signal_handler(signum)
        await service.close()
    # A bounded join: ingest unwinds at its next batch boundary; if none
    # remains (the stream already ended) the thread is already done.
    await loop.run_in_executor(None, thread.join, 5.0)
    health = state.health()
    print(
        f"serve: shutdown (ingest {health['ingest']}, "
        f"snapshot v{health['snapshot_version']}, "
        f"{health['endpoints']} endpoints)",
        file=sys.stderr,
    )
    return 1 if health["ingest"] == "failed" else 0
