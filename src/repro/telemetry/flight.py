"""The flight recorder: a bounded ring of recent trace events.

Aggregate metrics answer "how much"; the flight recorder answers "what
happened *just before* it went wrong".  Every traced process keeps the
last ``limit`` events in a :class:`collections.deque` -- recording is
one append, cheap enough for per-batch notes -- and dumps the ring to
an atomic JSON file when something fails: a worker's injected crash, a
supervisor failover, a degraded run, an ingest stall.

Dumps are **once per key**: the first caller of :meth:`FlightRecorder.dump`
with a given key writes the file, every later caller is a no-op.  That
makes "exactly one post-mortem per incident" a property of the recorder
rather than a discipline every call site must re-implement, and it is
what the ``FabricDegradedError`` exactly-once test pins down.  Dumps
are written with :func:`repro.durable.write_atomic`, as checkpoints are.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from pathlib import Path

from repro.durable import write_atomic

#: Default ring capacity: enough to cover several barrier rounds of
#: notes either side of a failure without holding the whole run.
DEFAULT_FLIGHT_LIMIT = 512

#: Dump files are named ``flight-<process>-<key>.json``.
FLIGHT_PREFIX = "flight-"


class FlightRecorder:
    """Bounded ring buffer of recent events with once-per-key dumps."""

    def __init__(
        self, limit: int = DEFAULT_FLIGHT_LIMIT, process: str = "main"
    ) -> None:
        if limit < 1:
            raise ValueError("flight recorder limit must be >= 1")
        self.limit = limit
        self.process = process
        self._ring: deque = deque(maxlen=limit)
        self._dumps: dict[str, str] = {}
        self._lock = threading.Lock()

    def record(self, entry: dict) -> None:
        """Append one event (old events fall off the far end)."""
        self._ring.append(entry)

    def snapshot(self) -> list[dict]:
        """The buffered events, oldest first (a copy; safe to mutate)."""
        return list(self._ring)

    def dump(self, directory: str | Path, key: str, reason: str) -> Path | None:
        """Write the ring to ``flight-<process>-<key>.json``, once.

        Returns the written path, or ``None`` when *key* was already
        dumped (every incident gets exactly one post-mortem file).
        """
        with self._lock:
            if key in self._dumps:
                return None
            directory = Path(directory)
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / f"{FLIGHT_PREFIX}{self.process}-{key}.json"
            payload = {
                "process": self.process,
                "pid": os.getpid(),
                "key": key,
                "reason": reason,
                "dumped_unix": time.time(),
                "events": list(self._ring),
            }
            write_atomic(
                path,
                json.dumps(payload, separators=(",", ":")).encode("utf-8"),
            )
            self._dumps[key] = path.name
        from repro.telemetry.metrics import registry

        reg = registry()
        if reg.enabled:
            reg.counter(
                "repro_trace_flight_dumps_total",
                "Flight-recorder post-mortem dumps written.",
            ).inc()
        return path

    def state(self) -> dict:
        """Health summary for ``/healthz``: buffer fill and dumps taken."""
        with self._lock:
            return {
                "limit": self.limit,
                "buffered": len(self._ring),
                "dumps": sorted(self._dumps.values()),
            }


class NullFlightRecorder(FlightRecorder):
    """Shared do-nothing recorder handed out by the null tracer."""

    def __init__(self) -> None:
        super().__init__(limit=1, process="null")

    def record(self, entry: dict) -> None:
        pass

    def dump(self, directory: str | Path, key: str, reason: str) -> None:
        return None

    def state(self) -> dict:
        return {"limit": 0, "buffered": 0, "dumps": []}
