"""Lock-light hand-off between the ingest thread and the read path.

One :class:`QueryState` instance sits between exactly one publisher
(the engine's or fabric supervisor's thread, at snapshot boundaries)
and any number of readers (the asyncio request handlers).  The
protocol keeps both sides honest:

* ``publish`` stamps the snapshot with the next version number and
  swaps a single attribute reference.  The tiny lock serialises
  *publishers* and the version counter only.
* ``snapshot`` is one attribute read -- atomic under the interpreter,
  no lock, never blocks, and the object it returns is frozen, so a
  reader can take seconds over a response while ingest publishes ten
  more versions.

Consistency model: every response is computed against exactly one
snapshot (a consistent stream prefix -- copied behind the records fed),
and versions observed by any single reader are monotone.
"""

from __future__ import annotations

import threading

from repro.query.liveness import ActiveView
from repro.query.snapshot import DiscoverySnapshot


class QueryState:
    """Published snapshot + ingest status shared with the HTTP layer."""

    def __init__(self, active: ActiveView | None = None):
        self._lock = threading.Lock()
        self._snapshot = DiscoverySnapshot(version=0, now=0.0, records=0)
        self.active = active if active is not None else ActiveView(sweeps=())
        self._status = "starting"
        self._error: str | None = None
        self._fabric: list[dict] | None = None

    # ---- publisher side (ingest thread) -------------------------------

    def publish(self, snapshot: DiscoverySnapshot) -> DiscoverySnapshot:
        """Stamp *snapshot* with the next version and make it current."""
        with self._lock:
            stamped = snapshot.with_version(self._snapshot.version + 1)
            self._snapshot = stamped
            if self._status == "starting":
                self._status = "running"
        return stamped

    def mark_finished(self) -> None:
        with self._lock:
            self._status = "finished"

    def mark_stopped(self) -> None:
        """Ingest was asked to stop before its stream ended (not a fault)."""
        with self._lock:
            self._status = "stopped"

    def mark_failed(self, error: str) -> None:
        with self._lock:
            self._status = "failed"
            self._error = error

    def update_fabric(self, shards: list[dict]) -> None:
        """Record the fabric's latest per-shard membership health.

        Called (throttled) from the supervisor's ``on_health`` hook;
        the list is replaced wholesale, so readers see one coherent
        generation of the table.
        """
        with self._lock:
            self._fabric = shards

    # ---- reader side (request handlers) -------------------------------

    def snapshot(self) -> DiscoverySnapshot:
        """The current published snapshot (lock-free attribute read)."""
        return self._snapshot

    def health(self) -> dict:
        """``GET /healthz`` body; ``ok`` iff ingest has not failed.

        In fabric mode the body carries per-shard membership health
        (incarnation, restart count, answer age, whether it owes an
        answer) so a degraded-but-serving fabric is visible to clients;
        with tracing enabled it
        also carries the serving process's flight-recorder state.
        """
        snapshot = self._snapshot
        status = self._status
        body = {
            "ok": status != "failed",
            "ingest": status,
            "error": self._error,
            "snapshot_version": snapshot.version,
            "records": snapshot.records,
            "now": snapshot.now,
            "endpoints": len(snapshot.first_seen),
        }
        if snapshot.probes is not None:
            # Online probing: policy, probes issued, sweep progress --
            # read off the published snapshot, so health and query
            # answers describe the same consistent cut.
            body["probes"] = snapshot.probes.health()
        if self._fabric is not None:
            body["fabric"] = self._fabric
        from repro.telemetry.tracing import tracer

        trc = tracer()
        if trc.enabled:
            body["flight"] = trc.flight.state()
        return body
