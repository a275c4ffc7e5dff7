"""The per-request snapshot scans: the reference model for differential tests.

These are the query views :class:`~repro.query.snapshot.DiscoverySnapshot`
shipped with before it grew a read index: every ``/services``,
``/host/{a}`` and ``/liveness/{a}`` request walked all of
``first_seen``, built a fresh row per matching endpoint with
``service_row`` and sorted the result, and ``/services?limit=N`` cut the
sorted list afterwards.  Each response then encoded its rows afresh with
``json.dumps``.

:class:`ReferenceSnapshot` overrides only those three methods and the two
that hand ``handle_request`` encoded rows (rows, ``last_seen_of``,
versioning and the set views are inherited), so a test comparing it with
its parent class compares exactly the code that was replaced -- and
``handle_request`` over a published reference snapshot answers every
route the way the scans did.
"""

from __future__ import annotations

import json

from repro.query.snapshot import DiscoverySnapshot


def dumps(row: dict) -> bytes:
    return json.dumps(row, separators=(",", ":")).encode()


class ReferenceSnapshot(DiscoverySnapshot):
    def services_json(self, **query) -> list[bytes]:
        return [dumps(row) for row in self.services(**query)]

    def host_services_json(self, address: int) -> list[bytes]:
        return [dumps(row) for row in self.host_services(address)]

    def host_services(self, address: int) -> list[dict]:
        rows = [
            self.service_row(endpoint)
            for endpoint in self.first_seen
            if endpoint[0] == address
        ]
        rows.sort(key=lambda row: (row["port"], row["proto"]))
        return rows

    def services(
        self,
        proto: int | None = None,
        port: int | None = None,
        since: float | None = None,
        limit: int | None = None,
    ) -> list[dict]:
        cutoff = None if since is None else self.now - since
        rows = []
        for endpoint in self.first_seen:
            if proto is not None and endpoint[2] != proto:
                continue
            if port is not None and endpoint[1] != port:
                continue
            if cutoff is not None and self.last_seen_of(endpoint) < cutoff:
                continue
            rows.append(self.service_row(endpoint))
        rows.sort(key=lambda row: (row["address"], row["port"], row["proto"]))
        return rows if limit is None else rows[:limit]

    def passive_last_seen(self, address: int) -> float | None:
        times = [
            self.last_seen_of(endpoint)
            for endpoint in self.first_seen
            if endpoint[0] == address
        ]
        return max(times) if times else None
