"""Immutable, versioned snapshots of merged discovery state.

The query service must answer from shard state *while ingest keeps
mutating it*.  Rather than locking the shard tables (stalling ingest)
or reading them live (tearing responses), shards publish
**copy-on-publish snapshots**: at each snapshot boundary every shard
copies its per-endpoint maps behind the records fed before the request
-- so the state is a consistent stream prefix -- and the engine merges
them into one :class:`DiscoverySnapshot`.
Publication swaps a single reference (:mod:`repro.query.state`), after
which the snapshot is never mutated; any number of concurrent readers
answer from it without coordination, and ingest resumes untouched.

The same structures are the *final* merge: ``finalize_result`` in
:mod:`repro.stream.engine` builds its completeness summary from
``DiscoverySnapshot.server_addresses()``, so the rendered report and
an exhaustive ``/services`` query are two views of one object -- they
cannot disagree (the equivalence test in ``tests/test_query.py`` pins
this).

Two layers, so the fabric can ship snapshots across processes:

* :func:`shard_snapshot_payload` -- one shard's contribution as a
  plain picklable dict (workers produce these for ``snap`` requests);
* :func:`merge_snapshot_payloads` -- dict-union of payloads into a
  :class:`DiscoverySnapshot` (shard key spaces are disjoint by
  construction, exactly like ``merge_shards``).

:func:`snapshot_states` composes the two for the in-process engine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Iterable, Mapping

from repro.net.addr import format_ipv4
from repro.net.packet import PROTO_TCP, PROTO_UDP

#: A service endpoint, keyed the way the passive table keys it.
Endpoint = tuple[int, int, int]  # (address, port, proto)

#: Protocol numbers <-> the names the JSON API speaks.
PROTO_NAMES = {PROTO_TCP: "tcp", PROTO_UDP: "udp"}
PROTO_NUMBERS = {name: number for number, name in PROTO_NAMES.items()}

#: What kind of passive evidence backs an endpoint, by protocol: the
#: paper's Section 3.2 rules (a SYN-ACK from campus; a campus datagram
#: sourced at a watched UDP port).
EVIDENCE = {PROTO_TCP: "syn-ack", PROTO_UDP: "udp-sport"}

#: Dotted quads, formatted once per address, not once per service.
_dotted = lru_cache(maxsize=1 << 16)(format_ipv4)

#: Distinct ``/services`` listings a snapshot keeps once computed: the
#: first this many (proto, port, since, limit) queries it answers.  A
#: constant, so hostile ``since=`` values cannot grow it.
LISTING_MEMO = 16

#: Compact JSON, as every response body is encoded.
compact_json = json.JSONEncoder(separators=(",", ":")).encode


def _row_json(entry: list) -> bytes:
    """A read-index entry's row bytes, encoded on first use and kept."""
    if entry[3] is None:
        entry[3] = compact_json(entry[2]).encode()
    return entry[3]


def shard_snapshot_payload(state) -> dict:
    """One shard's snapshot contribution as plain picklable data.

    *state* is a :class:`repro.stream.shard.ShardState` (duck-typed;
    this module must not import :mod:`repro.stream`).  Client sets are
    reduced to counts -- queries report cardinality, and counts ship
    across the fabric's process boundary far cheaper than sets.
    """
    table = state.table
    return {
        "records": state.records,
        "first_seen": dict(table.first_seen),
        "last_seen": dict(table.last_seen),
        "flows": dict(table.flow_counts),
        "clients": {
            endpoint: len(clients) for endpoint, clients in table.clients.items()
        },
    }


@dataclass(frozen=True)
class DiscoverySnapshot:
    """One immutable published view of merged discovery state.

    ``now`` is the stream time the snapshot covers (every record at or
    before it is folded in -- the same contract as a watermark);
    ``version`` is the publication sequence number stamped by
    :class:`~repro.query.state.QueryState`.  The maps are merged across
    shards and must never be mutated after construction.

    Every endpoint a passive table produced has a ``last_seen`` (the
    table stamps both times together); :meth:`last_seen_of` falls back
    to ``first_seen`` only for snapshots built by hand without one.

    The query views read a per-snapshot index (:attr:`_read_index`)
    built by the first reader that needs it, on that reader's thread;
    publishing and ``finalize_result`` never build it, so ingest never
    pays for it.  The index's row dicts, and each row's JSON bytes once
    a response has encoded them, are shared by every response from
    this snapshot; the dicts must never be mutated.  So are the
    ``/services`` listings it has answered, up to
    :data:`LISTING_MEMO` of them.
    """

    version: int
    now: float
    records: int
    first_seen: Mapping[Endpoint, float] = field(default_factory=dict)
    last_seen: Mapping[Endpoint, float] = field(default_factory=dict)
    flows: Mapping[Endpoint, int] = field(default_factory=dict)
    clients: Mapping[Endpoint, int] = field(default_factory=dict)
    watermarks: tuple = ()
    #: Online-probing evidence at the same consistent cut (a
    #: :class:`repro.probe.scheduler.ProbeEvidenceView`; duck-typed so
    #: this module never imports :mod:`repro.probe`).  ``None`` for
    #: passive-only runs -- readers then fall back to the build-time
    #: :class:`~repro.query.liveness.ActiveView`.
    probes: object | None = None

    # ---- set views (the report's inputs) ------------------------------

    def endpoints(self) -> set[Endpoint]:
        """All (address, port, proto) endpoints with recorded evidence."""
        return set(self.first_seen)

    def server_addresses(self) -> set[int]:
        """Addresses with at least one discovered service.

        This is the passive set the final report's completeness summary
        is computed from -- the report/query no-disagreement anchor.
        """
        return {address for address, _, _ in self.first_seen}

    def last_seen_of(self, endpoint: Endpoint) -> float:
        """Latest evidence time for *endpoint* (first-seen fallback)."""
        seen = self.last_seen.get(endpoint)
        return seen if seen is not None else self.first_seen[endpoint]

    # ---- query views (the JSON API's rows) ----------------------------

    def service_row(self, endpoint: Endpoint) -> dict:
        """One endpoint as the JSON object every query endpoint returns."""
        address, port, proto = endpoint
        return {
            "address": _dotted(address),
            "port": port,
            "proto": PROTO_NAMES.get(proto, str(proto)),
            "evidence": EVIDENCE.get(proto, "unknown"),
            "first_seen": self.first_seen[endpoint],
            "last_seen": self.last_seen_of(endpoint),
            "flows": self.flows.get(endpoint, 0),
            "clients": self.clients.get(endpoint, 0),
        }

    @cached_property
    def _read_index(self) -> tuple[list, dict]:
        """``(listing, hosts)``: every row, built once per snapshot.

        ``listing`` holds ``[endpoint, last_seen, row, json]`` per
        endpoint in the order ``/services`` lists them (address string,
        port, proto name); ``json`` is the row's encoded bytes, filled
        in by the first response that embeds it (:func:`_row_json`).
        ``hosts`` maps an address to ``(entries, passive last-seen)``,
        its entries in (port, proto name) order.  Concurrent first
        readers may each build it; the results are equal and one
        reference wins.
        """
        keyed = []
        last: dict[int, float] = {}
        for endpoint in self.first_seen:
            row = self.service_row(endpoint)
            address, seen = endpoint[0], row["last_seen"]
            keyed.append((
                (row["address"], endpoint[1], row["proto"]),
                [endpoint, seen, row, None],
            ))
            # max() in first_seen order, as the per-request scan took
            # it: a tie keeps the first float (-0.0 and 0.0 differ in
            # JSON).
            if address not in last or seen > last[address]:
                last[address] = seen
        keyed.sort(key=itemgetter(0))
        listing = [entry for _, entry in keyed]
        hosts: dict[int, tuple[list, float]] = {}
        for entry in listing:
            address = entry[0][0]
            hosts.setdefault(address, ([], last[address]))[0].append(entry)
        return listing, hosts

    def _host(self, address: int) -> list[list]:
        entry = self._read_index[1].get(address)
        return entry[0] if entry is not None else []

    def host_services(self, address: int) -> list[dict]:
        """Every service of one address, sorted by (port, proto)."""
        return [entry[2] for entry in self._host(address)]

    def host_services_json(self, address: int) -> list[bytes]:
        """:meth:`host_services`, each row as its JSON bytes."""
        return [_row_json(entry) for entry in self._host(address)]

    @cached_property
    def _listings(self) -> dict:
        """The memo :meth:`_listing` fills, at most :data:`LISTING_MEMO`
        entries; a query past that is answered by a scan, unkept."""
        return {}

    def _listing(self, proto, port, since, limit) -> list[list]:
        """The read-index entries a listing query matches, in order:
        the same list for every equal query to this snapshot, which
        callers must not mutate."""
        key = (proto, port, since, limit)
        memo = self._listings
        matched = memo.get(key)
        if matched is None:
            matched = self._scan(proto, port, since, limit)
            if len(memo) < LISTING_MEMO:
                memo[key] = matched
        return matched

    def _scan(self, proto, port, since, limit) -> list[list]:
        cutoff = None if since is None else self.now - since
        matched: list[list] = []
        if limit == 0:
            return matched
        for entry in self._read_index[0]:
            endpoint = entry[0]
            # Keep on ``not seen < cutoff``; ``seen >= cutoff`` would
            # turn a NaN cutoff from every row into none.
            if ((proto is None or endpoint[2] == proto)
                    and (port is None or endpoint[1] == port)
                    and (cutoff is None or not entry[1] < cutoff)):
                matched.append(entry)
                if len(matched) == limit:
                    break
        return matched

    def services(
        self,
        proto: int | None = None,
        port: int | None = None,
        since: float | None = None,
        limit: int | None = None,
    ) -> list[dict]:
        """Filtered service listing (``GET /services``), sorted stably.

        *since* keeps endpoints whose latest evidence is within that
        many seconds of ``now`` -- "all HTTPS servers seen in the last
        12h" is ``proto=6, port=443, since=43200``.  *limit* stops the
        scan after that many matches.
        """
        return [entry[2] for entry in self._listing(proto, port, since, limit)]

    def services_json(self, proto=None, port=None, since=None, limit=None):
        """:meth:`services`, each row as its JSON bytes."""
        return [_row_json(e) for e in self._listing(proto, port, since, limit)]

    def passive_last_seen(self, address: int) -> float | None:
        """Latest passive evidence across all of one address's services."""
        entry = self._read_index[1].get(address)
        return entry[1] if entry is not None else None

    def with_version(self, version: int) -> "DiscoverySnapshot":
        """A copy stamped with a publication sequence number."""
        return replace(self, version=version)


def merge_snapshot_payloads(
    payloads: Iterable[dict],
    now: float,
    records: int,
    watermarks: Iterable = (),
    version: int = 0,
    probes: object | None = None,
) -> DiscoverySnapshot:
    """Union per-shard payloads into one snapshot (disjoint keys).

    The same dict-union ``merge_shards`` performs on live tables, over
    the plain-data payloads each shard answers a ``snap`` round with --
    from a shard thread or across the fabric's pipes alike.
    """
    first_seen: dict[Endpoint, float] = {}
    last_seen: dict[Endpoint, float] = {}
    flows: dict[Endpoint, int] = {}
    clients: dict[Endpoint, int] = {}
    for payload in payloads:
        first_seen.update(payload["first_seen"])
        last_seen.update(payload["last_seen"])
        flows.update(payload["flows"])
        clients.update(payload["clients"])
    return DiscoverySnapshot(
        version=version,
        now=now,
        records=records,
        first_seen=first_seen,
        last_seen=last_seen,
        flows=flows,
        clients=clients,
        watermarks=tuple(watermarks),
        probes=probes,
    )


def snapshot_states(
    states: Iterable,
    now: float,
    records: int,
    watermarks: Iterable = (),
    version: int = 0,
    probes: object | None = None,
) -> DiscoverySnapshot:
    """Copy-on-publish snapshot of in-process shard states.

    Call only at a consistent cut (finished shard states); the returned
    snapshot is immutable and safe to hand to concurrent readers.
    """
    return merge_snapshot_payloads(
        (shard_snapshot_payload(state) for state in states),
        now=now,
        records=records,
        watermarks=watermarks,
        version=version,
        probes=probes,
    )
