"""Per-shard discovery state and the shard routing function.

The streaming engine partitions the record stream by *campus server
address*: every record is routed to the shard that owns whatever
passive-table state the record could touch.  The passive rules
(Section 3.2) key all evidence by the campus side of a conversation:

* a TCP SYN-ACK is evidence about its **source** (the campus server
  answering), and seeds handshake-confirmation state under the source;
* a bare TCP ACK updates flow/client accounting (and completes a
  pending handshake) for its **destination**;
* a UDP datagram leaving campus is evidence about its **source**; an
  inbound datagram feeds request tracking for its **destination**.

Because the owning address is a pure function of the record, shard
states are disjoint and merging them is a dict union -- results are
identical at any shard count, which the equivalence tests assert at
1, 2, and 8 shards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.net.packet import PROTO_TCP, PROTO_UDP, PacketRecord
from repro.passive.monitor import (
    Endpoint, PassiveServiceTable, _campus_mask, _port_lut,
)

#: Fibonacci-style multiplier spreading contiguous campus addresses
#: across shards (addresses within one /24 would otherwise all land on
#: the same few shards under plain modulo).
_HASH_MULTIPLIER = 0x9E3779B1


def owning_address(record: PacketRecord, is_campus: Callable[[int], bool]) -> int:
    """The address whose shard owns any state this record can touch."""
    proto = record.proto
    if proto == PROTO_TCP:
        flags = record.flags._value_
        if flags & 0x02 and flags & 0x10:  # SYN-ACK: about the sender
            return record.src
        return record.dst
    if proto == PROTO_UDP:
        return record.src if is_campus(record.src) else record.dst
    return record.dst


def shard_of(address: int, shards: int) -> int:
    """Deterministic shard index for an owning address."""
    if shards <= 1:
        return 0
    return ((address * _HASH_MULTIPLIER) & 0xFFFFFFFF) % shards


def split_columns(cols, is_campus: Callable[[int], bool], shards: int) -> list:
    """Partition one batch into per-shard sub-batches (in order).

    The owning-address rule (:func:`owning_address`, per record) is
    evaluated with ``np.where`` over the whole batch, hashed with
    :func:`shard_of`'s multiplier, and the batch is permuted once with
    a *stable* argsort so each shard's sub-batch preserves stream
    order -- the invariant the per-link fault and handshake state
    machines rely on.  The hash wraps in ``uint32`` (:func:`shard_of`'s
    mask); a ``uint16`` shard index makes the stable sort a radix sort.
    """
    if shards <= 1:
        return [cols]
    src = cols.src
    dst = cols.dst
    proto = cols.proto
    tcp = proto == PROTO_TCP
    synack = tcp & ((cols.flags & 0x12) == 0x12)
    udp_out = (proto == PROTO_UDP) & _campus_mask(is_campus, src)
    owning = np.where(synack | udp_out, src, dst).astype(np.uint32, copy=False)
    shard_index = (owning * np.uint32(_HASH_MULTIPLIER)) % np.uint32(shards)
    if shards <= 1 << 16:
        shard_index = shard_index.astype(np.uint16)
    order = np.argsort(shard_index, kind="stable")
    routed = cols.take(order)
    counts = np.bincount(shard_index, minlength=shards)
    bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
    return [
        routed.slice(bounds[index], bounds[index + 1])
        for index in range(shards)
    ]


@dataclass
class ShardState:
    """One shard's long-lived discovery state.

    Wraps a real :class:`PassiveServiceTable` (so folding a batch is
    exactly the batch-replay code path) plus the streaming extras: a
    per-endpoint *last-seen* timeline and a processed-record counter.
    """

    index: int
    table: PassiveServiceTable
    #: endpoint -> latest evidence time (first_seen lives in the table).
    last_seen: dict[Endpoint, float] = field(default_factory=dict)
    records: int = 0

    def observe_columns(self, cols) -> None:
        """Fold one routed sub-batch into the shard state: the table's
        ``observe_columns`` plus a group-max update of the last-seen
        timeline.

        Last-seen maintenance mirrors the table's evidence filter for
        the two signals that stamp first_seen on the default rules
        (SYN-ACK, UDP source port); it is supplementary state and
        never feeds the completeness report.
        """
        table = self.table
        table.observe_columns(cols)
        self.records += len(cols)
        proto = cols.proto
        sport = cols.sport
        evidence = (proto == PROTO_TCP) & ((cols.flags & 0x12) == 0x12)
        if table.tcp_ports is not None:
            evidence &= _port_lut(table.tcp_ports)[sport]
        if table.udp_ports:
            evidence |= (proto == PROTO_UDP) & _port_lut(table.udp_ports)[sport]
        src = cols.src
        dst = cols.dst
        evidence &= _campus_mask(table.is_campus, src)
        evidence &= ~_campus_mask(table.is_campus, dst)
        exclude = table.exclude_sources
        if exclude:
            evidence &= ~np.isin(dst, np.fromiter(exclude, dtype=np.uint32))
        index = np.flatnonzero(evidence)
        if not index.size:
            return
        src_e = src[index]
        sport_e = sport[index]
        proto_e = proto[index]
        times = cols.time[index]
        keys = (
            (src_e.astype(np.uint64) << np.uint64(24))
            | (sport_e.astype(np.uint64) << np.uint64(8))
            | proto_e
        )
        order = np.lexsort((times, keys))
        sorted_keys = keys[order]
        group_last = order[np.r_[sorted_keys[1:] != sorted_keys[:-1], True]]
        last_seen = self.last_seen
        for address, port, proto_value, time in zip(
            src_e[group_last].tolist(),
            sport_e[group_last].tolist(),
            proto_e[group_last].tolist(),
            times[group_last].tolist(),
        ):
            endpoint = (address, port, proto_value)
            previous = last_seen.get(endpoint)
            if previous is None or time > previous:
                last_seen[endpoint] = time

    def addresses_by(self, mark: float) -> set[int]:
        """Addresses with an endpoint first seen at or before *mark*:
        this shard's answer to a watermark request."""
        return {
            address
            for (address, _port, _proto), seen in self.table.first_seen.items()
            if seen <= mark
        }

    # ---- checkpointing ------------------------------------------------

    def state_dict(self) -> dict:
        """Plain-data snapshot of every mutable field (picklable)."""
        table = self.table
        return {
            "index": self.index,
            "records": self.records,
            "first_seen": dict(table.first_seen),
            "flow_counts": dict(table.flow_counts),
            "clients": {k: set(v) for k, v in table.clients.items()},
            "pending_handshake": dict(table._pending_handshake),
            "udp_requests": set(table._udp_requests),
            "last_seen": dict(self.last_seen),
        }

    def restore_state(self, payload: dict) -> None:
        """Load a :meth:`state_dict` snapshot (table config unchanged)."""
        table = self.table
        table.first_seen = dict(payload["first_seen"])
        table.flow_counts = dict(payload["flow_counts"])
        table.clients = {k: set(v) for k, v in payload["clients"].items()}
        table._pending_handshake = dict(payload["pending_handshake"])
        table._udp_requests = set(payload["udp_requests"])
        self.last_seen = dict(payload["last_seen"])
        self.records = int(payload["records"])


def merge_shards(
    states: list[ShardState], merged: PassiveServiceTable
) -> PassiveServiceTable:
    """Union every shard's table state into *merged* (a fresh table).

    Shard key spaces are disjoint by construction, so the union is a
    plain dict update per field -- the merged table is indistinguishable
    from one that observed the whole stream itself, which is what makes
    streamed reports byte-identical to batch reports.
    """
    for state in states:
        table = state.table
        merged.first_seen.update(table.first_seen)
        merged.flow_counts.update(table.flow_counts)
        merged.clients.update(table.clients)
        merged._pending_handshake.update(table._pending_handshake)
        merged._udp_requests.update(table._udp_requests)
    return merged


def merged_last_seen(states: list[ShardState]) -> dict[Endpoint, float]:
    """Union of every shard's last-seen timeline (disjoint keys)."""
    out: dict[Endpoint, float] = {}
    for state in states:
        out.update(state.last_seen)
    return out
