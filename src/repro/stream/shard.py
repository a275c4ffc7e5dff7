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
1, 2, and 8 shards.  A shard counts every record it owns but is handed
only the rows some rule reads (:func:`route_columns`).

A shard's state is a :class:`PassiveServiceTable` and a record count.
The table alone decides what is evidence and keeps first- and
last-seen; this module only routes records to it, answers what the
driver asks of it (:class:`ShardServant`) and unions tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.net.packet import PROTO_TCP, PROTO_UDP, PacketRecord
from repro.passive.monitor import (
    Endpoint,
    PassiveServiceTable,
    _campus_mask,
    _run_starts,
    readable_mask,
)
from repro.query.snapshot import shard_snapshot_payload

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


class RoutedPart:
    """One shard's rows of a batch, not yet gathered.

    *rows* indexes *batch* in stream order; ``None`` means every row (a
    plain batch handed over as a part).  The copy is made where the
    rows are consumed -- :meth:`columns` on a shard thread, or straight
    into a fabric ring slot -- never on the thread that routes.

    ``len(part)`` is *records*: how many records of the stream the
    part stands for, which is what a shard counts as folded.  A routed
    part carries only the rows some passive rule reads
    (:func:`~repro.passive.monitor.readable_mask`), so it may stand for
    more records than it has rows (:attr:`size`).
    """

    __slots__ = ("batch", "rows", "records")

    def __init__(
        self, batch, rows: np.ndarray | None = None,
        records: int | None = None,
    ) -> None:
        self.batch = batch
        self.rows = rows
        self.records = self.size if records is None else records

    def __len__(self) -> int:
        return self.records

    @property
    def size(self) -> int:
        """Rows the part carries."""
        return len(self.batch) if self.rows is None else len(self.rows)

    @property
    def link_names(self) -> tuple[str, ...]:
        return self.batch.link_names

    def columns(self):
        """The part's rows as their own batch (one gather)."""
        return self.batch if self.rows is None else self.batch.take(self.rows)


def as_routed(part) -> RoutedPart:
    """*part* as a :class:`RoutedPart`: a plain batch is all of its rows."""
    return part if type(part) is RoutedPart else RoutedPart(part)


def route_columns(
    cols, is_campus: Callable[[int], bool], shards: int,
    keep: np.ndarray | None = None,
) -> list[RoutedPart]:
    """Decide which rows of one batch go to which shard (in order).

    The owning-address rule (:func:`owning_address`, per record) is
    evaluated as one branch-free select over the whole batch and hashed
    with :func:`shard_of`'s multiplier (wrapping in ``uint32``, its
    mask).  *keep* (the capture filter's boolean mask; ``None``: every
    row) restricts the route to the rows it keeps.  A part counts every
    kept record its shard owns, but carries only those some passive
    rule reads (:func:`~repro.passive.monitor.readable_mask`), so a
    shard folds to the state, and counts to the record total, of one
    handed all of its records.  Each shard's rows come out ascending --
    stream order, the invariant the per-link fault and handshake state
    machines rely on.  Each part indexes *cols* itself; nothing is
    copied.
    """
    readable = readable_mask(cols.proto, cols.flags)
    if keep is not None:
        readable &= keep
    rows = np.flatnonzero(readable)
    if shards <= 1:
        records = len(cols) if keep is None else int(np.count_nonzero(keep))
        return [RoutedPart(cols, rows, records)]
    src = cols.src
    dst = cols.dst
    proto = cols.proto
    synack = (proto == PROTO_TCP) & ((cols.flags & 0x12) == 0x12)
    udp_out = (proto == PROTO_UDP) & _campus_mask(is_campus, src)
    # np.where(synack | udp_out, src, dst) without its per-row branch:
    # an all-ones mask picks src.
    owning = (synack | udp_out).astype(np.uint32)
    np.negative(owning, out=owning)
    owning &= src ^ dst
    owning ^= dst
    # Hashed in place: the addresses are not needed again.
    owning *= np.uint32(_HASH_MULTIPLIER)
    owning %= np.uint32(shards)
    owners = owning[rows]
    mine = np.empty(len(owning), dtype=bool)
    read = np.empty(len(owners), dtype=bool)
    parts = []
    for index in range(shards):
        np.equal(owning, index, out=mine)
        if keep is not None:
            mine &= keep
        np.equal(owners, index, out=read)
        parts.append(RoutedPart(
            cols, rows.compress(read), int(np.count_nonzero(mine))
        ))
    return parts


def split_columns(cols, is_campus: Callable[[int], bool], shards: int) -> list:
    """Partition one batch into per-shard sub-batches (in order).

    :func:`route_columns`' parts, gathered: the materialised form the
    routing tests hold the stream's parts to.  Like the parts, each
    holds only the rows some passive rule reads.
    """
    return [
        part.columns() for part in route_columns(cols, is_campus, shards)
    ]


@dataclass
class ShardState:
    """One shard's long-lived discovery state.

    Wraps a real :class:`PassiveServiceTable` (so folding a batch is
    exactly the batch-replay code path; the table keeps first- and
    last-seen) plus a processed-record counter.
    """

    index: int
    table: PassiveServiceTable
    records: int = 0

    def observe_columns(self, part) -> None:
        """Fold one routed part into the shard state.

        A :class:`RoutedPart`'s rows are gathered here, on the thread
        that folds them; a plain batch is folded as it is.  The record
        count grows by every record the part stands for.
        """
        part = as_routed(part)
        if part.size:
            self.table.observe_columns(part.columns())
        self.records += len(part)

    def addresses_by(self, mark: float) -> set[int]:
        """Addresses with an endpoint first seen at or before *mark*:
        the definition :meth:`addresses_by_marks` answers by."""
        return {
            address
            for (address, _port, _proto), seen in self.table.first_seen.items()
            if seen <= mark
        }

    def addresses_by_marks(self, marks) -> list[set[int]]:
        """:meth:`addresses_by` of each of *marks*, in one pass: this
        shard's answer to a ``marks`` request.

        Each address's earliest first-seen is taken once, and the
        addresses are ordered by it; a mark's answer is then the prefix
        at or before it.  A NaN time sorts last, so, as ``seen <=
        mark`` does, it answers no mark.
        """
        first_seen = self.table.first_seen
        count = len(first_seen)
        seen = np.fromiter(first_seen.values(), dtype=np.float64, count=count)
        addresses = np.fromiter(
            (address for address, _port, _proto in first_seen),
            dtype=np.uint32, count=count,
        )
        order = np.lexsort((seen, addresses))
        addresses, seen = addresses[order], seen[order]
        earliest = _run_starts(addresses)
        addresses, seen = addresses[earliest], seen[earliest]
        order = np.argsort(seen, kind="stable")
        seen, addresses = seen[order], addresses[order].tolist()
        return [
            set(addresses[:np.searchsorted(seen, mark, side="right")])
            for mark in marks
        ]

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
            "last_seen": dict(table.last_seen),
        }

    def restore_state(self, payload: dict) -> None:
        """Load a :meth:`state_dict` snapshot (table config unchanged).

        A snapshot may also carry ``udp_requests``, the always-empty
        state of a UDP rule no table runs any more; it is ignored.
        """
        table = self.table
        table.first_seen = dict(payload["first_seen"])
        table.flow_counts = dict(payload["flow_counts"])
        table.clients = {k: set(v) for k, v in payload["clients"].items()}
        table._pending_handshake = dict(payload["pending_handshake"])
        table.last_seen = dict(payload["last_seen"])
        self.records = int(payload["records"])


@dataclass
class ShardServant:
    """One shard's state and the only code that acts on it.

    Both transports queue requests behind a shard's parts and hand each
    to :meth:`handle` wherever the state lives -- a shard thread
    (:mod:`repro.stream.ingest`) or a worker process
    (:mod:`repro.stream.fabric`) -- so every answer covers exactly the
    parts queued before its request.  ``ckpt`` writes to *store* under
    the run's *identity*.
    """

    state: ShardState
    store: object = None
    identity: dict | None = None

    def handle(self, request: tuple):
        """Act on one ``(kind, key, arg)`` request; return the answer.

        ``rows`` folds the part *arg* (answers ``None``); ``marks``
        answers :meth:`ShardState.addresses_by_marks` of the marks
        *arg*, one set per mark; ``ckpt``
        writes the shard's file of generation *key* and answers its
        size; ``snap`` answers the shard's query-snapshot payload.
        """
        kind, key, arg = request
        state = self.state
        if kind == "rows":
            state.observe_columns(arg)
            return None
        if kind == "marks":
            return state.addresses_by_marks(arg)
        if kind == "ckpt":
            return self.store.save_shard(
                state.index, key, self.identity, state.state_dict()
            )
        if kind == "snap":
            return shard_snapshot_payload(state)
        raise ValueError(f"unknown shard request {kind!r}")


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
        merged.last_seen.update(table.last_seen)
        merged.flow_counts.update(table.flow_counts)
        merged.clients.update(table.clients)
        merged._pending_handshake.update(table._pending_handshake)
    return merged


def merged_last_seen(states: list[ShardState]) -> dict[Endpoint, float]:
    """Union of every shard's last-seen timeline (disjoint keys).

    Nothing in the package calls this: :func:`merge_shards` carries
    ``last_seen`` with the other table fields.  It survives only
    because the frozen ``bench/layers.py`` imports it; the next
    ``benchmark`` PR drops the call and the function together.
    """
    return {k: v for state in states for k, v in state.table.last_seen.items()}
