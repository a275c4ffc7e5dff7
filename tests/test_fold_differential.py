"""The shard fold and the shard split, held to their definitions.

``PassiveServiceTable._count_columns`` folds a batch's (endpoint,
client) pairs with Python work per distinct endpoint.  Its reference is
the per-pair loop it replaced (:func:`reference_count_columns`), and it
must leave the same state *in the same order*: dict key order and each
client set's iteration order are what a checkpoint pickles and what
every later ``set`` walk sees.

``split_columns`` must route every record some passive rule reads
(:func:`_read_by_a_rule`) as the per-record rule
``shard_of(owning_address(record))`` does, in stream order, for any
address and any shard count.  ``route_columns`` -- the row indices the
stream driver hands over instead of copies -- must be that split of the
capture filter's survivors, however its parts are gathered, and each
part must count every kept record its shard owns.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.net.packet import (
    ICMP_PORT_UNREACHABLE,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    PacketRecord,
    TcpFlags,
)
from repro.passive.monitor import PassiveServiceTable
from repro.stream.fabric import _Arena
from repro.stream.shard import (
    owning_address,
    route_columns,
    shard_of,
    split_columns,
)
from repro.trace.columnar import RecordColumns


def reference_count_columns(table, keys, clients, proto) -> None:
    """The per-pair fold: one ``np.unique`` for flow counts, then one
    ``set.add`` per distinct (key, client) pair of a lexsort."""
    unique_keys, counts = np.unique(keys, return_counts=True)
    flow_counts = table.flow_counts
    for key, count in zip(unique_keys.tolist(), counts.tolist()):
        endpoint = (key >> 16, key & 0xFFFF, proto)
        flow_counts[endpoint] = flow_counts.get(endpoint, 0) + count
    order = np.lexsort((clients, keys))
    sorted_keys = keys[order]
    sorted_clients = clients[order]
    fresh = np.r_[
        True,
        (sorted_keys[1:] != sorted_keys[:-1])
        | (sorted_clients[1:] != sorted_clients[:-1]),
    ]
    served_by = table.clients
    for key, client in zip(
        sorted_keys[fresh].tolist(), sorted_clients[fresh].tolist()
    ):
        endpoint = (key >> 16, key & 0xFFFF, proto)
        served = served_by.get(endpoint)
        if served is None:
            served = served_by[endpoint] = set()
        served.add(client)


def _ordered_state(table):
    """Everything the fold writes, with every order made visible."""
    return (
        list(table.flow_counts.items()),
        [(endpoint, list(served)) for endpoint, served in table.clients.items()],
    )


#: Endpoints (address << 16 | port) and clients that collide in a small
#: set's hash table (multiples of 8 and of 32), so a set's iteration
#: order shows the order its members were inserted in; enough of them
#: that sets resize.  Three addresses share 128.125/16, so a batch of
#: those alone ranks its keys by offset; 10.0.0.1 and 200.1.2.3 lie
#: outside it, so a batch with either and any other address spans
#: 2**32 keys or more and ranks them densely.  Ports and clients
#: include both ends of their ranges.
_KEYS = tuple(
    (address << 16) | port
    for address in (
        0x80_7D_FA_01, 0x80_7D_FA_02, 0x80_7D_01_FE, 0x0A_00_00_01,
        0xC8_01_02_03,
    )
    for port in (0, 53, 80, 65535)
)
_CLIENTS = tuple(8 * i for i in range(12)) + tuple(
    0x08_08_08_08 + 32 * i for i in range(12)
) + (0xFFFF_FFFF,)
_PAIRS = st.tuples(st.sampled_from(_KEYS), st.sampled_from(_CLIENTS))
_BATCHES = st.lists(
    st.tuples(
        st.sampled_from((PROTO_TCP, PROTO_UDP)),
        st.lists(_PAIRS, min_size=1, max_size=60),
    ),
    min_size=1, max_size=6,
)


class TestCountColumns:
    @settings(deadline=None, max_examples=200)
    @given(batches=_BATCHES)
    @example(batches=[
        # Repeated pairs, one client in several batches, and endpoints
        # that first appear in the second and third batch.
        (PROTO_TCP, [(_KEYS[0], 8), (_KEYS[0], 8), (_KEYS[1], 0)]),
        (PROTO_TCP, [(_KEYS[2], 8), (_KEYS[0], 16), (_KEYS[0], 8)]),
        (PROTO_TCP, [(_KEYS[3], 8)] + [(_KEYS[0], c) for c in _CLIENTS]),
    ])
    def test_matches_the_per_pair_fold_in_order(self, batches):
        folded = PassiveServiceTable(is_campus=lambda address: True)
        reference = PassiveServiceTable(is_campus=lambda address: True)
        for proto, pairs in batches:
            keys = np.array([key for key, _ in pairs], dtype=np.uint64)
            clients = np.array([client for _, client in pairs], dtype=np.uint32)
            folded._count_columns(keys, clients, proto)
            reference_count_columns(reference, keys, clients, proto)
            assert _ordered_state(folded) == _ordered_state(reference)
        # What a checkpoint writes, byte for byte.
        assert pickle.dumps(folded.flow_counts) == pickle.dumps(
            reference.flow_counts
        )
        assert pickle.dumps(folded.clients) == pickle.dumps(reference.clients)


def _is_campus(address: int) -> bool:
    return (address & 0xFFFF0000) == 0x80_7D_00_00


_is_campus.campus_network = 0x80_7D_00_00
_is_campus.campus_mask = 0xFFFF0000

#: Any 32-bit address, with campus ones drawn often enough that UDP
#: routing takes both sides of its rule.
_ADDRESSES = st.one_of(
    st.integers(min_value=0, max_value=0xFFFF_FFFF),
    st.integers(min_value=0x80_7D_00_00, max_value=0x80_7D_FF_FF),
)


@st.composite
def _records(draw):
    proto = draw(st.sampled_from((PROTO_TCP, PROTO_UDP, PROTO_ICMP)))
    return PacketRecord(
        time=draw(st.floats(min_value=0.0, max_value=1e6)),
        src=draw(_ADDRESSES), dst=draw(_ADDRESSES),
        sport=draw(st.sampled_from((22, 53, 80, 40000))),
        dport=draw(st.sampled_from((22, 53, 80, 40000))),
        proto=proto,
        flags=TcpFlags(draw(st.sampled_from((0x12, 0x10, 0x02, 0x04, 0x16)))),
        link="internet2",
        icmp=ICMP_PORT_UNREACHABLE if proto == PROTO_ICMP else None,
    )


def _bulk_records(seed: int, size: int) -> list[PacketRecord]:
    """*size* seeded records: enough rows per shard that an unstable
    sort would reorder them, and shard index 256 of 257 gets hit."""
    rng = np.random.default_rng(seed)

    def addresses():
        anywhere = rng.integers(0, 1 << 32, size, dtype=np.uint32)
        campus = 0x80_7D_00_00 | rng.integers(0, 1 << 16, size, dtype=np.uint32)
        return np.where(rng.random(size) < 0.4, campus, anywhere)

    return RecordColumns(
        time=rng.random(size) * 1e6,
        src=addresses(),
        dst=addresses(),
        sport=rng.choice(np.array([22, 53, 80, 40000], dtype=np.uint16), size),
        dport=rng.choice(np.array([22, 53, 80, 40000], dtype=np.uint16), size),
        proto=rng.choice(
            np.array([PROTO_TCP, PROTO_UDP, PROTO_ICMP], dtype=np.uint8), size
        ),
        flags=rng.choice(np.array([0x12, 0x10, 0x02, 0x04], dtype=np.uint8), size),
        link=np.full(size, 3, dtype=np.uint8),
        icmp=np.zeros(size, dtype=np.uint8),
    ).to_records()


def _read_by_a_rule(record: PacketRecord) -> bool:
    """The header rule, per record: TCP with the ACK bit, or UDP."""
    if record.proto == PROTO_TCP:
        return bool(record.flags & 0x10)
    return record.proto == PROTO_UDP


def _owned_counts(records, shards: int) -> list[int]:
    """Per shard, how many of *records* the per-record rule routes to it."""
    counts = [0] * shards
    for record in records:
        counts[shard_of(owning_address(record, _is_campus), shards)] += 1
    return counts


class TestSplitColumns:
    @settings(deadline=None, max_examples=60)
    @given(
        records=st.lists(_records(), max_size=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        bulk=st.integers(min_value=0, max_value=3000),
        shards=st.sampled_from((1, 2, 3, 7, 256, 257)),
    )
    def test_parts_are_the_per_record_routing_in_stream_order(
        self, records, seed, bulk, shards
    ):
        records = records + _bulk_records(seed, bulk)
        parts = split_columns(
            RecordColumns.from_records(records), _is_campus, shards
        )
        expected = [[] for _ in range(shards)]
        for record in filter(_read_by_a_rule, records):
            expected[shard_of(owning_address(record, _is_campus), shards)].append(
                record
            )
        assert [part.to_records() for part in parts] == expected


@pytest.fixture(scope="module")
def arena():
    return _Arena(1)


@st.composite
def _keep_masks(draw, size):
    """All kept, none kept, one row kept, or a random drop pattern."""
    kind = draw(st.sampled_from(("all", "none", "one", "random")))
    keep = np.zeros(size, dtype=bool)
    if kind == "all":
        keep[:] = True
    elif kind == "one" and size:
        keep[draw(st.integers(min_value=0, max_value=size - 1))] = True
    elif kind == "random":
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        share = draw(st.floats(min_value=0.0, max_value=1.0))
        keep = np.random.default_rng(seed).random(size) < share
    return keep


class TestRouteColumns:
    @settings(deadline=None, max_examples=60)
    # 16 and 257: shard counts well above what any workload runs.
    @given(data=st.data(), shards=st.sampled_from((1, 2, 3, 8, 16, 257)))
    def test_route_is_the_split_of_the_filtered_batch(
        self, small_dtcp18, record_sample, arena, data, shards
    ):
        lo = data.draw(st.integers(min_value=0, max_value=len(record_sample)))
        hi = data.draw(st.integers(min_value=lo, max_value=len(record_sample)))
        batch = RecordColumns.from_records(record_sample[lo:hi])
        keep = data.draw(_keep_masks(len(batch)))
        is_campus = small_dtcp18.is_campus
        # The filter's mask as it stands (the driver passes None for an
        # all-kept one; TestSplitColumns holds the unmasked route).
        parts = route_columns(batch, is_campus, shards, keep)
        assert [part.columns().to_records() for part in parts] == [
            part.to_records()
            for part in split_columns(batch.compress(keep), is_campus, shards)
        ]

        # Gathered straight into a ring slot, a part leaves the bytes
        # its materialised columns would.
        for part in parts:
            start = data.draw(st.integers(min_value=0, max_value=part.size))
            stop = data.draw(st.integers(min_value=start, max_value=part.size))
            at = data.draw(st.integers(min_value=0, max_value=100))
            arena.write(0, at, part, start, stop)
            arena.write(1, at, part.columns(), start, stop)
            for routed, materialised in zip(*arena.columns[:2]):
                assert (
                    routed[at:at + stop - start].tobytes()
                    == materialised[at:at + stop - start].tobytes()
                )

    @settings(deadline=None, max_examples=60)
    @given(
        records=st.lists(_records(), max_size=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        bulk=st.integers(min_value=0, max_value=3000),
        shards=st.sampled_from((1, 2, 3, 7, 256, 257)),
        data=st.data(),
    )
    def test_parts_count_every_kept_record_their_shard_owns(
        self, records, seed, bulk, shards, data
    ):
        """A part carries only the rows a rule reads, but stands for
        every kept record its shard owns: what a shard counts as folded,
        checkpoints and fault triggers read."""
        records = records + _bulk_records(seed, bulk)
        keep = data.draw(_keep_masks(len(records)))
        parts = route_columns(
            RecordColumns.from_records(records), _is_campus, shards, keep
        )
        kept = [record for record, kept in zip(records, keep) if kept]
        assert [len(part) for part in parts] == _owned_counts(kept, shards)
        assert [part.size for part in parts] == _owned_counts(
            filter(_read_by_a_rule, kept), shards
        )
