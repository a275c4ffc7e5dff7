"""The order-dependent columnar rules against their per-record references.

HANDSHAKE confirmation, BIDIRECTIONAL UDP and the count-budget sampler
decide a record by what came before it on its flow (or in its window),
and the probabilistic sampler by a hash of the record's text; all four
run as column code.  Each property here feeds one generated stream
through the reference (``tests/passive_reference.py``, one record at a
time) and through ``observe_columns`` under random batch cuts, and
requires the same state.  The streams come from a universe of two
servers, two clients and two client ports, so flows collide and pair
across cuts; the ``@example`` cases pin the sequences that matter: an
ACK before its SYN-ACK, SYN-ACK SYN-ACK ACK, ACK ACK, a pair split by a
cut, a key still pending at the end, and a request after its reply.
"""

from __future__ import annotations

import pickle

from hypothesis import example, given, settings, strategies as st

from repro.net.packet import PROTO_TCP, PROTO_UDP, PacketRecord, TcpFlags
from repro.passive.monitor import PassiveServiceTable, ServiceSignal, UdpSignal
from repro.passive.sampling import (
    CountBudgetSampler,
    ProbabilisticSampler,
    SamplingTable,
)
from repro.simkernel.clock import minutes
from repro.stream.shard import ShardState
from repro.trace.columnar import RecordColumns
from tests.passive_reference import (
    ReferenceCountBudgetSampler,
    ReferenceProbabilisticSampler,
    ReferenceSamplingTable,
)

CAMPUS = 0x80_7D_00_00
OUTSIDE = 0x10_00_00_00
SERVERS = (CAMPUS + 1, CAMPUS + 2)
CLIENTS = (OUTSIDE + 1, OUTSIDE + 2)
CLIENT_PORTS = (40000, 40001)


def is_campus(address: int) -> bool:
    return (address >> 16) == (CAMPUS >> 16)


def event(kind, server=0, client=0, cport=0, time=0.0, link="commercial1"):
    """One packet of a (server, client, cport) conversation.

    *kind*: ``synack`` / ``ack`` / ``syn`` on TCP port 80, ``reply`` /
    ``request`` on UDP port 53; the rest are noise on an unwatched port.
    """
    server, client = SERVERS[server], CLIENTS[client]
    cport = CLIENT_PORTS[cport]
    proto, bits, from_server, port = {
        "synack": (PROTO_TCP, 0x12, True, 80),
        "ack": (PROTO_TCP, 0x10, False, 80),
        "syn": (PROTO_TCP, 0x02, False, 80),
        "reply": (PROTO_UDP, 0, True, 53),
        "request": (PROTO_UDP, 0, False, 53),
        "noise": (PROTO_UDP, 0, True, 99),
    }[kind]
    if from_server:
        src, dst, sport, dport = server, client, port, cport
    else:
        src, dst, sport, dport = client, server, cport, port
    return PacketRecord(
        time=time, src=src, dst=dst, sport=sport, dport=dport, proto=proto,
        flags=TcpFlags(bits), link=link,
    )


_EVENTS = st.lists(
    st.builds(
        event,
        kind=st.sampled_from(
            ["synack", "synack", "ack", "ack", "syn", "reply", "request",
             "noise"]
        ),
        server=st.integers(0, 1),
        client=st.integers(0, 1),
        cport=st.integers(0, 1),
        time=st.sampled_from([0.0, 1.0, 2.5, 3600.0])
        | st.floats(0.0, 4 * 3600.0),
        link=st.sampled_from(["commercial1", "internet2"]),
    ),
    max_size=60,
)
_CUTS = st.lists(st.integers(0, 60), max_size=5)


def batches(records, cuts):
    """*records* as column batches cut at *cuts* (repeats = empty)."""
    bounds = [0, *sorted(min(cut, len(records)) for cut in cuts), len(records)]
    for lo, hi in zip(bounds, bounds[1:]):
        cols = RecordColumns.from_records(records[lo:hi])
        cols._records = None  # a columnar rule must not need them
        yield cols


def strict_table(**overrides):
    config = dict(
        is_campus=is_campus, tcp_ports=frozenset({80}),
        udp_ports=frozenset({53}), signal=ServiceSignal.HANDSHAKE,
        udp_signal=UdpSignal.BIDIRECTIONAL,
    )
    config.update(overrides)
    return PassiveServiceTable(**config)


def table_state(table):
    return (
        table.first_seen, table.last_seen, table.flow_counts, table.clients,
        table._pending_handshake, table._udp_requests,
    )


_ACK_FIRST = [event("ack", time=1.0), event("synack", time=0.0)]
_TWO_OFFERS = [
    event("synack", time=5.0), event("synack", time=3.0),
    event("ack", time=4.0),
]
_ACK_ACK = [
    event("ack", time=0.5), event("ack", time=1.0),
    event("synack", time=2.0), event("ack", time=3.0), event("ack", time=4.0),
]
_SPLIT_PAIR = [event("synack", time=2.0), event("ack", time=1.0)]
_REPLY_FIRST = [
    event("reply", time=1.0), event("request", time=0.0),
    event("reply", time=2.0), event("reply", client=1, time=3.0),
]


class TestStrictSignals:
    @settings(deadline=None, max_examples=300)
    @given(records=_EVENTS, cuts=_CUTS)
    @example(records=_ACK_FIRST, cuts=[])
    @example(records=_TWO_OFFERS, cuts=[])
    @example(records=_TWO_OFFERS, cuts=[1, 2])
    @example(records=_ACK_ACK, cuts=[1, 3])
    @example(records=_SPLIT_PAIR, cuts=[1])
    @example(records=[event("synack", time=7.0)], cuts=[])
    @example(records=_REPLY_FIRST, cuts=[])
    @example(records=_REPLY_FIRST, cuts=[2])
    def test_handshake_and_bidirectional(self, records, cuts):
        reference, batched = strict_table(), strict_table()
        for record in records:
            reference.observe(record)
        for cols in batches(records, cuts):
            batched.observe_columns(cols)
            assert cols._records is None
        assert table_state(batched) == table_state(reference)

    @settings(deadline=None, max_examples=100)
    @given(records=_EVENTS, cuts=_CUTS)
    @example(records=_SPLIT_PAIR, cuts=[1])
    def test_links_and_excluded_clients(self, records, cuts):
        """The strict rules see only the table's links and never an
        excluded client's conversation."""
        overrides = dict(
            links=frozenset({"commercial1"}),
            exclude_sources=frozenset({CLIENTS[1]}),
        )
        reference, batched = strict_table(**overrides), strict_table(**overrides)
        for record in records:
            reference.observe(record)
        for cols in batches(records, cuts):
            batched.observe_columns(cols)
        assert table_state(batched) == table_state(reference)

    def test_split_pair_confirms_at_the_earlier_time(self):
        table = strict_table()
        for cols in batches(_SPLIT_PAIR, [1]):
            table.observe_columns(cols)
        assert table.first_seen == {(SERVERS[0], 80, PROTO_TCP): 1.0}
        assert table._pending_handshake == {}

    def test_pending_key_survives_the_pass(self):
        table = strict_table()
        for cols in batches(_ACK_FIRST, []):
            table.observe_columns(cols)
        assert table.first_seen == {}
        assert table._pending_handshake == {
            (SERVERS[0], CLIENTS[0], CLIENT_PORTS[0], 80): 0.0
        }

    @settings(deadline=None, max_examples=100)
    @given(records=_EVENTS, cut=st.integers(0, 60))
    @example(records=_SPLIT_PAIR, cut=1)
    @example(records=_REPLY_FIRST, cut=2)
    def test_shard_checkpoint_inside_a_pair(self, records, cut):
        """A ``ShardState`` checkpointed between a SYN-ACK and its ACK
        (or a request and its reply) resumes into the same state."""
        reference = strict_table()
        for record in records:
            reference.observe(record)
        first = ShardState(0, strict_table())
        head, tail = records[:cut], records[cut:]
        for cols in batches(head, []):
            first.observe_columns(cols)
        resumed = ShardState(0, strict_table())
        resumed.restore_state(pickle.loads(pickle.dumps(first.state_dict())))
        for cols in batches(tail, []):
            resumed.observe_columns(cols)
        assert table_state(resumed.table) == table_state(reference)
        assert resumed.records == len(records)


_TIMES = st.lists(
    st.sampled_from([0.0, 0.1, minutes(59.999), minutes(60), 1e-7])
    | st.floats(0.0, 5 * 3600.0),
    max_size=80,
)


def timed_records(times):
    return [
        event(
            ["synack", "reply", "ack"][index % 3], server=index % 2,
            client=(index // 2) % 2, time=time,
        )
        for index, time in enumerate(times)
    ]


class TestSamplers:
    @settings(deadline=None, max_examples=200)
    @given(
        times=_TIMES, cuts=_CUTS, budget=st.integers(1, 4),
        period=st.sampled_from([1.0, 30.0, 60.0]),
        anchor=st.sampled_from([0.0, 30.0]),
    )
    @example(
        times=[0.0, 0.0, 3600.0, 0.0, 0.0, 0.0], cuts=[2, 4], budget=2,
        period=60.0, anchor=0.0,
    )
    def test_count_budget(self, times, cuts, budget, period, anchor):
        """Windows are runs in arrival order: a window the stream
        leaves and comes back to starts a fresh budget, and a run cut
        by a batch boundary keeps counting."""
        records = timed_records(times)
        config = dict(
            budget_per_period=budget, period_minutes=period, anchor=anchor
        )
        reference = ReferenceSamplingTable(
            strict_table(), ReferenceCountBudgetSampler(**config)
        )
        batched = SamplingTable(strict_table(), CountBudgetSampler(**config))
        for record in records:
            reference.observe(record)
        for cols in batches(records, cuts):
            batched.observe_columns(cols)
        assert (batched.kept, batched.dropped) == (
            reference.kept, reference.dropped,
        )
        assert table_state(batched.table) == table_state(reference.table)
        assert (batched.sampler._window_index, batched.sampler._taken) == (
            reference.sampler._window_index, reference.sampler._taken,
        )

    @settings(deadline=None, max_examples=200)
    @given(
        times=_TIMES, cuts=_CUTS, salt=st.integers(0, 2**40),
        probability=st.sampled_from([1 / 6, 0.5, 1.0])
        | st.floats(0.01, 1.0),
    )
    def test_probabilistic(self, times, cuts, salt, probability):
        records = timed_records(times)
        reference = ReferenceSamplingTable(
            strict_table(), ReferenceProbabilisticSampler(probability, salt)
        )
        batched = SamplingTable(
            strict_table(), ProbabilisticSampler(probability, salt)
        )
        for record in records:
            reference.observe(record)
        for cols in batches(records, cuts):
            batched.observe_columns(cols)
        assert (batched.kept, batched.dropped) == (
            reference.kept, reference.dropped,
        )
        assert table_state(batched.table) == table_state(reference.table)
