"""Differential tests: the snapshot read index against the per-request scans.

``DiscoverySnapshot`` answers ``/services``, ``/host/{a}`` and
``/liveness/{a}`` from an index built once per snapshot;
:mod:`tests.query_reference` is the walk-every-endpoint implementation
it replaced.  The two must return the same rows in the same order --
compared as JSON bytes, so a float of a different sign shows -- for
every filter combination over random snapshots, and ``handle_request``
must answer the bench's six routes with the same bytes over either --
twice per snapshot, so the second answer is assembled from the row
bytes the first one cached.

The index must also cost what it claims: nothing on the ingest side
(no published snapshot is indexed unless something reads it), one
``service_row`` per endpoint per snapshot on the read side, and at most
one JSON encoding per row per snapshot.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.net.addr import MAX_IPV4, format_ipv4, parse_ipv4
from repro.net.packet import PROTO_TCP, PROTO_UDP
from repro.query import ActiveView, DiscoverySnapshot, QueryState, handle_request
from repro.query import snapshot as snapshot_module
from repro.simkernel.clock import hours
from repro.stream import StreamConfig, StreamEngine
from tests.query_reference import ReferenceSnapshot

#: Must match the session-scoped ``small_dtcp18`` fixture's build.
SMALL = dict(dataset="DTCP1-18d", seed=7, scale=0.04)

#: Addresses whose dotted strings sort unlike their integers
#: ("10.0.0.10" < "10.0.0.9"), plus the ends of the space.
ADDRESSES = [
    parse_ipv4(text)
    for text in ("10.0.0.9", "10.0.0.10", "10.0.0.100", "9.255.255.255",
                 "100.0.0.1", "0.0.0.0", "255.255.255.255")
]
#: TCP, UDP and two protocols the API has no name for ("1", "132").
PROTOS = [PROTO_TCP, PROTO_UDP, 1, 132]
PORTS = [0, 22, 53, 80, 443, 8080, 65535]
#: Repeated values make ties; -0.0 against 0.0 is a tie ``max`` keeps
#: the first of, which JSON tells apart.
TIMES = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, hours(1), hours(12), hours(48)]),
    st.floats(0.0, hours(100), allow_nan=False),
)

#: The request mix of ``bench/workloads.py``; ``{a}`` is an address.
ROUTES = (
    "/services?proto=tcp&since=48h&limit=100",
    "/services?limit=25",
    "/watermarks",
    "/healthz",
    "/host/{a}",
    "/liveness/{a}",
)


@st.composite
def snapshot_fields(draw) -> dict:
    """Constructor fields of a random snapshot.

    Only some endpoints have a ``last_seen``, ``flows`` or ``clients``
    entry, as in a real merge.
    """
    address = st.one_of(st.sampled_from(ADDRESSES), st.integers(0, MAX_IPV4))
    endpoints = draw(st.lists(
        st.tuples(address, st.sampled_from(PORTS), st.sampled_from(PROTOS)),
        unique=True, max_size=30,
    ))
    return dict(
        version=0,
        now=draw(TIMES),
        records=len(endpoints),
        first_seen={endpoint: draw(TIMES) for endpoint in endpoints},
        last_seen={e: draw(TIMES) for e in endpoints if draw(st.booleans())},
        flows={e: draw(st.integers(1, 9)) for e in endpoints if draw(st.booleans())},
        clients={e: draw(st.integers(1, 9)) for e in endpoints if draw(st.booleans())},
    )


def compact(payload) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode()


def both(fields: dict) -> tuple[DiscoverySnapshot, ReferenceSnapshot]:
    return DiscoverySnapshot(**fields), ReferenceSnapshot(**fields)


def same(left, right) -> None:
    assert json.dumps(left) == json.dumps(right)


@settings(max_examples=150, deadline=None)
@given(
    fields=snapshot_fields(),
    port=st.sampled_from(PORTS),
    since=TIMES,
    limit=st.integers(0, 35),
)
# A last-seen tie whose first_seen order is not its (port, proto) order.
@example(
    fields=dict(version=0, now=1.0, records=2, first_seen={
        (ADDRESSES[0], 443, PROTO_TCP): -0.0, (ADDRESSES[0], 80, PROTO_TCP): 0.0,
    }),
    port=80, since=1.0, limit=1,
)
# "10.0.0.10" lists before "10.0.0.9", though 10 > 9.
@example(
    fields=dict(version=0, now=hours(1), records=2, first_seen={
        (ADDRESSES[0], 80, PROTO_TCP): 1.0, (ADDRESSES[1], 80, PROTO_TCP): 2.0,
    }),
    port=80, since=hours(1), limit=1,
)
def test_index_matches_scan_reference(fields, port, since, limit):
    indexed, reference = both(fields)
    for proto in (None, *PROTOS):
        for port_filter in (None, port):
            for since_filter in (None, since, float("inf"), float("nan")):
                for limit_filter in (None, limit):
                    query = dict(proto=proto, port=port_filter,
                                 since=since_filter, limit=limit_filter)
                    same(indexed.services(**query), reference.services(**query))
    for address in {endpoint[0] for endpoint in fields["first_seen"]} | {1}:
        same(indexed.host_services(address), reference.host_services(address))
        same(indexed.passive_last_seen(address),
             reference.passive_last_seen(address))


def active_view(addresses) -> ActiveView:
    """Two sweeps over every other address: every liveness verdict."""
    found = frozenset(addresses[::2])
    return ActiveView(sweeps=((hours(10), found), (hours(60), frozenset())))


def assert_routes_agree(fields: dict, active: ActiveView, addresses) -> None:
    indexed_state, reference_state = QueryState(active), QueryState(active)
    indexed, reference = both(fields)
    indexed_state.publish(indexed)
    reference_state.publish(reference)
    targets = [
        route.replace("{a}", format_ipv4(address))
        for route in ROUTES
        for address in (addresses if "{a}" in route else addresses[:1])
    ]
    for _ in range(2):  # the second pass answers from cached row bytes
        for target in targets:
            answer = handle_request(indexed_state, "GET", target)
            assert answer == handle_request(reference_state, "GET", target), (
                target
            )
            # The assembled body is what json.dumps gives for the whole
            # payload (floats round-trip, so re-encoding is exact).
            body = answer[2]
            assert compact(json.loads(body)) == body, target


@settings(max_examples=60, deadline=None)
@given(fields=snapshot_fields())
def test_routes_answer_reference_bytes_on_random_snapshots(fields):
    addresses = sorted({endpoint[0] for endpoint in fields["first_seen"]})
    assert_routes_agree(
        fields, active_view(addresses), addresses + [parse_ipv4("10.9.9.9")]
    )


@pytest.fixture(scope="module")
def final_snapshot(small_dtcp18):
    config = StreamConfig(**SMALL, shards=2)
    return StreamEngine(config, dataset=small_dtcp18).run().snapshot


def test_routes_answer_reference_bytes_on_a_stream_snapshot(
    final_snapshot, small_dtcp18
):
    fields = {
        field.name: getattr(final_snapshot, field.name)
        for field in dataclasses.fields(final_snapshot)
    }
    passive = final_snapshot.server_addresses()
    active_only = sorted(small_dtcp18.active_addresses() - passive)
    assert len(passive) > 25 and active_only
    assert_routes_agree(
        fields, ActiveView.from_dataset(small_dtcp18),
        sorted(passive)[::7] + active_only[:5],
    )


class _Recorder(QueryState):
    def __init__(self):
        super().__init__()
        self.published: list[DiscoverySnapshot] = []

    def publish(self, snapshot):
        stamped = super().publish(snapshot)
        self.published.append(stamped)
        return stamped


def indexed(snapshot: DiscoverySnapshot) -> bool:
    return "_read_index" in vars(snapshot)


def test_ingest_never_builds_the_index(small_dtcp18):
    recorder = _Recorder()
    config = StreamConfig(**SMALL, shards=2, snapshot_every=hours(6))
    result = StreamEngine(config, dataset=small_dtcp18).run(publisher=recorder)
    assert len(recorder.published) > 2
    assert not any(indexed(snapshot) for snapshot in recorder.published)
    assert not indexed(result.snapshot)
    handle_request(recorder, "GET", "/services?limit=1")
    assert indexed(recorder.published[-1])
    assert not any(indexed(snapshot) for snapshot in recorder.published[:-1])


def test_reads_build_each_row_once_per_snapshot(monkeypatch, final_snapshot):
    calls = []
    row = DiscoverySnapshot.service_row

    def counted(self, endpoint):
        calls.append(endpoint)
        return row(self, endpoint)

    monkeypatch.setattr(DiscoverySnapshot, "service_row", counted)
    state = QueryState()
    address = format_ipv4(min(final_snapshot.server_addresses()))
    targets = ("/services?limit=25", "/services?proto=tcp&since=48h&limit=100",
               f"/host/{address}", f"/liveness/{address}")
    endpoints = len(final_snapshot.first_seen)
    for version in (1, 2):
        state.publish(final_snapshot)
        for target in targets:
            assert handle_request(state, "GET", target)[0] == 200
        assert len(calls) == version * endpoints
    assert sorted(calls[:endpoints]) == sorted(final_snapshot.first_seen)


def test_reads_encode_each_row_at_most_once_per_snapshot(
    monkeypatch, final_snapshot
):
    encoded = []
    encode = snapshot_module.compact_json

    def counted(row):
        encoded.append((row["address"], row["port"], row["proto"]))
        return encode(row)

    # The snapshot module encodes rows and nothing else (the HTTP layer
    # binds its own name for whole bodies).
    monkeypatch.setattr(snapshot_module, "compact_json", counted)
    state = QueryState()
    addresses = sorted(final_snapshot.server_addresses())[:5]
    targets = ("/services", "/services?limit=25",
               "/services?proto=tcp&since=48h&limit=100",
               *(f"/host/{format_ipv4(address)}" for address in addresses))
    endpoints = len(final_snapshot.first_seen)
    for version in (1, 2):
        state.publish(final_snapshot)
        for _ in range(3):
            for target in targets:
                assert handle_request(state, "GET", target)[0] == 200
        this_version = encoded[(version - 1) * endpoints:]
        # "/services" lists every row: each is encoded exactly once.
        assert len(this_version) == endpoints
        assert len(set(this_version)) == endpoints


def test_listing_memo_stays_bounded_under_hostile_since(final_snapshot):
    """A snapshot keeps the first ``LISTING_MEMO`` listings it answers
    and answers an equal query from them; a flood of distinct ``since=``
    values is answered right and grows the memo no further."""
    fields = {
        field.name: getattr(final_snapshot, field.name)
        for field in dataclasses.fields(final_snapshot)
    }
    indexed, reference = both(fields)
    queries = [dict(since=float(since)) for since in range(0, 4000, 3)]
    queries += [dict(proto=PROTO_TCP, since=hours(48), limit=100),
                dict(limit=25), dict(since=float("nan"))]
    for query in queries + queries:  # the second round can hit the memo
        same(indexed.services(**query), reference.services(**query))
    assert len(indexed._listings) == snapshot_module.LISTING_MEMO
    kept = indexed._listing(None, None, 0.0, None)
    assert indexed._listing(None, None, -0.0, None) is kept
    late = indexed._listing(None, None, 3999.0, None)
    assert indexed._listing(None, None, 3999.0, None) is not late
    assert len(indexed._listings) == snapshot_module.LISTING_MEMO
