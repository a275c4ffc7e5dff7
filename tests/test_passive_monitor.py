"""Tests for the passive service table and observer framework."""

import pytest

from repro.net.packet import (
    PROTO_TCP,
    PacketRecord,
    TcpFlags,
    tcp_rst,
    tcp_syn,
    tcp_synack,
    udp_datagram,
)
from repro.passive.monitor import PassiveServiceTable, ServiceSignal, replay
from repro.passive.sampling import SamplingTable
from repro.trace.columnar import RecordColumns
from tests.passive_reference import ReferenceSamplingTable

CAMPUS = 0x80_7D_00_00  # 128.125.0.0
OUTSIDE = 0x10_00_00_00


def is_campus(address: int) -> bool:
    return (address >> 16) == (CAMPUS >> 16)


def table(**kwargs) -> PassiveServiceTable:
    defaults = dict(is_campus=is_campus, tcp_ports=frozenset({21, 22, 80, 443, 3306}))
    defaults.update(kwargs)
    return PassiveServiceTable(**defaults)


def handshake(t, client, server, port, cport=40000, link=""):
    return [
        tcp_syn(t, client, server, cport, port, link),
        tcp_synack(t + 0.05, server, client, port, cport, link),
        PacketRecord(
            time=t + 0.1, src=client, dst=server, sport=cport, dport=port,
            proto=PROTO_TCP, flags=TcpFlags.ACK, link=link,
        ),
    ]


class TestSynackSignal:
    def test_synack_records_service(self):
        monitor = table()
        for packet in handshake(10.0, OUTSIDE + 1, CAMPUS + 5, 80):
            monitor.observe(packet)
        assert (CAMPUS + 5, 80, PROTO_TCP) in monitor.endpoints()
        assert monitor.server_addresses() == {CAMPUS + 5}

    def test_first_seen_is_synack_time(self):
        monitor = table()
        for packet in handshake(10.0, OUTSIDE + 1, CAMPUS + 5, 80):
            monitor.observe(packet)
        assert monitor.first_seen[(CAMPUS + 5, 80, PROTO_TCP)] == pytest.approx(10.05)

    def test_min_kept_under_disorder(self):
        monitor = table()
        monitor.observe(tcp_synack(20.0, CAMPUS + 5, OUTSIDE + 1, 80, 40000))
        monitor.observe(tcp_synack(10.0, CAMPUS + 5, OUTSIDE + 2, 80, 40001))
        assert monitor.first_seen[(CAMPUS + 5, 80, PROTO_TCP)] == 10.0

    def test_direction_filter_outbound_browse_ignored(self):
        """Campus client browsing an outside server must not register."""
        monitor = table()
        monitor.observe(tcp_syn(1.0, CAMPUS + 9, OUTSIDE + 7, 40000, 80))
        monitor.observe(tcp_synack(1.1, OUTSIDE + 7, CAMPUS + 9, 80, 40000))
        assert monitor.endpoints() == set()

    def test_campus_to_campus_ignored(self):
        monitor = table()
        monitor.observe(tcp_synack(1.0, CAMPUS + 1, CAMPUS + 2, 80, 40000))
        assert monitor.endpoints() == set()

    def test_port_filter(self):
        monitor = table()
        monitor.observe(tcp_synack(1.0, CAMPUS + 1, OUTSIDE + 1, 8080, 40000))
        assert monitor.endpoints() == set()

    def test_all_ports_mode(self):
        monitor = table(tcp_ports=None)
        monitor.observe(tcp_synack(1.0, CAMPUS + 1, OUTSIDE + 1, 8080, 40000))
        assert (CAMPUS + 1, 8080, PROTO_TCP) in monitor.endpoints()

    def test_rst_is_not_service_evidence(self):
        monitor = table()
        monitor.observe(tcp_rst(1.0, CAMPUS + 1, OUTSIDE + 1, 80, 40000))
        assert monitor.endpoints() == set()

    def test_exclude_sources_removes_scanner_conversations(self):
        scanner = OUTSIDE + 99
        monitor = table(exclude_sources=frozenset({scanner}))
        monitor.observe(tcp_synack(1.0, CAMPUS + 1, scanner, 80, 30000))
        assert monitor.endpoints() == set()
        # Other clients unaffected.
        monitor.observe(tcp_synack(2.0, CAMPUS + 1, OUTSIDE + 1, 80, 30000))
        assert len(monitor.endpoints()) == 1

    def test_link_filter(self):
        monitor = table(links=frozenset({"commercial1"}))
        monitor.observe(
            tcp_synack(1.0, CAMPUS + 1, OUTSIDE + 1, 80, 40000, "commercial2")
        )
        assert monitor.endpoints() == set()
        monitor.observe(
            tcp_synack(2.0, CAMPUS + 1, OUTSIDE + 1, 80, 40000, "commercial1")
        )
        assert len(monitor.endpoints()) == 1

    def test_sampler_filter(self):
        class Before:
            """A time filter: per record and its batch mask."""

            def keep_record(self, record):
                return record.time < 100.0

            def keep_mask(self, cols):
                return cols.time < 100.0

        late = tcp_synack(200.0, CAMPUS + 1, OUTSIDE + 1, 80, 40000)
        early = tcp_synack(50.0, CAMPUS + 1, OUTSIDE + 1, 80, 40000)
        monitor = ReferenceSamplingTable(table(), Before())
        monitor.observe(late)
        assert monitor.table.endpoints() == set()
        monitor.observe(early)
        assert len(monitor.table.endpoints()) == 1
        batched = SamplingTable(table(), Before())
        batched.observe_columns(RecordColumns.from_records([late, early]))
        assert batched.table.first_seen == monitor.table.first_seen
        assert (batched.kept, batched.dropped) == (1, 1)


class TestHandshakeSignal:
    def test_completed_handshake_confirms(self):
        monitor = table(signal=ServiceSignal.HANDSHAKE)
        for packet in handshake(10.0, OUTSIDE + 1, CAMPUS + 5, 80):
            monitor.observe(packet)
        assert (CAMPUS + 5, 80, PROTO_TCP) in monitor.endpoints()

    def test_half_open_scan_not_confirmed(self):
        """A scanner's SYN + the SYN-ACK, with no final ACK, must not
        count under the handshake signal (the ablation's whole point)."""
        monitor = table(signal=ServiceSignal.HANDSHAKE)
        monitor.observe(tcp_syn(1.0, OUTSIDE + 1, CAMPUS + 5, 30000, 80))
        monitor.observe(tcp_synack(1.05, CAMPUS + 5, OUTSIDE + 1, 80, 30000))
        assert monitor.endpoints() == set()

    def test_same_scan_counts_under_synack_signal(self):
        monitor = table(signal=ServiceSignal.SYNACK)
        monitor.observe(tcp_syn(1.0, OUTSIDE + 1, CAMPUS + 5, 30000, 80))
        monitor.observe(tcp_synack(1.05, CAMPUS + 5, OUTSIDE + 1, 80, 30000))
        assert len(monitor.endpoints()) == 1


class TestWeighting:
    def test_flows_counted_on_completed_handshake(self):
        monitor = table()
        for i in range(3):
            for packet in handshake(float(i), OUTSIDE + 1, CAMPUS + 5, 80, 40000 + i):
                monitor.observe(packet)
        endpoint = (CAMPUS + 5, 80, PROTO_TCP)
        assert monitor.flows(endpoint) == 3
        assert monitor.unique_clients(endpoint) == 1

    def test_unique_clients(self):
        monitor = table()
        for i in range(4):
            for packet in handshake(float(i), OUTSIDE + i, CAMPUS + 5, 80):
                monitor.observe(packet)
        assert monitor.unique_clients((CAMPUS + 5, 80, PROTO_TCP)) == 4

    def test_scans_do_not_inflate_weights(self):
        monitor = table()
        monitor.observe(tcp_syn(1.0, OUTSIDE + 9, CAMPUS + 5, 30000, 80))
        monitor.observe(tcp_synack(1.05, CAMPUS + 5, OUTSIDE + 9, 80, 30000))
        assert monitor.flows((CAMPUS + 5, 80, PROTO_TCP)) == 0


class TestUdp:
    def test_udp_service_from_well_known_sport(self):
        monitor = table(udp_ports=frozenset({53}))
        monitor.observe(udp_datagram(1.0, CAMPUS + 3, OUTSIDE + 1, 53, 5353))
        assert (CAMPUS + 3, 53, 17) in monitor.endpoints()

    def test_udp_ignored_without_watchlist(self):
        monitor = table()
        monitor.observe(udp_datagram(1.0, CAMPUS + 3, OUTSIDE + 1, 53, 5353))
        assert monitor.endpoints() == set()

    def test_udp_direction_filter(self):
        monitor = table(udp_ports=frozenset({53}))
        monitor.observe(udp_datagram(1.0, OUTSIDE + 1, CAMPUS + 3, 53, 5353))
        assert monitor.endpoints() == set()


class TestReplayAndViews:
    def test_replay_feeds_all_observers(self):
        a, b = table(), table()
        count = replay(handshake(1.0, OUTSIDE + 1, CAMPUS + 2, 80), a, b)
        assert count == 3
        assert a.endpoints() == b.endpoints() != set()

    def test_discovery_events_sorted(self):
        monitor = table()
        monitor.observe(tcp_synack(9.0, CAMPUS + 2, OUTSIDE + 1, 80, 40000))
        monitor.observe(tcp_synack(4.0, CAMPUS + 3, OUTSIDE + 1, 22, 40000))
        events = sorted((t, e) for e, t in monitor.first_seen.items())
        assert [t for t, _ in events] == [4.0, 9.0]

    def test_address_discovery_collapses_ports(self):
        monitor = table()
        monitor.observe(tcp_synack(5.0, CAMPUS + 2, OUTSIDE + 1, 80, 40000))
        monitor.observe(tcp_synack(3.0, CAMPUS + 2, OUTSIDE + 1, 22, 40000))
        events = monitor.address_discovery_events()
        assert events == [(3.0, CAMPUS + 2)]
