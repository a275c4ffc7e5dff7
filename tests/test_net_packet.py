"""Tests for repro.net.packet and the reference generator's flows."""

import pytest

from repro.net.packet import (
    ICMP_PORT_UNREACHABLE,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    PacketRecord,
    TcpFlags,
    icmp_port_unreachable,
    tcp_rst,
    tcp_syn,
    tcp_synack,
    udp_datagram,
)
from tests.traffic_reference import FlowKey, FlowRecord


class TestTcpFlags:
    def test_syn_only(self):
        assert TcpFlags.SYN.is_syn
        assert not TcpFlags.SYN.is_synack
        assert not TcpFlags.SYN.is_rst

    def test_synack(self):
        flags = TcpFlags.SYN | TcpFlags.ACK
        assert flags.is_synack
        assert not flags.is_syn

    def test_rst(self):
        assert TcpFlags.RST.is_rst
        assert (TcpFlags.RST | TcpFlags.ACK).is_rst

    def test_bare_ack_is_neither(self):
        assert not TcpFlags.ACK.is_syn
        assert not TcpFlags.ACK.is_synack


class TestConstructors:
    def test_tcp_syn(self):
        record = tcp_syn(1.0, 10, 20, 4000, 80, "commercial1")
        assert record.is_tcp and record.flags.is_syn
        assert (record.src, record.dst) == (10, 20)
        assert (record.sport, record.dport) == (4000, 80)
        assert record.link == "commercial1"

    def test_tcp_synack_mirrors_ports(self):
        record = tcp_synack(1.1, 20, 10, 80, 4000)
        assert record.flags.is_synack
        assert record.sport == 80

    def test_tcp_rst(self):
        assert tcp_rst(0.0, 1, 2, 80, 999).flags.is_rst

    def test_udp(self):
        record = udp_datagram(2.0, 1, 2, 53, 5353)
        assert record.is_udp
        assert record.flags is TcpFlags.NONE

    def test_icmp_quotes_probe_ports(self):
        record = icmp_port_unreachable(3.0, 2, 1, 40000, 137)
        assert record.is_icmp
        assert record.icmp == ICMP_PORT_UNREACHABLE
        assert (record.sport, record.dport) == (40000, 137)

    def test_port_range_validated(self):
        with pytest.raises(ValueError):
            PacketRecord(0.0, 1, 2, 70000, 80, PROTO_TCP)
        with pytest.raises(ValueError):
            PacketRecord(0.0, 1, 2, 80, -1, PROTO_TCP)


class TestFlowKey:
    def test_str_tcp(self):
        key = FlowKey(server=(128 << 24) | (125 << 16) | 7, port=80)
        assert str(key) == "128.125.0.7:80/tcp"

    def test_str_udp(self):
        key = FlowKey(server=1, port=53, proto=PROTO_UDP)
        assert str(key).endswith(":53/udp")

    def test_ordering(self):
        assert FlowKey(1, 80) < FlowKey(2, 21)


class TestFlowPackets:
    def test_accepted_tcp_flow_is_full_handshake(self):
        flow = FlowRecord(time=10.0, client=1, key=FlowKey(2, 80), rtt=0.1)
        packets = flow.packets()
        assert [p.flags for p in packets] == [
            TcpFlags.SYN,
            TcpFlags.SYN | TcpFlags.ACK,
            TcpFlags.ACK,
        ]
        syn, synack, ack = packets
        assert syn.time == 10.0
        assert synack.time == pytest.approx(10.1)
        assert ack.time == pytest.approx(10.2)
        # Direction: SYN and ACK from client, SYN-ACK from server.
        assert syn.src == ack.src == 1
        assert synack.src == 2
        assert synack.sport == 80

    def test_rejected_tcp_flow_is_lone_syn(self):
        flow = FlowRecord(time=0.0, client=1, key=FlowKey(2, 80), accepted=False)
        packets = flow.packets()
        assert len(packets) == 1
        assert packets[0].flags.is_syn

    def test_udp_flow_request_response(self):
        flow = FlowRecord(time=0.0, client=1, key=FlowKey(2, 53, PROTO_UDP))
        packets = flow.packets()
        assert len(packets) == 2
        assert packets[0].dport == 53
        assert packets[1].sport == 53

    def test_link_propagates(self):
        flow = FlowRecord(
            time=0.0, client=1, key=FlowKey(2, 80), link="internet2"
        )
        assert {p.link for p in flow.packets()} == {"internet2"}

    def test_unknown_protocol_rejected(self):
        flow = FlowRecord(time=0.0, client=1, key=FlowKey(2, 80, proto=PROTO_ICMP))
        with pytest.raises(ValueError):
            flow.packets()
