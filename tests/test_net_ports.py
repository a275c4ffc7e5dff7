"""Tests for repro.net.ports."""

from repro.net.packet import PROTO_UDP
from repro.net.ports import (
    SELECTED_TCP_PORTS,
    SELECTED_UDP_PORTS,
    service_name,
)


class TestSelectedPorts:
    def test_paper_tcp_set(self):
        assert SELECTED_TCP_PORTS == (21, 22, 80, 443, 3306)

    def test_paper_udp_set(self):
        assert SELECTED_UDP_PORTS == (80, 53, 137, 27015)


class TestServiceName:
    def test_known_tcp(self):
        assert service_name(22) == "ssh"
        assert service_name(3306) == "mysql"
        assert service_name(135) == "epmap"

    def test_known_udp(self):
        assert service_name(137, PROTO_UDP) == "netbios-ns"

    def test_unknown_falls_back(self):
        assert service_name(54321) == "tcp-54321"
        assert service_name(54321, PROTO_UDP) == "udp-54321"

    def test_other_protocol(self):
        assert service_name(1, 47) == "proto47-1"

