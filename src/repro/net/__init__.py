"""Network primitives: addresses, packet headers, port registry.

These are deliberately minimal -- the reproduction only needs the
fields the paper's monitoring captured (64-byte headers: addresses,
ports, protocol, TCP flags) -- but they are real types with validation,
not bare tuples, so the rest of the code reads like a network stack.
"""

from repro.net.addr import (
    AddressBlock,
    AddressClass,
    AddressSpace,
    IPv4Address,
    format_ipv4,
    parse_cidr,
    parse_ipv4,
)
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
from repro.net.ports import (
    SELECTED_TCP_PORTS,
    SELECTED_UDP_PORTS,
    WellKnownPorts,
    service_name,
)

__all__ = [
    "AddressBlock",
    "AddressClass",
    "AddressSpace",
    "ICMP_PORT_UNREACHABLE",
    "IPv4Address",
    "PROTO_ICMP",
    "PROTO_TCP",
    "PROTO_UDP",
    "PacketRecord",
    "SELECTED_TCP_PORTS",
    "SELECTED_UDP_PORTS",
    "TcpFlags",
    "WellKnownPorts",
    "format_ipv4",
    "icmp_port_unreachable",
    "parse_cidr",
    "parse_ipv4",
    "service_name",
    "tcp_rst",
    "tcp_syn",
    "tcp_synack",
    "udp_datagram",
]
