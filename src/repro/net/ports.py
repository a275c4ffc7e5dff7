"""Well-known port numbers and service names.

The paper studies a small selected set of TCP services (FTP, SSH, HTTP,
HTTPS, MySQL), four UDP services, and -- in the DTCPall dataset -- all
ports on one subnet.  This module is the single place port/service
naming lives.
"""

from __future__ import annotations

from repro.net.packet import PROTO_TCP, PROTO_UDP

#: The paper's selected TCP service ports (Section 3.1).
PORT_FTP = 21
PORT_SSH = 22
PORT_HTTP = 80
PORT_HTTPS = 443
PORT_MYSQL = 3306

SELECTED_TCP_PORTS: tuple[int, ...] = (
    PORT_FTP,
    PORT_SSH,
    PORT_HTTP,
    PORT_HTTPS,
    PORT_MYSQL,
)

#: The paper's selected UDP ports (Section 4.5).
PORT_DNS = 53
PORT_NETBIOS_NS = 137
PORT_GAME = 27015

SELECTED_UDP_PORTS: tuple[int, ...] = (
    PORT_HTTP,   # "HTTP and other applications" over UDP
    PORT_DNS,
    PORT_NETBIOS_NS,
    PORT_GAME,
)

_TCP_NAMES: dict[int, str] = {
    7: "echo",
    9: "discard",
    13: "daytime",
    21: "ftp",
    22: "ssh",
    23: "telnet",
    25: "smtp",
    37: "time",
    53: "dns",
    80: "web",
    110: "pop3",
    111: "sunrpc",
    135: "epmap",
    139: "netbios-ssn",
    143: "imap",
    443: "ssl-web",
    445: "microsoft-ds",
    515: "printer",
    631: "ipp",
    993: "imaps",
    3306: "mysql",
    3389: "rdp",
    5432: "postgres",
    6000: "x11",
    7100: "xfonts",
    8080: "web-alt",
    9100: "jetdirect",
}

_UDP_NAMES: dict[int, str] = {
    53: "dns",
    67: "dhcp",
    80: "udp-80",
    123: "ntp",
    137: "netbios-ns",
    161: "snmp",
    514: "syslog",
    27015: "gaming",
}


def service_name(port: int, proto: int = PROTO_TCP) -> str:
    """Return the conventional service name for *port*, or ``"tcp-N"``/``"udp-N"``."""
    if proto == PROTO_TCP:
        return _TCP_NAMES.get(port, f"tcp-{port}")
    if proto == PROTO_UDP:
        return _UDP_NAMES.get(port, f"udp-{port}")
    return f"proto{proto}-{port}"
