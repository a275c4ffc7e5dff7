"""Packet-header records.

The paper's passive infrastructure captured only 64-byte packet headers
and, for TCP, only packets with SYN / SYN-ACK / RST significance.  We
model exactly that observable: a :class:`PacketRecord` carries the
fields a border monitor can read off a header, nothing more (no
payloads -- the monitor never saw them, so neither does our analysis).

Records are plain frozen dataclasses with ``__slots__``; tens of
millions may exist in a long simulation, so they stay small.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntFlag

PROTO_TCP = 6
PROTO_UDP = 17
PROTO_ICMP = 1

#: ICMP type/code for "destination port unreachable", the negative
#: response generic UDP probing relies on (paper Section 4.5).
ICMP_PORT_UNREACHABLE = (3, 3)


class TcpFlags(IntFlag):
    """The TCP flag bits the monitor filters on."""

    NONE = 0
    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10

    @property
    def is_syn(self) -> bool:
        """A connection-initiating SYN (SYN set, ACK clear)."""
        return bool(self & TcpFlags.SYN) and not (self & TcpFlags.ACK)

    @property
    def is_synack(self) -> bool:
        """A positive connection response (SYN and ACK both set)."""
        return bool(self & TcpFlags.SYN) and bool(self & TcpFlags.ACK)

    @property
    def is_rst(self) -> bool:
        """A reset (RST set)."""
        return bool(self & TcpFlags.RST)


@dataclass(frozen=True, slots=True)
class PacketRecord:
    """One captured packet header.

    Attributes
    ----------
    time:
        Capture timestamp, simulation seconds.
    src, dst:
        Source / destination IPv4 addresses as integers.
    sport, dport:
        Source / destination ports.  For ICMP records these carry the
        ports of the *offending* datagram quoted in the ICMP payload
        (src/dst port of the probe that was rejected), which is what a
        prober reads to attribute the response.
    proto:
        IP protocol number (6 TCP, 17 UDP, 1 ICMP).
    flags:
        TCP flag bits; ``TcpFlags.NONE`` for non-TCP packets.
    icmp:
        ``(type, code)`` for ICMP records, else None.
    link:
        Capture metadata: which peering link the packet crossed
        (``"commercial1"``, ``"commercial2"``, ``"internet2"``).  Not a
        header field; set by the generator, read by the tap filters
        (paper Section 5.2).  Empty for link-agnostic records.
    """

    time: float
    src: int
    dst: int
    sport: int
    dport: int
    proto: int
    flags: TcpFlags = TcpFlags.NONE
    icmp: tuple[int, int] | None = None
    link: str = ""

    def __post_init__(self) -> None:
        if not 0 <= self.sport <= 0xFFFF:
            raise ValueError(f"source port out of range: {self.sport}")
        if not 0 <= self.dport <= 0xFFFF:
            raise ValueError(f"destination port out of range: {self.dport}")


def tcp_syn(
    time: float, src: int, dst: int, sport: int, dport: int, link: str = ""
) -> PacketRecord:
    """Build a TCP SYN (connection request) from src:sport to dst:dport."""
    return PacketRecord(
        time=time, src=src, dst=dst, sport=sport, dport=dport,
        proto=PROTO_TCP, flags=TcpFlags.SYN, link=link,
    )


def tcp_synack(
    time: float, src: int, dst: int, sport: int, dport: int, link: str = ""
) -> PacketRecord:
    """Build a TCP SYN-ACK (positive service response)."""
    return PacketRecord(
        time=time, src=src, dst=dst, sport=sport, dport=dport,
        proto=PROTO_TCP, flags=TcpFlags.SYN | TcpFlags.ACK, link=link,
    )


def tcp_rst(
    time: float, src: int, dst: int, sport: int, dport: int, link: str = ""
) -> PacketRecord:
    """Build a TCP RST (no service on that port)."""
    return PacketRecord(
        time=time, src=src, dst=dst, sport=sport, dport=dport,
        proto=PROTO_TCP, flags=TcpFlags.RST, link=link,
    )


def udp_datagram(
    time: float, src: int, dst: int, sport: int, dport: int, link: str = ""
) -> PacketRecord:
    """Build a UDP datagram header record."""
    return PacketRecord(
        time=time, src=src, dst=dst, sport=sport, dport=dport,
        proto=PROTO_UDP, link=link,
    )


def icmp_port_unreachable(
    time: float, src: int, dst: int, probe_sport: int, probe_dport: int,
    link: str = "",
) -> PacketRecord:
    """Build an ICMP port-unreachable generated by *src* in response to a probe.

    ``probe_sport``/``probe_dport`` are the ports of the rejected UDP
    probe (quoted in the ICMP body), so the prober can attribute the
    negative response to the right target port.
    """
    return PacketRecord(
        time=time, src=src, dst=dst,
        sport=probe_sport, dport=probe_dport,
        proto=PROTO_ICMP, icmp=ICMP_PORT_UNREACHABLE, link=link,
    )
