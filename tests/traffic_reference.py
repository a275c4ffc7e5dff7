"""The scalar traffic generators: the reference model for differential tests.

This is the record-at-a-time border capture :mod:`repro.traffic` shipped
with before generation went columnar, kept as the definition: every
service's arrivals become :class:`~repro.net.flow.FlowRecord` objects,
every flow expands through ``FlowRecord.packets()``, every sweep probe
asks ``CampusPopulation.occupant_host`` and ``Host.tcp_probe_response``,
and the sources meet in nested ``heapq.merge`` calls keyed on packet
time.  The order of ``random.Random`` draws in these loops *is*
``GENERATOR_VERSION`` 1; :func:`repro.traffic.generator.border_column_batches`
must emit exactly ``RecordColumns.from_records`` of what
:func:`border_packet_stream` yields.

Only the loops live here.  What they share with the columnar generator
(:class:`~repro.traffic.clients.ClientDirectory`, the window
intersection, the inverse-CDF pick, the address bases) is imported, so
a differential test compares exactly the code that was replaced.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from typing import Iterator

from repro.campus.host import Host, ProbeOutcome
from repro.campus.population import CampusPopulation
from repro.campus.service import Service
from repro.net.addr import AddressClass
from repro.net.packet import (
    PROTO_TCP,
    PROTO_UDP,
    PacketRecord,
    TcpFlags,
    tcp_rst,
    tcp_syn,
    tcp_synack,
    udp_datagram,
)
from repro.net.ports import PORT_HTTP, PORT_HTTPS
from repro.simkernel.clock import SECONDS_PER_DAY
from repro.simkernel.rng import RngStreams, zipf_weights
from repro.simkernel.schedule import DiurnalProfile, thinned_poisson_times
from repro.traffic.clients import ClientDirectory, _intersect
from repro.traffic.generator import TrafficMix
from repro.traffic.links import link_for_client
from repro.traffic.noise import _EXTERNAL_WEB_BASE
from repro.traffic.scans import ScanPlan, ScanSweep


@dataclass(frozen=True, order=True, slots=True)
class FlowKey:
    """A service endpoint: (server address, server port, protocol)."""

    server: int
    port: int
    proto: int = PROTO_TCP

    def __str__(self) -> str:
        from repro.net.addr import format_ipv4

        proto = {PROTO_TCP: "tcp", PROTO_UDP: "udp"}.get(self.proto, str(self.proto))
        return f"{format_ipv4(self.server)}:{self.port}/{proto}"


@dataclass(frozen=True, slots=True)
class FlowRecord:
    """One client connection to a campus service.

    Attributes
    ----------
    time:
        Time of the initial packet (the client's SYN / first datagram).
    client:
        Client IPv4 address (integer); external clients for border flows.
    key:
        The service endpoint contacted.
    client_port:
        Ephemeral source port used by the client.
    accepted:
        Whether the server answered positively (SYN-ACK / UDP reply).
        Flows to dead or firewalled endpoints have ``accepted=False``.
    rtt:
        One-way response latency applied to the server's reply, seconds.
    link:
        The peering link this client's traffic crosses (capture
        metadata propagated to the packet records).
    """

    time: float
    client: int
    key: FlowKey
    client_port: int = 40000
    accepted: bool = True
    rtt: float = 0.05
    link: str = ""

    def packets(self) -> list[PacketRecord]:
        """Expand the flow into the header records a border tap would see.

        Only the discovery-relevant packets are materialised: the
        client's opening packet and (for accepted flows) the server's
        positive response.  Data packets never influence the paper's
        analysis and are omitted, exactly as the capture filter would
        drop them.
        """
        key = self.key
        if key.proto == PROTO_TCP:
            out = [
                tcp_syn(
                    self.time, self.client, key.server,
                    self.client_port, key.port, self.link,
                )
            ]
            if self.accepted:
                out.append(
                    tcp_synack(
                        self.time + self.rtt,
                        key.server,
                        self.client,
                        key.port,
                        self.client_port,
                        self.link,
                    )
                )
                # The client's final ACK completes the three-way
                # handshake.  Legitimate clients send it; half-open
                # scanners never do -- which is exactly what the
                # handshake-confirmation ablation distinguishes.
                out.append(
                    PacketRecord(
                        time=self.time + 2 * self.rtt,
                        src=self.client,
                        dst=key.server,
                        sport=self.client_port,
                        dport=key.port,
                        proto=PROTO_TCP,
                        flags=TcpFlags.ACK,
                        link=self.link,
                    )
                )
            return out
        if key.proto == PROTO_UDP:
            out = [
                udp_datagram(
                    self.time, self.client, key.server,
                    self.client_port, key.port, self.link,
                )
            ]
            if self.accepted:
                out.append(
                    udp_datagram(
                        self.time + self.rtt,
                        key.server,
                        self.client,
                        key.port,
                        self.client_port,
                        self.link,
                    )
                )
            return out
        raise ValueError(f"unsupported flow protocol: {key.proto}")


def service_flow_stream(
    host: Host,
    service: Service,
    directory: ClientDirectory,
    streams: RngStreams,
    diurnal: DiurnalProfile | None,
    start: float,
    end: float,
) -> Iterator[FlowRecord]:
    """Yield this service's client flows in ``[start, end)``, time-ordered."""
    activity = service.activity
    if activity.is_silent:
        return
    windows = _intersect(
        activity.active_windows(start, end),
        _intersect(host.up_windows_clipped(start, end), service.lifetime_windows(start, end)),
    )
    if not windows:
        return
    rng = streams.stream(
        f"flows.{service.host_id}.{service.port}.{service.proto}"
    )
    pool = directory.pool_for(service)
    # Flat-ish preference: popular services should exhibit most of
    # their client pool over the study (the client-weighted metric
    # counts *observed* unique clients).
    pool_weights = zipf_weights(len(pool), exponent=0.3)
    # Precompute cumulative weights once; arrivals sample by inverse CDF.
    cumulative: list[float] = []
    total = 0.0
    for w in pool_weights:
        total += w
        cumulative.append(total)
    key = FlowKey(server=0, port=service.port, proto=service.proto)  # addr set per flow
    for w_start, w_end in windows:
        for t in thinned_poisson_times(rng, activity.base_rate, w_start, w_end, diurnal):
            point = rng.random()
            index = _bisect(cumulative, point)
            client, link = pool[index]
            yield FlowRecord(
                time=t,
                client=client,
                key=key,  # placeholder; server address resolved by caller
                client_port=1024 + rng.getrandbits(14),
                accepted=True,
                rtt=0.02 + rng.random() * 0.08,
                link=link,
            )


def _bisect(cumulative: list[float], point: float) -> int:
    index = bisect.bisect_left(cumulative, point * cumulative[-1])
    return min(index, len(cumulative) - 1)


def client_flow_stream(
    population: CampusPopulation,
    streams: RngStreams,
    diurnal: DiurnalProfile | None,
    start: float,
    end: float,
    academic_fraction: float = 0.0,
) -> Iterator[FlowRecord]:
    """Merged, time-ordered stream of all legitimate client flows.

    Server addresses are resolved against the address ledger at flow
    time, so a transient host's flows land on whatever address it
    holds during each session.  Flows from moments where the host holds
    no address (shouldn't happen, as activity is gated on liveness) are
    dropped defensively.
    """
    directory = ClientDirectory(streams, academic_fraction)

    def resolved(host: Host, service: Service) -> Iterator[FlowRecord]:
        for flow in service_flow_stream(
            host, service, directory, streams, diurnal, start, end
        ):
            if host.static_address is not None:
                address = host.static_address
            else:
                address = population.ledger.address_of(host.host_id, flow.time)
                if address is None:
                    continue
            yield FlowRecord(
                time=flow.time,
                client=flow.client,
                key=FlowKey(server=address, port=flow.key.port, proto=flow.key.proto),
                client_port=flow.client_port,
                accepted=flow.accepted,
                rtt=flow.rtt,
                link=flow.link,
            )

    sources = [
        resolved(host, service) for host, service in population.services()
    ]
    return heapq.merge(*sources, key=lambda flow: flow.time)


def sweep_packet_stream(
    population: CampusPopulation,
    sweep: ScanSweep,
    streams: RngStreams,
    end: float,
) -> Iterator[PacketRecord]:
    """Yield the border packets of one sweep, time-ordered.

    The scanner walks a deterministic sample of the campus space in
    address order at ``sweep.rate``.  Responses are resolved against
    the occupant host at probe time with ``internal=False`` -- the
    paths that keep firewalled and hidden services dark to outsiders.
    """
    rng = streams.stream(f"scans.sweep.{sweep.scanner}.{sweep.start:.0f}")
    addresses = list(population.topology.space.addresses())
    if sweep.coverage < 1.0:
        sample_size = max(1, int(len(addresses) * sweep.coverage))
        addresses = sorted(rng.sample(addresses, sample_size))
    interval = 1.0 / sweep.rate
    sport = 30000 + rng.getrandbits(12)
    t = sweep.start
    for address in addresses:
        if t >= end:
            return
        yield tcp_syn(t, sweep.scanner, address, sport, sweep.port, sweep.link)
        host = population.occupant_host(address, t)
        if host is not None:
            outcome = host.tcp_probe_response(sweep.port, t, internal=False)
            if outcome is ProbeOutcome.SYNACK:
                yield tcp_synack(
                    t + 0.03, address, sweep.scanner, sweep.port, sport, sweep.link
                )
            elif outcome is ProbeOutcome.RST:
                yield tcp_rst(
                    t + 0.03, address, sweep.scanner, sweep.port, sport, sweep.link
                )
        t += interval


def scan_packet_stream(
    population: CampusPopulation,
    plan: ScanPlan,
    streams: RngStreams,
    end: float,
) -> Iterator[PacketRecord]:
    """Merged stream of all sweeps' packets."""
    sources = [
        sweep_packet_stream(population, sweep, streams, end) for sweep in plan.sweeps
    ]
    return heapq.merge(*sources, key=lambda record: record.time)


def outbound_noise_stream(
    population: CampusPopulation,
    streams: RngStreams,
    flows_per_day: float,
    start: float,
    end: float,
) -> Iterator[PacketRecord]:
    """Yield outbound browse flows (SYN out, SYN-ACK back in).

    Sources are live campus hosts (static hosts, for simplicity: they
    are always attached).  A homogeneous Poisson process is plenty --
    this stream only needs to *exist*, not be realistic in volume.
    """
    if flows_per_day <= 0 or end <= start:
        return
    rng = streams.stream("noise.outbound")
    static_hosts = [
        h for h in population.hosts.values()
        if h.address_class is AddressClass.STATIC and h.static_address is not None
    ]
    if not static_hosts:
        return
    rate = flows_per_day / SECONDS_PER_DAY
    t = start
    while True:
        t += rng.expovariate(rate)
        if t >= end:
            return
        host = rng.choice(static_hosts)
        external = _EXTERNAL_WEB_BASE + rng.getrandbits(26)
        port = PORT_HTTP if rng.random() < 0.7 else PORT_HTTPS
        sport = 1024 + rng.getrandbits(14)
        link = link_for_client(external, academic=False)
        yield tcp_syn(t, host.static_address, external, sport, port, link)
        yield tcp_synack(t + 0.05, external, host.static_address, port, sport, link)


def source_streams(
    population: CampusPopulation,
    mix: TrafficMix,
    seed: int,
    start: float,
    end: float,
) -> dict[str, Iterator[PacketRecord]]:
    """The capture's sources by category, in merge order, unmerged.

    ``client`` is always present; ``scan`` and ``noise`` only when the
    mix has them.  One ``RngStreams`` serves all three, as in a pass.
    """
    streams = RngStreams(seed)

    def flow_packets() -> Iterator[PacketRecord]:
        for flow in client_flow_stream(
            population, streams, mix.diurnal, start, end, mix.academic_fraction
        ):
            yield from flow.packets()

    sources = {"client": flow_packets()}
    if mix.scan_plan.sweeps:
        sources["scan"] = scan_packet_stream(population, mix.scan_plan, streams, end)
    if mix.outbound_noise_flows_per_day > 0:
        sources["noise"] = outbound_noise_stream(
            population, streams, mix.outbound_noise_flows_per_day, start, end
        )
    return sources


def border_packet_stream(
    population: CampusPopulation,
    mix: TrafficMix,
    seed: int,
    start: float,
    end: float,
) -> Iterator[PacketRecord]:
    """One pass over the border packet capture for ``[start, end)``.

    The three sources -- client flows (expanded to their SYN/SYN-ACK
    pairs), external scan sweeps, and outbound noise -- are merged on
    packet timestamps.  Ordering is approximate within one RTT (a
    flow's SYN-ACK is emitted with its SYN); all shipped observers are
    order-insensitive.
    """
    sources = list(source_streams(population, mix, seed, start, end).values())
    if len(sources) == 1:
        return sources[0]
    return heapq.merge(*sources, key=lambda record: record.time)
