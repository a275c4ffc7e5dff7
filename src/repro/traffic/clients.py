"""Legitimate client traffic to campus services.

Each non-silent service runs an inhomogeneous Poisson arrival process
(its :class:`~repro.campus.service.ActivityPattern` rate, modulated by
the campus diurnal profile) gated by the owning host's liveness windows
and the service's lifetime.  Each arrival picks a client from the
service's deterministic client pool with a Zipf preference, so the
paper's *client-weighted* and *flow-weighted* completeness metrics both
have meaningful ground truth.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from math import inf

from repro.campus.host import Host
from repro.campus.population import CampusPopulation
from repro.campus.service import Service
from repro.net.packet import PROTO_TCP, PROTO_UDP
from repro.simkernel.rng import RngStreams, zipf_weights
from repro.simkernel.schedule import DiurnalProfile, thinned_poisson_times
from repro.traffic._flows import LINK_CODE, FlowLog, FlowWalk, FlowWalks
from repro.traffic.links import is_academic_client, link_for_client

#: External client addresses are drawn from this base prefix upward;
#: far away from the campus 128.125/16.
_CLIENT_BASE = 0x10_00_00_00  # 16.0.0.0


class ClientDirectory:
    """Deterministic client pools per service.

    The pool for a service is a pure function of (master seed, host id,
    port), so the same clients return across regenerations of the same
    dataset -- unique-client counting stays meaningful.
    """

    def __init__(self, streams: RngStreams, academic_fraction: float = 0.0) -> None:
        self._streams = streams
        self._academic_fraction = academic_fraction
        self._pools: dict[tuple[int, int, int], list[tuple[int, str]]] = {}

    def pool_for(self, service: Service) -> list[tuple[int, str]]:
        """Return the service's ``(client_address, link)`` pool."""
        key = (service.host_id, service.port, service.proto)
        pool = self._pools.get(key)
        if pool is None:
            rng = self._streams.stream(
                f"clients.{service.host_id}.{service.port}.{service.proto}"
            )
            pool = []
            for _ in range(service.activity.client_pool):
                address = _CLIENT_BASE + rng.getrandbits(27)
                academic = is_academic_client(address, self._academic_fraction)
                pool.append((address, link_for_client(address, academic)))
            self._pools[key] = pool
        return pool


def _intersect(
    a: list[tuple[float, float]], b: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Intersect two sorted disjoint window lists."""
    out: list[tuple[float, float]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            out.append((lo, hi))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _service_walk(
    population: CampusPopulation,
    host: Host,
    service: Service,
    windows: list[tuple[float, float]],
    directory: ClientDirectory,
    streams: RngStreams,
    diurnal: DiurnalProfile | None,
    log: FlowLog,
) -> FlowWalk:
    """Walk one service's client arrivals over *windows*, time-ordered.

    Per flow the stream draws, in this order: the thinning walk to the
    arrival, ``random()`` for the client (inverse CDF over the pool),
    ``getrandbits(14)`` for its port, ``random()`` for the RTT.  The
    server address is resolved against the address ledger at flow time,
    so a transient host's flows land on whatever address it holds
    during each session; a flow at a moment the host holds none
    (shouldn't happen, as activity is gated on liveness) is dropped
    after its draws.
    """
    if service.proto not in (PROTO_TCP, PROTO_UDP):
        raise ValueError(f"unsupported flow protocol: {service.proto}")
    rng = streams.stream(
        f"flows.{service.host_id}.{service.port}.{service.proto}"
    )
    pool = [
        (client, LINK_CODE[link]) for client, link in directory.pool_for(service)
    ]
    # Flat-ish preference: popular services should exhibit most of
    # their client pool over the study (the client-weighted metric
    # counts *observed* unique clients).  Arrivals sample by inverse
    # CDF over the cumulative weights.
    cumulative = list(accumulate(zipf_weights(len(pool), exponent=0.3)))
    total, last = cumulative[-1], len(pool) - 1
    random, getrandbits = rng.random, rng.getrandbits
    static, host_id = host.static_address, host.host_id
    address_of = population.ledger.address_of
    port, proto = service.port, service.proto
    # A TCP client completes the handshake; half-open scanners never do.
    packets = 3 if proto == PROTO_TCP else 2
    (put_time, put_client, put_server, put_client_port, put_port, put_proto,
     put_rtt, put_link, put_packets) = log.appenders
    bound = -inf
    for w_start, w_end in windows:
        for t in thinned_poisson_times(
            rng, service.activity.base_rate, w_start, w_end, diurnal
        ):
            while t >= bound:
                bound = yield t
            client, link = pool[min(bisect_left(cumulative, random() * total), last)]
            client_port = 1024 + getrandbits(14)
            rtt = 0.02 + random() * 0.08
            server = static if static is not None else address_of(host_id, t)
            if server is None:
                continue
            put_time(t)
            put_client(client)
            put_server(server)
            put_client_port(client_port)
            put_port(port)
            put_proto(proto)
            put_rtt(rtt)
            put_link(link)
            put_packets(packets)
    yield inf


def _client_flows(
    population: CampusPopulation,
    streams: RngStreams,
    diurnal: DiurnalProfile | None,
    start: float,
    end: float,
    academic_fraction: float = 0.0,
) -> FlowWalks:
    """Every legitimate client flow in ``[start, end)``: one walk per
    non-silent service with a live moment in range, in
    ``population.services()`` order (which is how simultaneous flows of
    two services are ordered)."""
    directory = ClientDirectory(streams, academic_fraction)
    log = FlowLog()
    walks = []
    for host, service in population.services():
        activity = service.activity
        if activity.is_silent:
            continue
        windows = _intersect(
            activity.active_windows(start, end),
            _intersect(
                host.up_windows_clipped(start, end),
                service.lifetime_windows(start, end),
            ),
        )
        if windows:
            walks.append(
                _service_walk(
                    population, host, service, windows, directory, streams,
                    diurnal, log,
                )
            )
    return FlowWalks(log, walks)
