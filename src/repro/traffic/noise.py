"""Campus-as-client outbound traffic.

Campus hosts also *originate* connections to the outside world.  None
of that traffic is evidence of a campus service -- the SYN leaves
campus and the SYN-ACK arrives from an external server -- but it
crosses the same taps, so the passive monitor's direction filtering
has to discard it.  This generator produces a modest stream of such
flows purely to keep that code path honest.
"""

from __future__ import annotations

from math import inf

from repro.campus.population import CampusPopulation
from repro.net.addr import AddressClass
from repro.net.packet import PROTO_TCP
from repro.net.ports import PORT_HTTP, PORT_HTTPS
from repro.simkernel.clock import SECONDS_PER_DAY
from repro.simkernel.rng import RngStreams
from repro.traffic._flows import LINK_CODE, FlowLog, FlowWalk, FlowWalks
from repro.traffic.links import link_for_client

#: External web servers campus users browse.
_EXTERNAL_WEB_BASE = 0x08_00_00_00  # 8.0.0.0


def _noise_walk(
    browsers: list[int], rng, rate: float, start: float, end: float, log: FlowLog
) -> FlowWalk:
    """Walk the outbound browse flows: a SYN out, the SYN-ACK back in
    0.05 s later, no closing ACK."""
    (put_time, put_browser, put_server, put_browser_port, put_port, put_proto,
     put_rtt, put_link, put_packets) = log.appenders
    bound = -inf
    t = start
    while True:
        t += rng.expovariate(rate)
        if t >= end:
            break
        while t >= bound:
            bound = yield t
        browser = rng.choice(browsers)
        external = _EXTERNAL_WEB_BASE + rng.getrandbits(26)
        port = PORT_HTTP if rng.random() < 0.7 else PORT_HTTPS
        sport = 1024 + rng.getrandbits(14)
        put_time(t)
        put_browser(browser)
        put_server(external)
        put_browser_port(sport)
        put_port(port)
        put_proto(PROTO_TCP)
        put_rtt(0.05)
        put_link(LINK_CODE[link_for_client(external, academic=False)])
        put_packets(2)
    yield inf


def _outbound_noise(
    population: CampusPopulation,
    streams: RngStreams,
    flows_per_day: float,
    start: float,
    end: float,
) -> FlowWalks:
    """The outbound browse flows of ``[start, end)``.

    Sources are live campus hosts (static hosts, for simplicity: they
    are always attached).  A homogeneous Poisson process is plenty --
    this stream only needs to *exist*, not be realistic in volume.
    """
    log = FlowLog()
    browsers = [
        h.static_address for h in population.hosts.values()
        if h.address_class is AddressClass.STATIC and h.static_address is not None
    ]
    if flows_per_day <= 0 or end <= start or not browsers:
        return FlowWalks(log, [])
    rate = flows_per_day / SECONDS_PER_DAY
    rng = streams.stream("noise.outbound")
    return FlowWalks(log, [_noise_walk(browsers, rng, rate, start, end, log)])
