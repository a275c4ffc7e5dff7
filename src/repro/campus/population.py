"""Population synthesis.

Turns a :class:`~repro.campus.profiles.CampusProfile` into a concrete
:class:`CampusPopulation`: hosts with liveness windows and firewall
policies, services with realised activity rates, the address ledger,
and rendered web pages.  Everything is a pure function of
``(profile, seed, duration)``.

Three synthesisers live here:

* :func:`synthesize_population` -- the main category-table driven
  campus (semester / break profiles);
* :func:`synthesize_allports_population` -- the DTCPall lab /24 with
  services on arbitrary ports;
* :func:`attach_udp_population` -- the UDP service layer for DUDP,
  calibrated to the paper's Table 7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from repro.campus.categories import (
    BehaviorCategory,
    CategorySpec,
    NonServerSpec,
    RateKind,
    RateSpec,
)
from repro.campus.churn import (
    AddressLedger,
    AssignmentPolicy,
    SESSION_STYLES,
    build_ledger,
    generate_sessions,
)
from repro.campus.host import FirewallPolicy, FirewallScope, Host, UdpPolicy
from repro.campus.probe_index import ProbeResponseIndex
from repro.campus.profiles import CampusProfile
from repro.campus.service import ActivityPattern, Service
from repro.campus.topology import (
    CampusTopology,
    build_allports_topology,
    build_topology,
)
from repro.campus.webpages import PageCategory, render_root_page
from repro.net.addr import AddressBlock, AddressClass
from repro.net.packet import PROTO_TCP, PROTO_UDP
from repro.net.ports import (
    PORT_DNS,
    PORT_FTP,
    PORT_GAME,
    PORT_HTTP,
    PORT_MYSQL,
    PORT_NETBIOS_NS,
    PORT_SSH,
)
from repro.simkernel.clock import SECONDS_PER_HOUR, days, hours
from repro.simkernel.rng import RngStreams, weighted_choice, zipf_weights

#: Assignment policy per transient class.
_POLICIES: dict[AddressClass, AssignmentPolicy] = {
    AddressClass.DHCP: AssignmentPolicy.STICKY,
    AddressClass.PPP: AssignmentPolicy.ROTATING,
    AddressClass.VPN: AssignmentPolicy.ROTATING,
    AddressClass.WIRELESS: AssignmentPolicy.ROTATING,
}

#: Web content category mix per behaviour category; the joint
#: distribution behind the paper's Table 5 (see DESIGN.md).
_WEB_CATEGORY_MIX: dict[BehaviorCategory, tuple[tuple[PageCategory, float], ...]] = {
    BehaviorCategory.ACTIVE_POPULAR: ((PageCategory.CUSTOM, 1.0),),
    BehaviorCategory.SERVER_DEATH_BOTH: ((PageCategory.CUSTOM, 0.5), (PageCategory.DEFAULT, 0.5)),
    BehaviorCategory.FIREWALL_LATER: ((PageCategory.CUSTOM, 1.0),),
    BehaviorCategory.MOSTLY_IDLE: (
        (PageCategory.DEFAULT, 0.70),
        (PageCategory.CONFIG_STATUS, 0.22),
        (PageCategory.MINIMAL, 0.04),
        (PageCategory.CUSTOM, 0.04),
    ),
    BehaviorCategory.IDLE_INTERMITTENT: (
        (PageCategory.DEFAULT, 0.6),
        (PageCategory.CONFIG_STATUS, 0.4),
    ),
    BehaviorCategory.SEMI_IDLE: (
        (PageCategory.DEFAULT, 0.40),
        (PageCategory.CONFIG_STATUS, 0.34),
        (PageCategory.DATABASE, 0.10),
        (PageCategory.CUSTOM, 0.10),
        (PageCategory.RESTRICTED, 0.03),
        (PageCategory.MINIMAL, 0.03),
    ),
    BehaviorCategory.IDLE_HIDDEN: (
        (PageCategory.DEFAULT, 0.5),
        (PageCategory.CONFIG_STATUS, 0.5),
    ),
    BehaviorCategory.INTERMITTENT_PASSIVE: (
        (PageCategory.CUSTOM, 0.4),
        (PageCategory.DEFAULT, 0.6),
    ),
    BehaviorCategory.BIRTH_EARLY: ((PageCategory.CUSTOM, 1.0),),
    BehaviorCategory.POSSIBLE_FIREWALL: (
        (PageCategory.CUSTOM, 0.55),
        (PageCategory.CONFIG_STATUS, 0.30),
        (PageCategory.RESTRICTED, 0.15),
    ),
    BehaviorCategory.SERVER_DEATH_PASSIVE: ((PageCategory.CUSTOM, 1.0),),
    BehaviorCategory.BIRTH_MOSTLY_IDLE: ((PageCategory.DEFAULT, 1.0),),
    BehaviorCategory.INTERMITTENT_ACTIVE: (
        (PageCategory.CUSTOM, 0.30),
        (PageCategory.DEFAULT, 0.50),
        (PageCategory.CONFIG_STATUS, 0.20),
    ),
    BehaviorCategory.BIRTH_STATIC_BOTH: (
        (PageCategory.CUSTOM, 0.35),
        (PageCategory.DEFAULT, 0.45),
        (PageCategory.CONFIG_STATUS, 0.20),
    ),
    BehaviorCategory.INTERMITTENT_IDLE: (
        (PageCategory.DEFAULT, 0.55),
        (PageCategory.CONFIG_STATUS, 0.40),
        (PageCategory.MINIMAL, 0.05),
    ),
    BehaviorCategory.BIRTH_IDLE: (
        (PageCategory.DEFAULT, 0.5),
        (PageCategory.CONFIG_STATUS, 0.5),
    ),
    BehaviorCategory.FIREWALL_TRANSIENT: (
        (PageCategory.CONFIG_STATUS, 0.70),
        (PageCategory.CUSTOM, 0.12),
        (PageCategory.DEFAULT, 0.18),
    ),
    BehaviorCategory.FIREWALL_BIRTH: (
        (PageCategory.CONFIG_STATUS, 0.45),
        (PageCategory.CUSTOM, 0.40),
        (PageCategory.RESTRICTED, 0.15),
    ),
}


@dataclass
class CampusPopulation:
    """A fully synthesised campus: the simulator's ground truth.

    The monitors and probers only ever interact with it through
    :meth:`occupant_host` and the hosts' probe-response methods, or
    through :attr:`probe_index`, the same answers in bulk; the
    ground-truth accessors exist for calibration and tests.
    """

    topology: CampusTopology
    hosts: dict[int, Host]
    ledger: AddressLedger
    duration: float
    profile_name: str
    seed: int

    def host(self, host_id: int) -> Host:
        return self.hosts[host_id]

    def occupant_host(self, address: int, t: float) -> Host | None:
        """The host holding *address* at time *t*, or None."""
        host_id = self.ledger.occupant(address, t)
        return self.hosts.get(host_id) if host_id is not None else None

    def address_of(self, host_id: int, t: float) -> int | None:
        return self.ledger.address_of(host_id, t)

    @cached_property
    def probe_index(self) -> ProbeResponseIndex:
        """:meth:`occupant_host` plus the hosts' probe responses, in bulk.

        Built on first use -- ``build_dataset``'s sweeps, unless the
        dataset takes none; online probing otherwise -- and kept: the
        population must not change once anything has probed it
        (:func:`attach_udp_population`, the one in-place editor, drops
        the index).
        """
        return ProbeResponseIndex(self)

    def services(self):
        """Yield every ``(host, service)`` pair in the population."""
        for host in self.hosts.values():
            for service in host.services.values():
                yield host, service

    # ---- ground-truth accessors (tests/calibration only) -----------

    def ground_truth_endpoints(self, proto: int = PROTO_TCP) -> set[tuple[int, int]]:
        """Every (address, port) that is ever probeable or active.

        For transient hosts this enumerates every address tenure, since
        the paper counts discoveries per IP address.
        """
        endpoints: set[tuple[int, int]] = set()
        for host in self.hosts.values():
            ports = [s.port for s in host.services.values() if s.proto == proto]
            if not ports:
                continue
            for tenure in self.ledger.tenures_of_host(host.host_id):
                for port in ports:
                    endpoints.add((tenure.address, port))
        return endpoints

def _popularity_weights(member_count: int, rate: RateSpec) -> list[float]:
    """Popularity weights for a ZIPF category, honouring explicit shares.

    The first ``len(rate.shares)`` members take those shares verbatim;
    the rest split the residual by Zipf rank.  This reproduces the
    paper's extreme skew (a handful of servers carrying ~99 % of
    connections) that plain Zipf cannot express.
    """
    shares = list(rate.shares[:member_count])
    remaining = member_count - len(shares)
    residual = max(0.0, 1.0 - sum(shares))
    if remaining > 0:
        tail = zipf_weights(remaining, rate.exponent)
        shares.extend(residual * w for w in tail)
    elif shares:
        # Renormalise when truncation dropped part of the share vector.
        total = sum(shares)
        shares = [s / total for s in shares]
    if rate.uniform_mix > 0.0 and member_count > 0:
        mix = rate.uniform_mix
        uniform = 1.0 / member_count
        shares = [(1.0 - mix) * s + mix * uniform for s in shares]
    return shares


def _realize_rates(
    spec: CategorySpec, member_count: int, rng
) -> list[tuple[float, tuple[tuple[float, float], ...] | None, int]]:
    """Realise (base_rate, windows, client_pool) for each category member."""
    rate = spec.rate
    out: list[tuple[float, tuple[tuple[float, float], ...] | None, int]] = []
    if rate.kind is RateKind.ZIPF:
        weights = _popularity_weights(member_count, rate)
        for w in weights:
            base = rate.total_rate * w
            pool = max(3, int(spec.client_pool * w))
            out.append((base, None, pool))
        return out
    for _ in range(member_count):
        if rate.kind is RateKind.SILENT:
            out.append((0.0, None, 1))
        elif rate.kind is RateKind.BURST:
            window = (rate.window_start, rate.window_end)
            length = max(window[1] - window[0], 1.0)
            base = rate.mean_flows / length
            out.append((base, (window,), spec.client_pool))
        elif rate.kind is RateKind.TAIL:
            base = -math.log(max(1.0 - rate.p_seen, 1e-12)) / rate.horizon
            # Heavy-tailed jitter with unit mean: lognormal(-s^2/2, s).
            sigma = 1.2
            base *= math.exp(rng.gauss(-sigma * sigma / 2.0, sigma))
            out.append((base, None, spec.client_pool))
        elif rate.kind is RateKind.SESSION:
            base = rate.flows_per_hour / SECONDS_PER_HOUR
            out.append((base, None, spec.client_pool))
        else:  # pragma: no cover - exhaustive over RateKind
            raise ValueError(f"unhandled rate kind: {rate.kind}")
    return out


class _AddressAllocator:
    """Hands out static addresses and transient block slots."""

    def __init__(self, topology: CampusTopology, rng) -> None:
        self._static_pool: list[int] = []
        for block in topology.blocks_of_class(AddressClass.STATIC):
            self._static_pool.extend(block.addresses())
        rng.shuffle(self._static_pool)
        self._blocks: dict[AddressClass, list[AddressBlock]] = {
            cls: topology.blocks_of_class(cls)
            for cls in (
                AddressClass.DHCP,
                AddressClass.PPP,
                AddressClass.VPN,
                AddressClass.WIRELESS,
            )
        }

    def take_static(self) -> int:
        if not self._static_pool:
            raise RuntimeError("static address pool exhausted")
        return self._static_pool.pop()

    def block_for(self, address_class: AddressClass, rng) -> AddressBlock:
        blocks = self._blocks.get(address_class)
        if not blocks:
            raise RuntimeError(f"no blocks for class {address_class}")
        weights = [b.size for b in blocks]
        return weighted_choice(rng, blocks, weights)


def _make_service(
    spec: CategorySpec,
    host: Host,
    port: int,
    base_rate: float,
    windows: tuple[tuple[float, float], ...] | None,
    client_pool: int,
    duration: float,
    rng,
    activity_scale: float,
) -> Service:
    """Build one service for *host* under category *spec*."""
    birth = 0.0
    if spec.birth_window is not None:
        lo, hi = spec.birth_window
        birth = rng.uniform(lo, min(hi, duration))
    death = None
    if spec.death_window is not None:
        lo, hi = spec.death_window
        death = max(rng.uniform(lo, min(hi, duration)), birth + 60.0)
    blocks_external = False
    if port == PORT_MYSQL and rng.random() < spec.mysql_hides_from_external:
        blocks_external = True
    web_category = None
    web_page = None
    if port == PORT_HTTP:
        mix = _WEB_CATEGORY_MIX[spec.category]
        choice = weighted_choice(rng, [c for c, _ in mix], [w for _, w in mix])
        web_category = choice.value
        web_page = render_root_page(choice, rng, host.host_id)
    return Service(
        host_id=host.host_id,
        port=port,
        proto=PROTO_TCP,
        activity=ActivityPattern(
            base_rate=base_rate * activity_scale,
            windows=windows,
            client_pool=client_pool,
        ),
        birth=birth,
        death=death,
        blocks_external_probes=blocks_external,
        web_category=web_category,
        web_page=web_page,
    )


def synthesize_population(
    profile: CampusProfile,
    seed: int,
    duration: float,
    topology: CampusTopology | None = None,
) -> CampusPopulation:
    """Build the campus population for *profile*.

    Deterministic in ``(profile, seed, duration)``.
    """
    if topology is None:
        topology = build_topology()
    streams = RngStreams(seed)
    alloc_rng = streams.stream("population.alloc")
    allocator = _AddressAllocator(topology, alloc_rng)

    hosts: dict[int, Host] = {}
    static_assignments: list[tuple[int, int]] = []
    transient_sessions: list = []
    next_host_id = 0

    def new_host(category: str, address_class: AddressClass) -> Host:
        nonlocal next_host_id
        host = Host(host_id=next_host_id, category=category, address_class=address_class)
        next_host_id += 1
        hosts[host.host_id] = host
        return host

    def place_host(host: Host, rng) -> None:
        """Give the host an address (static) or sessions (transient)."""
        if host.address_class is AddressClass.STATIC:
            host.static_address = allocator.take_static()
            host.up_windows = [(0.0, duration)]
            static_assignments.append((host.static_address, host.host_id))
        else:
            style = SESSION_STYLES[host.address_class.value]
            sessions = generate_sessions(rng, style, duration)
            if not sessions:
                # Ensure every synthesised host exists on the network at
                # least once, else it could never match its category.
                start = rng.uniform(0.0, max(duration - hours(2), 1.0))
                sessions = [(start, min(start + hours(2), duration))]
            host.up_windows = list(sessions)
            block = allocator.block_for(host.address_class, rng)
            policy = _POLICIES[host.address_class]
            transient_sessions.append((host.host_id, block, policy, sessions))
        host.finalize()

    # ---- server hosts, one category at a time ----------------------
    for spec in profile.category_specs:
        category_rng = streams.stream(f"population.category.{spec.category.value}")
        rates = _realize_rates(spec, spec.count, category_rng)
        class_names = [cls for cls, _ in spec.address_classes]
        class_weights = [w for _, w in spec.address_classes]
        for base_rate, windows, client_pool in rates:
            address_class = AddressClass(
                weighted_choice(category_rng, class_names, class_weights)
            )
            host = new_host(spec.category.value, address_class)
            blocks_internal = category_rng.random() < spec.firewall_internal
            blocks_external = category_rng.random() < spec.firewall_external
            # Most firewalls protect specific service ports and let the
            # kernel RST the rest (the paper confirms 32 of 35 suspects
            # via that mixed-response signature); a minority are
            # default-deny host firewalls that stay entirely dark.
            scope = (
                FirewallScope.HOST
                if category_rng.random() < 0.1
                else FirewallScope.SERVICE
            )
            host.firewall = FirewallPolicy(
                blocks_internal=blocks_internal,
                blocks_external=blocks_external,
                effective_from=spec.firewall_effective_from,
                scope=scope,
            )
            place_host(host, category_rng)

            primary = weighted_choice(
                category_rng,
                [p for p, _ in spec.primary_ports],
                [w for _, w in spec.primary_ports],
            )
            host.add_service(
                _make_service(
                    spec, host, primary, base_rate, windows, client_pool,
                    duration, category_rng, profile.activity_scale,
                )
            )
            if spec.extra_ports and category_rng.random() < spec.extra_port_prob:
                extra = weighted_choice(
                    category_rng,
                    [p for p, _ in spec.extra_ports],
                    [w for _, w in spec.extra_ports],
                )
                if extra != primary:
                    # Extra services share the host's fate but are
                    # quieter than the primary.
                    host.add_service(
                        _make_service(
                            spec, host, extra, base_rate * 0.3, windows,
                            max(1, client_pool // 2), duration, category_rng,
                            profile.activity_scale,
                        )
                    )

    # ---- live non-server hosts --------------------------------------
    ns = profile.non_server
    ns_rng = streams.stream("population.nonserver")
    for address_class, count in (
        (AddressClass.STATIC, ns.static_count),
        (AddressClass.DHCP, ns.dhcp_count),
        (AddressClass.PPP, ns.ppp_count),
        (AddressClass.WIRELESS, ns.wireless_count),
        (AddressClass.VPN, ns.vpn_count),
    ):
        for _ in range(count):
            host = new_host(BehaviorCategory.NON_SERVER.value, address_class)
            silent = ns_rng.random() < ns.silent_fraction
            host.firewall = FirewallPolicy(
                blocks_internal=silent,
                blocks_external=silent,
                scope=FirewallScope.HOST,
            )
            host.udp_policy = (
                UdpPolicy.SILENT_DROP if silent else UdpPolicy.ICMP_RESPONDER
            )
            place_host(host, ns_rng)

    ledger = build_ledger(static_assignments, transient_sessions, duration)
    return CampusPopulation(
        topology=topology,
        hosts=hosts,
        ledger=ledger,
        duration=duration,
        profile_name=profile.name,
        seed=seed,
    )


# ---------------------------------------------------------------------
# DTCPall: the lab /24 with services on arbitrary ports.
# ---------------------------------------------------------------------

#: (port, host_count, rate_kind, pool) rows for the lab subnet; counts
#: follow Figure 11's service bands.  ``pool`` selects which half of
#: the lab runs the service: the paper's passive/active split (131
#: passive of ~250 union) only works if the Unix machines (whose sshd
#: and ftpd external scans unveil) and the Windows machines (whose
#: NT services never attract wide-area traffic) are largely distinct
#: host populations.
_ALLPORTS_ROWS: tuple[tuple[int, int, str, str], ...] = (
    (22, 118, "quiet", "unix"),      # sshd on the Unix lab machines
    (21, 15, "quiet", "unix"),       # legacy FTP
    (25, 6, "tail", "unix"),         # SMTP relays
    (111, 40, "local", "unix"),      # Sun RPC
    (6000, 30, "local", "unix"),     # X11
    (7100, 25, "local", "unix"),     # X fonts
    (9, 4, "quiet", "unix"),         # discard
    (13, 4, "quiet", "unix"),        # daytime
    (37, 3, "quiet", "unix"),        # time
    (3306, 5, "local", "unix"),      # lab MySQL
    (135, 115, "local", "windows"),  # Microsoft epmap
    (139, 112, "local", "windows"),  # NetBIOS session
    (445, 108, "local", "windows"),  # microsoft-ds
)

#: Ephemeral/high ports that appear passively only (P2P and the like).
_ALLPORTS_EPHEMERAL: tuple[int, ...] = (6881, 28960, 41170, 51413, 32459, 58291)


def synthesize_allports_population(seed: int, duration: float) -> CampusPopulation:
    """Build the DTCPall population: one /24 of homogeneous lab machines.

    Characteristics the paper reports and this synthesis encodes:

    * ~250 live hosts, one of which serves 97 % of inbound connections;
    * sshd everywhere, found passively only thanks to an external scan;
    * a large band of Windows/NT and X11 services that never attract
      wide-area traffic ("local" services -- active-only discoveries);
    * six web servers born *after* the single active scan (passive-only);
    * a few ephemeral high ports visible passively only.
    """
    topology = build_allports_topology()
    streams = RngStreams(seed)
    rng = streams.stream("allports.synthesis")
    block = topology.block("lab-allports")

    live_count = 250
    addresses = list(block.addresses())[:live_count]
    hosts: dict[int, Host] = {}
    static_assignments: list[tuple[int, int]] = []
    for index, address in enumerate(addresses):
        host = Host(
            host_id=index,
            category="lab",
            address_class=AddressClass.STATIC,
            static_address=address,
            up_windows=[(0.0, duration)],
        )
        host.finalize()
        hosts[index] = host
        static_assignments.append((address, index))

    def add(host: Host, port: int, rate: float, windows=None, pool: int = 2,
            birth: float = 0.0, category: str | None = None) -> None:
        page = None
        if port == PORT_HTTP:
            page_category = PageCategory(category) if category else PageCategory.CUSTOM
            category = page_category.value
            page = render_root_page(page_category, rng, host.host_id)
        host.add_service(
            Service(
                host_id=host.host_id,
                port=port,
                activity=ActivityPattern(base_rate=rate, windows=windows, client_pool=pool),
                birth=birth,
                web_category=category,
                web_page=page,
            )
        )

    host_ids = list(hosts)
    # The dominant server: 97 % of the subnet's inbound connections.
    dominant = hosts[host_ids[0]]
    add(dominant, PORT_HTTP, rate=0.05, pool=600, category="custom")
    helper = hosts[host_ids[1]]
    add(helper, PORT_HTTP, rate=0.05 * 0.02, pool=20, category="custom")

    # Six web servers born after the active scan completes (~24 h).
    for host_id in host_ids[2:8]:
        birth = rng.uniform(hours(26), duration * 0.6)
        add(hosts[host_id], PORT_HTTP, rate=1.0 / days(2), pool=3,
            birth=birth, category="default")

    # Split the lab: the first half are Unix workstations, the second
    # half Windows machines (minus the web hosts set up above).
    midpoint = len(host_ids) // 2
    pools = {
        "unix": host_ids[8:midpoint],
        "windows": host_ids[midpoint:],
    }
    for port, count, kind, pool_name in _ALLPORTS_ROWS:
        members = pools[pool_name][:]
        rng.shuffle(members)
        chosen = [
            h for h in members if (port, PROTO_TCP) not in hosts[h].services
        ]
        for host_id in chosen[:count]:
            if kind == "tail":
                rate, pool = 1.0 / days(4), 3
            else:  # quiet / local: no wide-area clients
                rate, pool = 0.0, 1
            add(hosts[host_id], port, rate=rate, pool=pool)

    # Ephemeral high ports: brief passive-only activity bursts.
    for port in _ALLPORTS_EPHEMERAL:
        host_id = rng.choice(host_ids[8:])
        if (port, PROTO_TCP) in hosts[host_id].services:
            continue
        start = rng.uniform(0.0, duration * 0.8)
        window = (start, min(start + hours(6), duration))
        host = hosts[host_id]
        host.firewall = FirewallPolicy(
            blocks_internal=True, scope=FirewallScope.HOST
        )
        add(host, port, rate=4.0 / hours(6), windows=(window,), pool=4)

    ledger = build_ledger(static_assignments, [], duration)
    return CampusPopulation(
        topology=topology,
        hosts=hosts,
        ledger=ledger,
        duration=duration,
        profile_name="allports",
        seed=seed,
    )


# ---------------------------------------------------------------------
# DUDP: the UDP service layer, calibrated to Table 7.
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class UdpLayerSpec:
    """Counts for the UDP population (paper Table 7).

    ``responders`` answer a generic probe with a UDP reply;
    ``silent_open`` have the port open but ignore malformed probes
    (reported "possibly open"); ``chatty`` is the subset of responders
    plus silent-open hosts that emit real traffic during the day
    (discovered passively).
    """

    port: int
    responders: int
    silent_open: int
    chatty: int


#: Default UDP layer, matching Table 7's per-port rows.
UDP_LAYER_SPECS: tuple[UdpLayerSpec, ...] = (
    UdpLayerSpec(port=PORT_HTTP, responders=0, silent_open=137, chatty=0),
    UdpLayerSpec(port=PORT_DNS, responders=52, silent_open=376, chatty=32),
    UdpLayerSpec(port=PORT_NETBIOS_NS, responders=64, silent_open=4238, chatty=4),
    UdpLayerSpec(port=PORT_GAME, responders=0, silent_open=111, chatty=1),
)


def attach_udp_population(
    population: CampusPopulation,
    seed: int,
    specs: tuple[UdpLayerSpec, ...] = UDP_LAYER_SPECS,
    scale: float = 1.0,
) -> None:
    """Attach UDP services to an existing population (in place).

    Services are spread over live hosts; chatty ones get a small
    activity rate so 24 hours of passive monitoring hears them.  With
    ``scale`` below 1.0 the counts shrink proportionally (tests).
    """
    streams = RngStreams(seed)
    rng = streams.stream("udp.attach")
    candidates = [
        h for h in population.hosts.values()
        if h.address_class is not AddressClass.WIRELESS
    ]
    rng.shuffle(candidates)
    for spec in specs:
        responders = max(0, int(round(spec.responders * scale)))
        silent_open = max(0, int(round(spec.silent_open * scale)))
        chatty = min(max(0, int(round(spec.chatty * scale))), responders + silent_open)
        pool = [
            h for h in candidates if (spec.port, PROTO_UDP) not in h.services
        ]
        chosen = pool[: responders + silent_open]
        if len(chosen) < responders + silent_open:
            raise RuntimeError(
                f"not enough hosts for UDP port {spec.port}: "
                f"need {responders + silent_open}, have {len(chosen)}"
            )
        for index, host in enumerate(chosen):
            is_responder = index < responders
            # Chatty services are drawn preferentially from responders.
            is_chatty = index < chatty
            rate = (6.0 / days(1)) if is_chatty else 0.0
            host.add_service(
                Service(
                    host_id=host.host_id,
                    port=spec.port,
                    proto=PROTO_UDP,
                    activity=ActivityPattern(
                        base_rate=rate,
                        client_pool=3 if is_chatty else 1,
                    ),
                    udp_generic_responder=is_responder,
                )
            )
        rng.shuffle(candidates)
    # The services are new: an index built before them would go on
    # answering without them.
    population.__dict__.pop("probe_index", None)
