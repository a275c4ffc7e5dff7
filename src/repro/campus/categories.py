"""Behaviour categories, calibrated to the paper's Table 4.

The paper classifies every address by what 12 hours and then 18 days of
passive+active observation showed (its Tables 3 and 4).  We invert that
table: each category becomes a *generative* specification -- liveness,
firewalling, activity rate, transience -- chosen so that the defining
observable behaviour of the category emerges from the simulation with
high probability.  Category membership is ground truth the monitors
never see; the analyses re-derive categories from observations alone,
and the reproduction of Tables 3/4 compares the re-derivations against
the paper.

Counts below are the paper's Table 4 counts for the 16,130-address
semester population; profiles scale them (see
:mod:`repro.campus.profiles`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.net.ports import PORT_FTP, PORT_HTTP, PORT_HTTPS, PORT_MYSQL, PORT_SSH
from repro.simkernel.clock import days, hours


class BehaviorCategory(str, Enum):
    """Ground-truth behaviour classes (one per Table 4 row)."""

    ACTIVE_POPULAR = "active_popular"            # row: active server address (37)
    SERVER_DEATH_BOTH = "server_death_both"      # row: server death (6)
    FIREWALL_LATER = "firewall_later"            # row: intermittent yes/yes->yes/no (1)
    MOSTLY_IDLE = "mostly_idle"                  # row: mostly idle (242)
    IDLE_INTERMITTENT = "idle_intermittent"      # row: idle/intermittent (99)
    SEMI_IDLE = "semi_idle"                      # row: semi-idle (1,247)
    IDLE_HIDDEN = "idle_hidden"                  # row: idle (75)
    INTERMITTENT_PASSIVE = "intermittent_passive"  # row: intermittent (26)
    BIRTH_EARLY = "birth_early"                  # row: birth (1)
    POSSIBLE_FIREWALL = "possible_firewall"      # row: possible firewall (4)
    SERVER_DEATH_PASSIVE = "server_death_passive"  # row: death (3)
    BIRTH_MOSTLY_IDLE = "birth_mostly_idle"      # row: birth/mostly idle (7)
    INTERMITTENT_ACTIVE = "intermittent_active"  # row: intermittent/active (188)
    BIRTH_STATIC_BOTH = "birth_static_both"      # row: birth (125)
    INTERMITTENT_IDLE = "intermittent_idle"      # row: intermittent/idle (655)
    BIRTH_IDLE = "birth_idle"                    # row: birth/idle (73)
    FIREWALL_TRANSIENT = "firewall_transient"    # row: possible firewall/intermittent (140)
    FIREWALL_BIRTH = "firewall_birth"            # row: possible firewall/birth (31)
    NON_SERVER = "non_server"                    # row: non-server address (live, no service)


class RateKind(str, Enum):
    """Families of client-arrival behaviour."""

    SILENT = "silent"      # no legitimate client traffic, ever
    ZIPF = "zipf"          # popular: Zipf-ranked share of a pooled total rate
    BURST = "burst"        # a single early activity window, silence after
    TAIL = "tail"          # heavy-tailed trickle (may see zero flows)
    SESSION = "session"    # active while the host is online (transient hosts)


@dataclass(frozen=True)
class RateSpec:
    """Parameters of one :class:`RateKind`.

    ``ZIPF``   -- ``total_rate`` flows/s shared over the category's
                  members by Zipf(``exponent``) rank weights.
    ``BURST``  -- expected ``mean_flows`` in window
                  ``(window_start, window_end)``; silent outside.
    ``TAIL``   -- each member's rate drawn so that the probability of at
                  least one flow within ``horizon`` seconds is
                  ``p_seen`` *on average* (exponential rate mixture).
    ``SESSION``-- ``flows_per_hour`` while the host is online.
    """

    kind: RateKind
    total_rate: float = 0.0
    exponent: float = 0.9
    #: Blend a uniform component into the Zipf rank weights:
    #: ``w = (1 - uniform_mix) * zipf + uniform_mix / n``.  Keeps every
    #: popular server busy enough to be heard within minutes while the
    #: top handful still dominates total volume.
    uniform_mix: float = 0.0
    #: Optional explicit popularity shares for the top-ranked members
    #: of a ZIPF category; remaining members split the residual by
    #: Zipf rank.  The paper's traffic is dominated by a handful of
    #: mega-servers (one host served 97% of a subnet's connections),
    #: which plain Zipf cannot express.
    shares: tuple[float, ...] = ()
    window_start: float = 0.0
    window_end: float = 0.0
    mean_flows: float = 0.0
    p_seen: float = 0.0
    horizon: float = days(18)
    flows_per_hour: float = 0.0


@dataclass(frozen=True)
class CategorySpec:
    """Generative recipe for one behaviour category.

    Attributes
    ----------
    category:
        The :class:`BehaviorCategory` this spec realises.
    count:
        Number of server addresses at full (semester) scale.
    address_classes:
        ``(class_name, weight)`` mix; class names are
        :class:`repro.net.addr.AddressClass` values.
    primary_ports:
        ``(port, weight)`` mix for the host's primary service.
    extra_port_prob:
        Probability of one additional service, drawn from
        ``extra_ports``.
    rate:
        The :class:`RateSpec` realised per service.
    firewall_internal / firewall_external:
        Probability the host's firewall drops internal / external
        probes (see :class:`repro.campus.host.FirewallPolicy`).
    firewall_effective_from:
        Policy activation time (models the mid-study firewall install).
    birth_window / death_window:
        Uniform ranges for service birth / death times, or None.
    mysql_hides_from_external:
        Probability that a MySQL service on this host drops external
        probes even though the host itself is open -- the Section 4.4.3
        hidden-MySQL effect.
    notes:
        Which Table 4 row(s) this reproduces and why the parameters.
    """

    category: BehaviorCategory
    count: int
    address_classes: tuple[tuple[str, float], ...]
    primary_ports: tuple[tuple[int, float], ...]
    rate: RateSpec
    extra_port_prob: float = 0.0
    extra_ports: tuple[tuple[int, float], ...] = ()
    firewall_internal: float = 0.0
    firewall_external: float = 0.0
    firewall_effective_from: float = 0.0
    birth_window: tuple[float, float] | None = None
    death_window: tuple[float, float] | None = None
    mysql_hides_from_external: float = 0.0
    client_pool: int = 2
    notes: str = ""


_WEB_HEAVY = ((PORT_HTTP, 0.62), (PORT_SSH, 0.20), (PORT_FTP, 0.18))
_MIXED = ((PORT_HTTP, 0.46), (PORT_SSH, 0.28), (PORT_FTP, 0.20), (PORT_MYSQL, 0.03), (PORT_HTTPS, 0.03))
_EXTRAS = ((PORT_HTTPS, 0.30), (PORT_SSH, 0.30), (PORT_FTP, 0.30), (PORT_MYSQL, 0.10))


def semester_category_specs() -> tuple[CategorySpec, ...]:
    """The calibrated category table for the semester population.

    Counts are exactly the paper's Table 4 rows; behavioural parameters
    are chosen so each row's defining observations emerge (see each
    spec's ``notes``).
    """
    return (
        CategorySpec(
            category=BehaviorCategory.ACTIVE_POPULAR,
            count=37,
            address_classes=(("static", 1.0),),
            primary_ports=((PORT_HTTP, 0.70), (PORT_SSH, 0.14), (PORT_FTP, 0.10), (PORT_MYSQL, 0.03), (PORT_HTTPS, 0.03)),
            extra_port_prob=0.5,
            extra_ports=_EXTRAS,
            rate=RateSpec(
                kind=RateKind.ZIPF,
                total_rate=0.30,
                exponent=1.5,
                uniform_mix=0.15,
            ),
            client_pool=250_000,
            notes=(
                "The 37 always-on popular servers that carry ~99% of "
                "flows; Zipf rates make passive find them within minutes "
                "(Figure 1)."
            ),
        ),
        CategorySpec(
            category=BehaviorCategory.SERVER_DEATH_BOTH,
            count=6,
            address_classes=(("static", 1.0),),
            primary_ports=_WEB_HEAVY,
            rate=RateSpec(kind=RateKind.BURST, window_start=0.0, window_end=hours(10), mean_flows=6.0),
            death_window=(hours(10), hours(12)),
            client_pool=4,
            notes="Seen by both in the first 12 h, then the service dies before scan 2.",
        ),
        CategorySpec(
            category=BehaviorCategory.FIREWALL_LATER,
            count=1,
            address_classes=(("static", 1.0),),
            primary_ports=((PORT_HTTP, 1.0),),
            rate=RateSpec(kind=RateKind.TAIL, p_seen=0.995, horizon=hours(10)),
            firewall_internal=1.0,
            firewall_effective_from=hours(12),
            client_pool=6,
            notes="Found by both early; installs a firewall after 12 h so active loses it.",
        ),
        CategorySpec(
            category=BehaviorCategory.MOSTLY_IDLE,
            count=242,
            address_classes=(("static", 1.0),),
            primary_ports=_WEB_HEAVY,
            extra_port_prob=0.2,
            extra_ports=_EXTRAS,
            rate=RateSpec(kind=RateKind.BURST, window_start=0.0, window_end=hours(12), mean_flows=2.0),
            firewall_external=1.0,
            client_pool=1,
            notes=(
                "Overheard in the first 12 h then silent; their firewalls "
                "drop unsolicited external probes, so later scans never "
                "re-reveal them (passive misses them for 17.5 days)."
            ),
        ),
        CategorySpec(
            category=BehaviorCategory.IDLE_INTERMITTENT,
            count=99,
            address_classes=(("dhcp", 0.8), ("ppp", 0.2)),
            primary_ports=((PORT_SSH, 0.40), (PORT_HTTP, 0.40), (PORT_FTP, 0.20)),
            rate=RateSpec(kind=RateKind.SESSION, flows_per_hour=0.004),
            firewall_external=0.7,
            client_pool=1,
            notes="Transient, near-silent servers: active catches them when online.",
        ),
        CategorySpec(
            category=BehaviorCategory.SEMI_IDLE,
            count=1247,
            address_classes=(("static", 1.0),),
            primary_ports=_MIXED,
            extra_port_prob=0.5,
            extra_ports=_EXTRAS,
            rate=RateSpec(kind=RateKind.TAIL, p_seen=0.45, horizon=days(18)),
            mysql_hides_from_external=0.6,
            client_pool=2,
            notes=(
                "The big static mostly-idle mass: rare legitimate flows "
                "(heavy tail) plus unveiling by external scans; without "
                "scans passive loses ~36% of its total (Figure 4)."
            ),
        ),
        CategorySpec(
            category=BehaviorCategory.IDLE_HIDDEN,
            count=75,
            address_classes=(("static", 1.0),),
            primary_ports=((PORT_MYSQL, 0.55), (PORT_HTTP, 0.20), (PORT_FTP, 0.15), (PORT_SSH, 0.10)),
            rate=RateSpec(kind=RateKind.SILENT),
            firewall_external=1.0,
            client_pool=1,
            notes=(
                "Never any client traffic and external probes dropped: "
                "only internal active probing ever sees them.  Heavy on "
                "MySQL -- the hidden-MySQL population of Section 4.4.3."
            ),
        ),
        CategorySpec(
            category=BehaviorCategory.INTERMITTENT_PASSIVE,
            count=26,
            address_classes=(("ppp", 0.9), ("dhcp", 0.1)),
            primary_ports=_WEB_HEAVY,
            rate=RateSpec(kind=RateKind.SESSION, flows_per_hour=0.3),
            client_pool=3,
            notes=(
                "Short-session PPP hosts active while online: passive "
                "hears them, the 12-hourly scans usually miss them."
            ),
        ),
        CategorySpec(
            category=BehaviorCategory.BIRTH_EARLY,
            count=1,
            address_classes=(("static", 1.0),),
            primary_ports=((PORT_HTTP, 1.0),),
            rate=RateSpec(kind=RateKind.TAIL, p_seen=0.99, horizon=hours(6)),
            birth_window=(hours(3.5), hours(4.5)),
            client_pool=5,
            notes="Born after the first scan finished but inside the first 12 h.",
        ),
        CategorySpec(
            category=BehaviorCategory.POSSIBLE_FIREWALL,
            count=4,
            address_classes=(("static", 1.0),),
            primary_ports=((PORT_HTTP, 0.75), (PORT_SSH, 0.25)),
            rate=RateSpec(kind=RateKind.TAIL, p_seen=0.98, horizon=hours(12)),
            firewall_internal=1.0,
            client_pool=4,
            notes="Drop the campus scanner's probes while serving real clients.",
        ),
        CategorySpec(
            category=BehaviorCategory.SERVER_DEATH_PASSIVE,
            count=3,
            address_classes=(("static", 1.0),),
            primary_ports=((PORT_HTTP, 1.0),),
            rate=RateSpec(kind=RateKind.BURST, window_start=0.0, window_end=hours(10), mean_flows=5.0),
            firewall_internal=1.0,
            death_window=(hours(10), hours(12)),
            client_pool=3,
            notes="Firewalled from the scanner, overheard early, then gone.",
        ),
        CategorySpec(
            category=BehaviorCategory.BIRTH_MOSTLY_IDLE,
            count=7,
            address_classes=(("static", 1.0),),
            primary_ports=((PORT_HTTP, 1.0),),
            rate=RateSpec(kind=RateKind.BURST, window_start=hours(4), window_end=hours(12), mean_flows=4.0),
            birth_window=(hours(3.5), hours(6)),
            firewall_external=1.0,
            client_pool=2,
            notes="Born after scan 1, overheard before 12 h, idle afterwards.",
        ),
        CategorySpec(
            category=BehaviorCategory.INTERMITTENT_ACTIVE,
            count=188,
            address_classes=(("dhcp", 0.68), ("ppp", 0.28), ("vpn", 0.04)),
            primary_ports=_WEB_HEAVY,
            extra_port_prob=0.2,
            extra_ports=_EXTRAS,
            rate=RateSpec(kind=RateKind.SESSION, flows_per_hour=0.025),
            client_pool=2,
            notes="Transient hosts whose services are exercised while online.",
        ),
        CategorySpec(
            category=BehaviorCategory.BIRTH_STATIC_BOTH,
            count=125,
            address_classes=(("static", 1.0),),
            primary_ports=_WEB_HEAVY,
            extra_port_prob=0.2,
            extra_ports=_EXTRAS,
            rate=RateSpec(kind=RateKind.TAIL, p_seen=0.85, horizon=days(16)),
            birth_window=(hours(12), days(16)),
            client_pool=4,
            notes="Static servers born during the study, then found by both.",
        ),
        CategorySpec(
            category=BehaviorCategory.INTERMITTENT_IDLE,
            count=655,
            address_classes=(("dhcp", 0.68), ("vpn", 0.20), ("ppp", 0.12)),
            primary_ports=((PORT_HTTP, 0.45), (PORT_SSH, 0.35), (PORT_FTP, 0.20)),
            extra_port_prob=0.3,
            extra_ports=_EXTRAS,
            rate=RateSpec(kind=RateKind.SESSION, flows_per_hour=0.0),
            firewall_external=0.85,
            client_pool=1,
            notes=(
                "Transient and silent (includes the VPN population whose "
                "services are only ever reached via their non-VPN address): "
                "active-only discoveries."
            ),
        ),
        CategorySpec(
            category=BehaviorCategory.BIRTH_IDLE,
            count=73,
            address_classes=(("static", 1.0),),
            primary_ports=((PORT_HTTP, 0.40), (PORT_SSH, 0.30), (PORT_FTP, 0.20), (PORT_MYSQL, 0.10)),
            rate=RateSpec(kind=RateKind.SILENT),
            birth_window=(hours(12), days(17)),
            firewall_external=1.0,
            client_pool=1,
            notes="Born mid-study, silent, scan-proof: active-only.",
        ),
        CategorySpec(
            category=BehaviorCategory.FIREWALL_TRANSIENT,
            count=140,
            address_classes=(("ppp", 0.5), ("dhcp", 0.5)),
            primary_ports=((PORT_HTTP, 0.80), (PORT_SSH, 0.10), (PORT_FTP, 0.10)),
            rate=RateSpec(kind=RateKind.SESSION, flows_per_hour=0.05),
            firewall_internal=1.0,
            client_pool=2,
            notes=(
                "Transient hosts (laptops with personal firewalls) that "
                "drop scanner probes but talk to real peers: passive-only."
            ),
        ),
        CategorySpec(
            category=BehaviorCategory.FIREWALL_BIRTH,
            count=31,
            address_classes=(("static", 1.0),),
            primary_ports=((PORT_HTTP, 0.80), (PORT_SSH, 0.20)),
            rate=RateSpec(kind=RateKind.TAIL, p_seen=0.9, horizon=days(16)),
            birth_window=(hours(12), days(14)),
            firewall_internal=1.0,
            client_pool=3,
            notes="Stable firewalled servers surfacing later: passive-only.",
        ),
    )


#: Live hosts that run none of the selected services.  The paper infers
#: at least 6,450 live hosts among the 16,130 addresses; with 2,960
#: server addresses that leaves ~3,500 live non-servers, which supply
#: the TCP RSTs external-scan detection depends on.
@dataclass(frozen=True)
class NonServerSpec:
    """Population of live hosts without selected services."""

    static_count: int = 2500
    dhcp_count: int = 600
    ppp_count: int = 120
    wireless_count: int = 120
    vpn_count: int = 80
    #: Fraction of non-servers that silently drop probes entirely.
    silent_fraction: float = 0.12

    @property
    def total(self) -> int:
        return (
            self.static_count
            + self.dhcp_count
            + self.ppp_count
            + self.wireless_count
            + self.vpn_count
        )
