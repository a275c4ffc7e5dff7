"""Differential tests: the array probe pipeline against the scalar model.

``ProbeScheduler.advance`` dispatches a window of the schedule at a
time as arrays; :mod:`tests.probe_reference` is the probe-at-a-time
implementation it replaced.  The two must leave the same evidence --
counter for counter, dict key order included, since ``state_dict()``
is pickled into checkpoints and reports are compared byte for byte --
at every cut of every ``advance`` sequence, and a reference state taken
at any cut must resume on the array scheduler.

The columnar :class:`~repro.campus.probe_index.ProbeResponseIndex` is
checked on its own against ``Host.tcp_probe_response`` /
``udp_probe_response`` on a hand-built campus, at every interval edge.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.campus.churn import AddressLedger
from repro.campus.host import (
    FirewallPolicy,
    FirewallScope,
    Host,
    ProbeOutcome,
    UdpPolicy,
    UdpProbeOutcome,
)
from repro.campus.population import CampusPopulation
from repro.campus.probe_index import CLOSED, OPEN, SILENT, ProbeResponseIndex
from repro.campus.service import Service
from repro.net.addr import AddressClass
from repro.net.packet import PROTO_TCP, PROTO_UDP
from repro.probe import ProbeScheduler, build_policy, resolve_probe_ports
from repro.simkernel.clock import days
from tests.probe_reference import ReferenceScheduler, build_reference_policy

END = days(1.5)


def ordered(state: dict) -> dict:
    """``state_dict()`` with dict fields as item lists: order matters."""
    return {
        key: list(value.items()) if isinstance(value, dict) else value
        for key, value in state.items()
    }


@pytest.fixture(scope="module", params=["tcp", "udp"])
def campus(request, small_dtcp18, small_dudp):
    """(dataset, targets, ports, proto): a slice of a built campus.

    Every fourth target keeps sweeps short (several complete within
    END) while still mixing held and never-assigned addresses.
    """
    dataset = small_dtcp18 if request.param == "tcp" else small_dudp
    ports, proto = resolve_probe_ports(None, dataset)
    targets = dataset.probe_targets()[::4]
    held = dataset.population.ledger.addresses_ever_used()
    assert held & set(targets) and set(targets) - held
    return dataset, targets, ports[:3], proto


def schedulers(campus, policy_name, rate, few_targets=False, held=None):
    """(reference, vectorised) over the campus slice; *held* True or
    False keeps only the targets somebody ever holds, or only the rest."""
    dataset, targets, ports, proto = campus
    ever = dataset.population.ledger.addresses_ever_used()
    if few_targets:
        # A sweep of two dozen probes: hundreds complete per window.
        targets = ([a for a in targets if a in ever][:5]
                   + [a for a in targets if a not in ever][:3])
    if held is not None:
        targets = [a for a in targets if (a in ever) == held]
    args = (targets, ports, rate, dataset.seed, dataset.calendar, END)
    reference = ReferenceScheduler(
        dataset.population, build_reference_policy(policy_name, *args), proto=proto
    )
    vectorised = ProbeScheduler(
        dataset.population, build_policy(policy_name, *args), proto=proto
    )
    return reference, vectorised


@st.composite
def advance_cuts(draw):
    """An ``advance`` call sequence, as draws the test turns into times.

    Each cut is a kind and a fraction: an arbitrary instant, exactly a
    probe's instant, exactly a sweep's last probe, or a repeat of the
    previous cut.  Unsorted on purpose: a cut behind the cursor is an
    ``advance`` with nothing due.
    """
    kinds = st.sampled_from(["instant", "probe", "sweep", "repeat"])
    return draw(st.lists(
        st.tuples(kinds, st.floats(0.0, 1.0)), min_size=1, max_size=6
    ))


def cut_times(cuts, policy) -> list[float]:
    total = policy.total_tasks
    times: list[float] = []
    for kind, fraction in cuts:
        if kind == "repeat" and times:
            times.append(times[-1])
        elif kind == "probe" and total:
            times.append(policy.task(int(fraction * (total - 1)))[0])
        elif kind == "sweep" and policy.sweep_count():
            sweep = int(fraction * (policy.sweep_count() - 1))
            times.append(policy.task((sweep + 1) * policy.sweep_size - 1)[0])
        else:
            times.append(fraction * END)
    return times


@pytest.mark.parametrize("policy_name,rate,few_targets", [
    ("heartbeat", 0.4, False), ("heartbeat", 0.07, False),
    ("periodic", 3.0, False), ("heartbeat", 0.4, True),
])
@settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(cuts=advance_cuts(), resume_at=st.integers(0, 5))
def test_vectorised_scheduler_matches_scalar_reference(
    campus, policy_name, rate, few_targets, cuts, resume_at
):
    assert_matches_reference(
        lambda: schedulers(campus, policy_name, rate, few_targets),
        cuts, resume_at,
    )


@pytest.mark.parametrize("policy_name,rate", [
    ("heartbeat", 0.4), ("periodic", 3.0),
])
@pytest.mark.parametrize("held", [True, False], ids=["all-held", "none-held"])
@settings(
    max_examples=6, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(cuts=advance_cuts(), resume_at=st.integers(0, 5))
def test_held_filter_extremes_match_scalar_reference(
    campus, policy_name, rate, held, cuts, resume_at
):
    """Every target held (nothing skipped) and none held (nothing
    resolved): the two ends of the dispatch filter."""
    assert_matches_reference(
        lambda: schedulers(campus, policy_name, rate, held=held),
        cuts, resume_at,
    )


def assert_matches_reference(make, cuts, resume_at) -> None:
    """Drive ``make()``'s pair through *cuts*; resume a third scheduler
    from the reference's state at cut *resume_at*."""
    reference, vectorised = make()
    times = cut_times(cuts, reference.policy)
    resumed = None
    for index, now in enumerate(times):
        assert vectorised.advance(now) == reference.advance(now)
        assert ordered(vectorised.state_dict()) == ordered(reference.state_dict())
        assert vectorised.view() == reference.view()
        if index == min(resume_at, len(times) - 1):
            # A checkpoint the scalar scheduler wrote resumes here.
            _, resumed = make()
            resumed.restore_state(reference.state_dict())
        elif resumed is not None:
            resumed.advance(now)
    for scheduler in (reference, vectorised, resumed):
        scheduler.advance(END)
    final = ordered(reference.state_dict())
    assert reference.exhausted and reference.issued == reference.policy.total_tasks
    assert ordered(vectorised.state_dict()) == final
    assert ordered(resumed.state_dict()) == final
    assert vectorised.view() == reference.view() == resumed.view()


@pytest.mark.parametrize("policy_name,rate", [
    ("heartbeat", 0.4), ("periodic", 3.0),
])
@pytest.mark.parametrize("held", [None, True, False],
                         ids=["mixed", "all-held", "none-held"])
def test_only_probes_at_held_addresses_are_resolved(
    campus, monkeypatch, policy_name, rate, held
):
    """The rows ``outcomes`` sees over a whole schedule are exactly its
    probes at addresses somebody ever holds; with none, it is never
    called."""
    rows = []
    outcomes = ProbeResponseIndex.outcomes

    def counting(self, slots, *args):
        rows.append(len(slots))
        return outcomes(self, slots, *args)

    monkeypatch.setattr(ProbeResponseIndex, "outcomes", counting)
    reference, vectorised = schedulers(campus, policy_name, rate, held=held)
    vectorised.advance(END)
    ever = campus[0].population.ledger.addresses_ever_used()
    policy = reference.policy
    at_held = sum(
        policy.task(k)[1] in ever for k in range(policy.total_tasks)
    )
    assert vectorised.issued == policy.total_tasks
    assert sum(rows) == at_held
    if held is False:
        assert rows == []


@pytest.mark.parametrize("policy_name", ["heartbeat", "periodic"])
@pytest.mark.parametrize("rate", [0.7, 2.3, 0.013])
def test_policy_windows_match_scalar_tasks(campus, policy_name, rate):
    """``window``/``count_until`` against the reference ``task(k)``."""
    dataset, targets, ports, _ = campus
    args = (targets[:50], ports, rate, 3, dataset.calendar, days(3))
    reference = build_reference_policy(policy_name, *args)
    policy = build_policy(policy_name, *args)
    total = reference.total_tasks
    assert policy.total_tasks == total
    assert policy.task(total) is None
    when, address_index, port_index = policy.window(0, total)
    tasks = list(zip(
        when.tolist(),
        policy.targets[address_index].tolist(),
        policy.ports[port_index].tolist(),
    ))
    assert tasks == [reference.task(k) for k in range(total)]
    assert [policy.task(k) for k in (0, total // 2, total - 1)] == [
        tasks[0], tasks[total // 2], tasks[total - 1]
    ]
    # The cursor bound: how many tasks the scalar loop would dispatch,
    # probed exactly on, just before and just after probe instants.
    for k in range(0, total, max(total // 40, 1)):
        instant = tasks[k][0]
        for now in (np.nextafter(instant, -np.inf), instant,
                    np.nextafter(instant, np.inf)):
            due = sum(1 for moment, _, _ in tasks if moment <= now)
            assert policy.count_until(float(now)) == due
    assert policy.count_until(-1.0) == 0
    assert policy.count_until(days(30)) == total


# ---- the columnar index, edge by edge --------------------------------------


def edge_campus() -> CampusPopulation:
    """A hand-built campus with one host per response-path corner."""

    def host(host_id, up, firewall=FirewallPolicy(), udp=UdpPolicy.ICMP_RESPONDER):
        built = Host(
            host_id=host_id, category="edge", address_class=AddressClass.STATIC,
            up_windows=list(up), firewall=firewall, udp_policy=udp,
        )
        built.finalize()
        return built

    def serve(owner, port, proto=PROTO_TCP, birth=0.0, death=None, **flags):
        owner.add_service(Service(
            host_id=owner.host_id, port=port, proto=proto,
            birth=birth, death=death, **flags,
        ))

    plain = host(1, [(10.0, 50.0), (60.0, 90.0)])
    serve(plain, 80, birth=20.0, death=70.0)
    serve(plain, 53, PROTO_UDP, birth=20.0, death=70.0, udp_generic_responder=True)
    serve(plain, 27015, PROTO_UDP, birth=20.0)  # open but quiet
    service_scope = host(
        2, [(0.0, 100.0)], udp=UdpPolicy.SILENT_DROP,
        firewall=FirewallPolicy(blocks_internal=True, effective_from=40.0),
    )
    serve(service_scope, 22)
    serve(service_scope, 53, PROTO_UDP, udp_generic_responder=True)
    host_scope = host(3, [(0.0, 100.0)], firewall=FirewallPolicy(
        blocks_internal=True, blocks_external=True, effective_from=30.0,
        scope=FirewallScope.HOST,
    ))
    serve(host_scope, 80)
    external_only = host(4, [(0.0, 100.0)], firewall=FirewallPolicy(
        blocks_external=True, effective_from=30.0,
    ))
    serve(external_only, 22)
    serve(external_only, 80, blocks_external_probes=True, death=55.0)
    serve(external_only, 53, PROTO_UDP, blocks_external_probes=True,
          udp_generic_responder=True)
    # These two come up after a tenure starts and stay up past the end
    # of one: the lease and the machine keep different hours.
    silent_udp = host(5, [(7.0, 25.0), (70.0, 85.0)], udp=UdpPolicy.SILENT_DROP)
    serve(silent_udp, 80)
    roamer = host(6, [(25.0, 48.0)])
    serve(roamer, 22, birth=30.0)

    ledger = AddressLedger()
    for address, owner in ((1000, plain), (1001, service_scope),
                           (1002, host_scope), (1003, external_only)):
        ledger.record(address, owner.host_id, 0.0, 100.0)
    # One address changing hands, with a gap nobody holds it in.
    ledger.record(2000, silent_udp.host_id, 5.0, 25.0)
    ledger.record(2000, roamer.host_id, 25.0, 45.0)
    ledger.record(2000, silent_udp.host_id, 70.0, 80.0)
    ledger.finalize()
    hosts = (plain, service_scope, host_scope, external_only, silent_udp, roamer)
    return CampusPopulation(
        topology=None, hosts={h.host_id: h for h in hosts}, ledger=ledger,
        duration=100.0, profile_name="edge", seed=0,
    )


TCP_CODE = {ProbeOutcome.NOTHING: SILENT, ProbeOutcome.SYNACK: OPEN,
            ProbeOutcome.RST: CLOSED}
UDP_CODE = {UdpProbeOutcome.NOTHING: SILENT, UdpProbeOutcome.REPLY: OPEN,
            UdpProbeOutcome.ICMP_UNREACHABLE: CLOSED}


@pytest.mark.parametrize("internal", [True, False])
@pytest.mark.parametrize("proto", [PROTO_TCP, PROTO_UDP])
def test_probe_index_matches_hosts_at_every_edge(proto, internal):
    population = edge_campus()
    index = population.probe_index
    # Every tenure, liveness, lifetime and firewall boundary, with the
    # representable instants on either side of it.
    edges = [0.0, 5.0, 7.0, 10.0, 20.0, 25.0, 30.0, 40.0, 45.0, 48.0, 50.0, 55.0,
             60.0, 70.0, 80.0, 85.0, 90.0, 100.0]
    times = sorted(
        {t for e in edges for t in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))}
        | {15.0, 35.0, 65.0, 95.0}
    )
    addresses = [999, 1000, 1001, 1002, 1003, 2000, 3000]  # 999/3000: never held
    ports = [22, 53, 80, 27015, 9999]
    grid = [(a, p, float(t)) for a in addresses for p in ports for t in times]
    address, port, when = (np.asarray(column) for column in zip(*grid))

    codes = index.outcomes(index.slots(address), port, when, proto, internal)

    expected = []
    for a, p, t in grid:
        occupant = population.occupant_host(a, t)
        if occupant is None:
            expected.append(SILENT)
        elif proto == PROTO_TCP:
            expected.append(TCP_CODE[occupant.tcp_probe_response(p, t, internal)])
        else:
            expected.append(UDP_CODE[occupant.udp_probe_response(p, t, internal)])
    assert codes.tolist() == expected
    # The grid reaches every outcome, so no branch passed by absence.
    assert set(expected) == {SILENT, OPEN, CLOSED}
