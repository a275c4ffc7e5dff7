"""Tests for the paper's deferred/optional features we implemented.

* alternative sampling strategies (Section 5.3 future work);
* host-discovery-accelerated scanning (Section 5.4's omitted
  optimisation).
"""

import pytest
from hypothesis import given, strategies as st

from repro.active.prober import HalfOpenScanner, HostDiscoveryStats
from repro.campus.population import synthesize_population
from repro.campus.profiles import semester_profile
from repro.net.addr import AddressClass
from repro.net.packet import udp_datagram
from repro.net.ports import SELECTED_TCP_PORTS
from repro.passive.monitor import PassiveServiceTable
from repro.passive.sampling import CountBudgetSampler, ProbabilisticSampler
from repro.simkernel.clock import days, hours, minutes
from tests.passive_reference import (
    ReferenceCountBudgetSampler,
    ReferenceProbabilisticSampler,
    ReferenceSamplingTable,
)

CAMPUS = 0x80_7D_00_00
OUTSIDE = 0x10_00_00_00


def is_campus(address: int) -> bool:
    return (address >> 16) == (CAMPUS >> 16)


class TestProbabilisticSampler:
    def test_deterministic(self):
        sampler = ReferenceProbabilisticSampler(probability=0.5, salt=1)
        record = udp_datagram(1.0, 1, 2, 53, 500)
        assert sampler.keep_record(record) == sampler.keep_record(record)

    def test_long_run_fraction(self):
        sampler = ReferenceProbabilisticSampler(probability=0.3, salt=2)
        kept = sum(
            1
            for i in range(5000)
            if sampler.keep_record(udp_datagram(float(i), i, i + 1, 53, 500))
        )
        assert 0.25 < kept / 5000 < 0.35

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            ProbabilisticSampler(probability=0.0)
        with pytest.raises(ValueError):
            ProbabilisticSampler(probability=1.5)

    @given(st.floats(min_value=0.05, max_value=1.0), st.integers(0, 100))
    def test_property_salt_changes_selection_not_rate(self, p, salt):
        a = ReferenceProbabilisticSampler(probability=p, salt=salt)
        record = udp_datagram(3.25, 9, 10, 53, 500)
        assert a.keep_record(record) in (True, False)


class TestCountBudgetSampler:
    def test_budget_per_window(self):
        sampler = ReferenceCountBudgetSampler(budget_per_period=3)
        kept = [
            sampler.keep_record(udp_datagram(minutes(i), 1, 2, 53, 500))
            for i in range(10)
        ]
        assert kept == [True] * 3 + [False] * 7

    def test_budget_resets_each_period(self):
        sampler = ReferenceCountBudgetSampler(budget_per_period=2)
        first_hour = [
            sampler.keep_record(udp_datagram(minutes(i), 1, 2, 53, 500))
            for i in range(5)
        ]
        second_hour = [
            sampler.keep_record(udp_datagram(hours(1) + minutes(i), 1, 2, 53, 500))
            for i in range(5)
        ]
        assert first_hour == second_hour == [True, True, False, False, False]

    def test_validation(self):
        with pytest.raises(ValueError):
            CountBudgetSampler(budget_per_period=0)


class TestSamplingTable:
    def test_filters_records(self):
        inner = PassiveServiceTable(is_campus=is_campus, tcp_ports=frozenset({80}))
        wrapper = ReferenceSamplingTable(
            inner, ReferenceCountBudgetSampler(budget_per_period=1)
        )
        from repro.net.packet import tcp_synack

        wrapper.observe(tcp_synack(1.0, CAMPUS + 1, OUTSIDE + 1, 80, 4000))
        wrapper.observe(tcp_synack(2.0, CAMPUS + 2, OUTSIDE + 1, 80, 4000))
        assert wrapper.kept == 1 and wrapper.dropped == 1
        assert inner.server_addresses() == {CAMPUS + 1}
        assert wrapper.observed_fraction == 0.5


class TestBidirectionalUdpSignal:
    """Section 2.2's caveat: UDP evidence need not be a solicited answer.

    The source-port rule counts a campus datagram from a watched port
    even when no request preceded it."""

    def test_sport_mode_accepts_unsolicited(self):
        table = PassiveServiceTable(
            is_campus=is_campus,
            tcp_ports=frozenset(),
            udp_ports=frozenset({53}),
        )
        table.observe(udp_datagram(1.0, CAMPUS + 3, OUTSIDE + 1, 53, 5353))
        assert len(table.endpoints()) == 1


@pytest.fixture(scope="module")
def population():
    return synthesize_population(
        semester_profile(scale=0.05), seed=51, duration=days(2)
    )


@pytest.fixture(scope="module")
def targets(population):
    space = population.topology.space
    return [
        a for a in space.addresses()
        if space.class_of(a) is not AddressClass.WIRELESS
    ]


class TestHostDiscoveryScan:
    def test_saves_probes(self, population, targets):
        scanner = HalfOpenScanner(population)
        report, stats = scanner.scan_with_host_discovery(
            targets, SELECTED_TCP_PORTS, start=0.0, duration=hours(2)
        )
        assert isinstance(stats, HostDiscoveryStats)
        # Most of the 16,130 addresses are unpopulated: huge savings.
        assert stats.savings_pct > 50.0
        assert stats.probes_sent < stats.probes_naive
        assert stats.live <= stats.targets

    def test_finds_subset_of_exhaustive(self, population, targets):
        scanner = HalfOpenScanner(population)
        exhaustive = scanner.scan(
            targets, SELECTED_TCP_PORTS, start=0.0, duration=hours(2)
        )
        fast, _ = scanner.scan_with_host_discovery(
            targets, SELECTED_TCP_PORTS, start=0.0, duration=hours(2)
        )
        # Host discovery can only lose hosts (dark firewalls), never
        # invent them.  Probe times differ, so compare static hosts
        # (always up) to avoid transient-session noise.
        static = {
            h.static_address
            for h in population.hosts.values()
            if h.static_address is not None
        }
        exhaustive_static = exhaustive.open_addresses() & static
        fast_static = fast.open_addresses() & static
        assert fast_static <= exhaustive_static
        assert len(fast_static) >= 0.8 * len(exhaustive_static)

    def test_empty_targets_rejected(self, population):
        with pytest.raises(ValueError):
            HalfOpenScanner(population).scan_with_host_discovery(
                [], (80,), 0.0, 100.0
            )

    def test_counts_as_one_sweep_in_telemetry(self, population, targets):
        """Two phases, one logical sweep: flushed once, for the merged report."""
        from repro.faults import FaultPlan
        from repro.telemetry.metrics import MetricRegistry, disable, set_registry

        plan = FaultPlan(seed=5, probe_loss_rate=0.2, response_loss_rate=0.1)
        reg = MetricRegistry()
        set_registry(reg)
        try:
            report, stats = HalfOpenScanner(
                population, faults=plan
            ).scan_with_host_discovery(
                targets, SELECTED_TCP_PORTS, start=0.0, duration=hours(2)
            )
        finally:
            disable()
        assert stats.live and len(report.ports) > 1  # both phases ran
        assert reg.value("repro_active_sweeps_total") == 1
        assert reg.value("repro_active_probes_total") == stats.probes_sent
        assert reg.value("repro_active_synacks_total") == report.counts.synack
        assert reg.value("repro_active_rsts_total") == report.counts.rst
        assert reg.value("repro_active_silent_probes_total") == report.counts.nothing
        # Phase 1 alone retransmits to every held-but-silent address;
        # a merged flush that forgot a phase would read lower.
        solo = MetricRegistry()
        set_registry(solo)
        try:
            HalfOpenScanner(population, faults=plan).scan(
                targets, SELECTED_TCP_PORTS[:1], start=0.0, duration=hours(0.5)
            )
        finally:
            disable()
        assert reg.value("repro_active_retransmits_total") > solo.value(
            "repro_active_retransmits_total"
        ) > 0
        assert reg.value("repro_active_timeouts_total") > solo.value(
            "repro_active_timeouts_total"
        ) > 0
