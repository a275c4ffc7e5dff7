"""Behaviour of the traffic sources, read off the columns they emit.

That those columns are the scalar generators' records byte for byte is
``tests/test_traffic_differential.py``.
"""

from math import inf

import numpy as np
import pytest

from repro.campus.churn import AddressLedger
from repro.campus.host import Host
from repro.campus.population import CampusPopulation, synthesize_population
from repro.campus.profiles import semester_profile
from repro.campus.service import ActivityPattern, Service
from repro.campus.topology import build_topology
from repro.net.addr import AddressClass, parse_ipv4
from repro.net.packet import PROTO_TCP, TcpFlags
from repro.simkernel.clock import Calendar, days, hours
from repro.simkernel.rng import RngStreams
from repro.traffic.clients import ClientDirectory, _client_flows
from repro.traffic.generator import TrafficMix, border_column_batches, default_diurnal
from repro.traffic.links import (
    LINK_COMMERCIAL1,
    LINK_COMMERCIAL2,
    LINK_INTERNET2,
    is_academic_client,
    link_for_client,
    link_for_scanner,
)
from repro.traffic.noise import _outbound_noise
from repro.traffic.scans import ScanSweep, _sweep_packets, build_scan_plan


def quiet_host(address=None, rate=0.01, windows=None, port=80) -> Host:
    host = Host(
        host_id=0,
        category="test",
        address_class=AddressClass.STATIC,
        static_address=address or parse_ipv4("128.125.64.10"),
        up_windows=[(0.0, days(10))],
    )
    host.finalize()
    host.add_service(
        Service(
            host_id=0,
            port=port,
            activity=ActivityPattern(base_rate=rate, windows=windows, client_pool=5),
        )
    )
    return host


class TestLinks:
    def test_academic_clients_use_internet2(self):
        address = parse_ipv4("171.64.1.1")
        assert link_for_client(address, academic=True) == LINK_INTERNET2

    def test_commercial_split_deterministic(self):
        address = parse_ipv4("17.1.2.3")
        first = link_for_client(address, academic=False)
        assert first == link_for_client(address, academic=False)
        assert first in (LINK_COMMERCIAL1, LINK_COMMERCIAL2)

    def test_commercial_split_roughly_62_38(self):
        base = parse_ipv4("16.0.0.0")
        links = [link_for_client(base + i, False) for i in range(4000)]
        share = links.count(LINK_COMMERCIAL1) / len(links)
        assert 0.57 <= share <= 0.67

    def test_academic_fraction_statistics(self):
        base = parse_ipv4("16.0.0.0")
        count = sum(
            1 for i in range(4000) if is_academic_client(base + i, 0.25)
        )
        assert 0.20 <= count / 4000 <= 0.30

    def test_scanners_never_internet2(self):
        base = parse_ipv4("198.0.0.0")
        assert all(
            link_for_scanner(base + i) != LINK_INTERNET2 for i in range(500)
        )


def lone_host_population(host: Host) -> CampusPopulation:
    return CampusPopulation(
        topology=build_topology(),
        hosts={host.host_id: host},
        ledger=AddressLedger(),
        duration=days(10),
        profile_name="test",
        seed=0,
    )


class TestServiceFlowStream:
    def _flows(self, host, start=0.0, end=days(5)):
        """``(time, client)`` of every flow, from its opening SYN."""
        walks = _client_flows(
            lone_host_population(host), RngStreams(1), None, start, end
        )
        packets = walks(inf)
        if packets is None:
            return []
        syn = packets.flags == TcpFlags.SYN
        assert (packets.dst[syn] == host.static_address).all()
        assert walks.log.flows == syn.sum()
        return list(zip(packets.time[syn].tolist(), packets.src[syn].tolist()))

    def test_flows_sorted_in_range(self):
        flows = self._flows(quiet_host(rate=0.001))
        assert flows == sorted(flows, key=lambda f: f[0])
        assert all(0.0 <= t < days(5) for t, _ in flows)

    def test_rate_controls_volume(self):
        few = self._flows(quiet_host(rate=0.0001))
        many = self._flows(quiet_host(rate=0.003))
        assert len(many) > len(few) * 3

    def test_silent_service_emits_nothing(self):
        assert self._flows(quiet_host(rate=0.0)) == []

    def test_activity_windows_respected(self):
        windows = ((hours(1), hours(3)),)
        flows = self._flows(quiet_host(rate=0.01, windows=windows))
        assert flows
        assert all(hours(1) <= t < hours(3) for t, _ in flows)

    def test_host_downtime_gates_flows(self):
        host = quiet_host(rate=0.01)
        host.up_windows = [(hours(2), hours(4))]
        host.finalize()
        flows = self._flows(host)
        assert flows
        assert all(hours(2) <= t < hours(4) for t, _ in flows)

    def test_clients_come_from_pool(self):
        host = quiet_host(rate=0.005)
        pool = ClientDirectory(RngStreams(1)).pool_for(host.services[(80, PROTO_TCP)])
        clients = {client for _, client in self._flows(host)}
        assert clients and clients <= {address for address, _ in pool}

    def test_deterministic(self):
        assert self._flows(quiet_host()) == self._flows(quiet_host())

    def test_a_handshake_is_three_packets_one_rtt_apart(self):
        packets = _client_flows(
            lone_host_population(quiet_host()), RngStreams(1), None, 0.0, days(1)
        )(inf)
        flags = packets.flags.reshape(-1, 3)
        assert (flags == [TcpFlags.SYN, TcpFlags.SYN | TcpFlags.ACK, TcpFlags.ACK]).all()
        time = packets.time.reshape(-1, 3)
        rtt = time[:, 1] - time[:, 0]
        assert ((0.02 <= rtt) & (rtt <= 0.1)).all()
        assert np.allclose(time[:, 2] - time[:, 1], rtt)


class TestScans:
    @pytest.fixture(scope="class")
    def population(self):
        return synthesize_population(
            semester_profile(scale=0.05), seed=21, duration=days(18)
        )

    def test_plan_determinism(self, population):
        profile = semester_profile(scale=0.05)
        plan1 = build_scan_plan(profile.scan_climate, RngStreams(5), days(18))
        plan2 = build_scan_plan(profile.scan_climate, RngStreams(5), days(18))
        assert plan1 == plan2

    def test_plan_has_major_sweeps(self, population):
        profile = semester_profile(scale=0.05)
        plan = build_scan_plan(profile.scan_climate, RngStreams(5), days(18))
        full = [s for s in plan.sweeps if s.coverage >= 0.9]
        assert len(full) >= 5

    def test_sweep_packets(self, population):
        sweep = ScanSweep(
            scanner=parse_ipv4("198.51.100.7"),
            port=80,
            start=hours(10),
            rate=200.0,
            coverage=1.0,
            link=LINK_COMMERCIAL1,
        )
        packets = _sweep_packets(population, sweep, RngStreams(9), days(18))
        syns = packets.flags == TcpFlags.SYN
        synacks = packets.flags == TcpFlags.SYN | TcpFlags.ACK
        rsts = packets.flags == TcpFlags.RST
        assert syns.sum() == population.topology.space.size
        assert synacks.any(), "a full web sweep must reveal some servers"
        assert rsts.any(), "live non-servers must reset"
        assert (syns | synacks | rsts).all()
        # Responses attribute to the scanned address.
        assert (packets.dst[synacks] == sweep.scanner).all()
        assert (packets.sport[synacks] == 80).all()

    def test_sweep_respects_end(self, population):
        sweep = ScanSweep(
            scanner=parse_ipv4("198.51.100.7"),
            port=80,
            start=0.0,
            rate=1.0,  # 16k addresses would take hours
            coverage=1.0,
            link=LINK_COMMERCIAL1,
        )
        packets = _sweep_packets(population, sweep, RngStreams(9), end=100.0)
        assert (packets.time < 100.0 + 1.0).all()
        assert 100 <= len(packets) < 300


class TestNoiseAndMix:
    def test_outbound_noise_shape(self):
        population = synthesize_population(
            semester_profile(scale=0.05), seed=2, duration=days(2)
        )
        packets = _outbound_noise(
            population, RngStreams(3), 200.0, 0.0, days(2)
        )(inf)
        assert len(packets) > 0
        inside = population.topology.contains
        syn = packets.flags == TcpFlags.SYN
        # browse flows: SYN out (campus src), SYN-ACK back in.
        for out, src, dst in zip(
            syn.tolist(), packets.src.tolist(), packets.dst.tolist()
        ):
            assert inside(src) == out and inside(dst) != out

    def test_border_stream_deterministic(self):
        population = synthesize_population(
            semester_profile(scale=0.03), seed=2, duration=days(1)
        )
        mix = TrafficMix.quiet()
        def rows():
            return [
                row
                for columns in border_column_batches(
                    population, mix, 7, 0.0, days(1)
                )
                for row in zip(columns.time.tolist(), columns.src.tolist(),
                               columns.dst.tolist())
            ]

        first = rows()
        second = rows()
        assert first == second

    def test_diurnal_default(self):
        profile = default_diurnal(Calendar())
        assert profile.factor(hours(5)) > profile.factor(hours(17))
