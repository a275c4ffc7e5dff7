"""End-to-end integration invariants.

These tests cross-check the *observations* (passive table, scan
reports) against the simulator's ground truth -- the checks the paper
could never run, but a reproduction must: no discovery method may ever
report a service that did not exist.
"""

from repro.active.results import union_open_endpoints
from repro.net.packet import PROTO_TCP
from repro.passive.monitor import PassiveServiceTable
from repro.passive.scandetect import ExternalScanDetector
from repro.simkernel.clock import days, hours


class TestNoFalsePositives:
    def test_passive_endpoints_are_real(self, small_dtcp18_passive):
        dataset, table = small_dtcp18_passive
        truth = dataset.population.ground_truth_endpoints(PROTO_TCP)
        for address, port, proto in table.endpoints():
            assert proto == PROTO_TCP
            assert (address, port) in truth, (
                f"passive reported a phantom service {address}:{port}"
            )

    def test_active_opens_are_real(self, small_dtcp18):
        truth = small_dtcp18.population.ground_truth_endpoints(PROTO_TCP)
        for endpoint in union_open_endpoints(small_dtcp18.scan_reports):
            assert endpoint in truth

    def test_passive_first_seen_not_before_service_alive(self, small_dtcp18_passive):
        dataset, table = small_dtcp18_passive
        for (address, port, _), t in table.first_seen.items():
            host = dataset.population.occupant_host(address, t)
            # The occupant at evidence time must be running that service.
            assert host is not None
            service = host.service_on(port)
            assert service is not None and service.alive_at(t - 0.5)


class TestMethodAsymmetries:
    def test_internal_firewalled_servers_escape_active(self, small_dtcp18):
        """Hosts blocking internal probes are never in scan opens."""
        population = small_dtcp18.population
        blocked = {
            h.static_address
            for h in population.hosts.values()
            if h.firewall.blocks_internal
            and h.firewall.effective_from == 0.0
            and h.static_address is not None
        }
        active = {a for a, _ in union_open_endpoints(small_dtcp18.scan_reports)}
        assert not (blocked & active)

    def test_silent_open_servers_escape_passive(self, small_dtcp18_passive):
        """Idle, externally-firewalled servers are invisible passively."""
        dataset, table = small_dtcp18_passive
        population = dataset.population
        hidden = set()
        for host in population.hosts.values():
            if host.static_address is None or not host.services:
                continue
            if not host.firewall.blocks_external:
                continue
            if all(s.activity.is_silent for s in host.services.values()):
                hidden.add(host.static_address)
        assert hidden, "fixture should contain silent hidden servers"
        assert not (hidden & table.server_addresses())

    def test_active_finds_most_passive_finds_popular_fast(self, small_dtcp18_passive):
        dataset, table = small_dtcp18_passive
        active = {a for a, _ in union_open_endpoints(dataset.scan_reports)}
        passive = table.server_addresses()
        union = active | passive
        # Active is the more complete method overall...
        assert len(active) > len(passive)
        assert len(active) / len(union) > 0.85
        # ...but passive hears the popular servers almost immediately.
        early = {
            a for (a, p, pr), t in table.first_seen.items() if t < hours(1)
        }
        assert early


class TestScanDetectionIntegration:
    def test_detected_scanners_are_actual_scanners(self, small_dtcp18):
        detector = ExternalScanDetector(is_campus=small_dtcp18.is_campus)
        small_dtcp18.replay(detector)
        actual = small_dtcp18.mix.scan_plan.scanner_addresses()
        detected = detector.scanners()
        assert detected, "the big sweeps must trip the detector"
        assert detected <= actual, "no legitimate client may be flagged"


class TestTraceRoundtripIntegration:
    def test_analysis_identical_from_recorded_trace(self, small_dtcp18, tmp_path):
        """Record a day of traffic to the binary trace format, read it
        back, and verify the passive table is identical."""
        from repro.trace.columnar import ColumnarTraceWriter, read_trace

        live = PassiveServiceTable(
            is_campus=small_dtcp18.is_campus, tcp_ports=small_dtcp18.tcp_ports
        )
        path = tmp_path / "day1.rprt"
        with ColumnarTraceWriter.open(path) as writer:
            for record in small_dtcp18.packet_stream(end=days(1)):
                live.observe(record)
                writer.write(record)
        replayed = PassiveServiceTable(
            is_campus=small_dtcp18.is_campus, tcp_ports=small_dtcp18.tcp_ports
        )
        for record in read_trace(path):
            replayed.observe(record)
        assert replayed.first_seen == live.first_seen
        assert replayed.flow_counts == live.flow_counts

    def test_anonymized_trace_same_counts(self, small_dtcp18):
        """Anonymisation preserves every aggregate the analyses use."""
        from repro.trace.anonymize import Anonymizer

        anonymizer = Anonymizer(key=99)
        plain = PassiveServiceTable(
            is_campus=small_dtcp18.is_campus, tcp_ports=small_dtcp18.tcp_ports
        )
        masked = PassiveServiceTable(
            is_campus=small_dtcp18.is_campus, tcp_ports=small_dtcp18.tcp_ports
        )
        for record in small_dtcp18.packet_stream(end=hours(18)):
            plain.observe(record)
            masked.observe(anonymizer.anonymize(record))
        assert len(masked.endpoints()) == len(plain.endpoints())
        assert sorted(masked.flow_counts.values()) == sorted(plain.flow_counts.values())
