"""Tests for external-scan detection."""

from repro.net.packet import tcp_rst, tcp_syn, tcp_synack
from repro.passive.scandetect import ScanDetectorConfig
from repro.simkernel.clock import hours
from tests.passive_reference import ReferenceScanDetector

CAMPUS = 0x80_7D_00_00
OUTSIDE = 0x10_00_00_00
SCANNER = 0xC6_00_00_01


def is_campus(address: int) -> bool:
    return (address >> 16) == (CAMPUS >> 16)


def feed_sweep(detector, scanner, targets, rst_responders, t0=0.0):
    """Simulate a sweep: SYN to each target, RSTs from responders."""
    for index, target in enumerate(targets):
        t = t0 + index * 0.01
        detector.observe(tcp_syn(t, scanner, target, 30000, 80))
    for index, responder in enumerate(rst_responders):
        t = t0 + index * 0.01 + 0.005
        detector.observe(tcp_rst(t, responder, scanner, 80, 30000))


class TestDetection:
    def test_big_sweep_detected(self):
        detector = ReferenceScanDetector(is_campus=is_campus)
        targets = [CAMPUS + i for i in range(150)]
        feed_sweep(detector, SCANNER, targets, targets[:120])
        assert detector.scanners() == {SCANNER}

    def test_few_targets_not_detected(self):
        detector = ReferenceScanDetector(is_campus=is_campus)
        targets = [CAMPUS + i for i in range(50)]
        feed_sweep(detector, SCANNER, targets, targets)
        assert detector.scanners() == set()

    def test_many_targets_few_rsts_not_detected(self):
        """Probing many addresses but getting few RSTs (e.g. mostly
        dead space) stays under the paper's second threshold."""
        detector = ReferenceScanDetector(is_campus=is_campus)
        targets = [CAMPUS + i for i in range(200)]
        feed_sweep(detector, SCANNER, targets, targets[:50])
        assert detector.scanners() == set()

    def test_custom_thresholds(self):
        config = ScanDetectorConfig(min_targets=10, min_rsts=10)
        detector = ReferenceScanDetector(is_campus=is_campus, config=config)
        targets = [CAMPUS + i for i in range(12)]
        feed_sweep(detector, SCANNER, targets, targets)
        assert detector.scanners() == {SCANNER}

    def test_window_split_not_detected(self):
        """A slow scan spread across two 12-hour buckets with half the
        volume in each must not trip the per-window thresholds."""
        detector = ReferenceScanDetector(is_campus=is_campus)
        first = [CAMPUS + i for i in range(60)]
        second = [CAMPUS + i for i in range(60, 120)]
        feed_sweep(detector, SCANNER, first, first, t0=0.0)
        feed_sweep(detector, SCANNER, second, second, t0=hours(13))
        assert detector.scanners() == set()

    def test_legitimate_client_not_flagged(self):
        detector = ReferenceScanDetector(is_campus=is_campus)
        client = OUTSIDE + 5
        for i in range(200):
            detector.observe(tcp_syn(float(i), client, CAMPUS + 1, 40000 + i, 80))
            detector.observe(tcp_synack(float(i) + 0.05, CAMPUS + 1, client, 80, 40000 + i))
        assert detector.scanners() == set()

    def test_direction_filter(self):
        """Campus hosts scanning outward are not 'external scanners'."""
        detector = ReferenceScanDetector(is_campus=is_campus)
        targets = [OUTSIDE + i for i in range(150)]
        for index, target in enumerate(targets):
            detector.observe(tcp_syn(index * 0.01, CAMPUS + 1, target, 30000, 80))
            detector.observe(tcp_rst(index * 0.01, target, CAMPUS + 1, 80, 30000))
        assert detector.scanners() == set()

    def test_target_count(self):
        detector = ReferenceScanDetector(is_campus=is_campus)
        targets = [CAMPUS + i for i in range(30)]
        feed_sweep(detector, SCANNER, targets, [])
        assert detector.target_count(SCANNER) == 30
        assert detector.target_count(OUTSIDE + 1) == 0

    def test_multiple_scanners(self):
        detector = ReferenceScanDetector(is_campus=is_campus)
        targets = [CAMPUS + i for i in range(150)]
        feed_sweep(detector, SCANNER, targets, targets[:110])
        feed_sweep(detector, SCANNER + 1, targets, targets[:110], t0=hours(1))
        assert detector.scanners() == {SCANNER, SCANNER + 1}
