"""Seed-robustness: headline shapes must not be one-seed flukes.

Runs the cheap invariants across several seeds at small scale.  The
paper shapes are fidelity-ledger rows (``repro.experiments.fidelity``)
and the tests here name the rows that carry them; the two simulator
invariants -- no phantom services, no false scanner flags -- are
asserted directly.
"""

import pytest

from repro.datasets import build_dataset
from repro.passive.monitor import PassiveServiceTable
from repro.passive.scandetect import ExternalScanDetector

SEEDS = (11, 29, 47)
SCALE = 0.04


@pytest.fixture(scope="module", params=SEEDS)
def seeded_run(request):
    dataset = build_dataset("DTCP1-18d", seed=request.param, scale=SCALE)
    table = PassiveServiceTable(
        is_campus=dataset.is_campus, tcp_ports=dataset.tcp_ports
    )
    detector = ExternalScanDetector(is_campus=dataset.is_campus)
    dataset.replay(table, detector)
    return request.param, dataset, table, detector


class TestSeedRobustShapes:
    def test_active_more_complete(self, seeded_run, ledger_holds):
        ledger_holds(SCALE, seeded_run[0], "figure02.active_finds_more")

    def test_first_scan_dominates_12h(self, seeded_run, ledger_holds):
        ledger_holds(SCALE, seeded_run[0], "table2.active_12h")

    def test_passive_only_exists(self, seeded_run, ledger_holds):
        ledger_holds(SCALE, seeded_run[0], "table2.passive_only_minority")

    def test_no_false_scanner_flags(self, seeded_run):
        _, dataset, _, detector = seeded_run
        actual = dataset.mix.scan_plan.scanner_addresses()
        assert detector.scanners() <= actual
        assert detector.scanners()

    def test_popular_coverage_early(self, seeded_run, ledger_holds):
        ledger_holds(SCALE, seeded_run[0], "figure01.popular_heard_early")

    def test_no_phantom_services(self, seeded_run):
        _, dataset, table, _ = seeded_run
        truth = dataset.population.ground_truth_endpoints()
        for address, port, _ in table.endpoints():
            assert (address, port) in truth
