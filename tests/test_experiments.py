"""Smoke and shape tests for the experiment harness (small scale).

At small scale absolute counts drift (rare categories are rounded up),
so assertions here check structure; the shape properties are rows of
the fidelity ledger (``repro.experiments.fidelity``), and ``TestShapes``
names the rows that hold at this scale and seed.
"""

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.common import clear_caches
from repro.experiments.runner import (
    comparison_table,
    render_report,
    run_experiment,
)

SEED = 3
SCALE = 0.05


@pytest.fixture(scope="module")
def results(cached_run):
    try:
        return {name: cached_run(name, SEED, SCALE) for name in ALL_EXPERIMENTS}
    finally:
        clear_caches()


class TestHarness:
    def test_all_experiments_run(self, results):
        assert set(results) == set(ALL_EXPERIMENTS)

    def test_results_render(self, results):
        for name, result in results.items():
            text = result.render()
            assert text.startswith("##"), name
            assert result.experiment_id == name

    def test_every_experiment_has_metrics(self, results):
        for name, result in results.items():
            assert result.metrics, name

    def test_comparison_tables_render(self, results):
        for result in results.values():
            text = comparison_table(result)
            if result.paper_values:
                assert "| metric | ours | paper |" in text

    def test_report_renders_all_sections(self, results):
        report = render_report(list(results.values()), SEED, SCALE)
        for name in ALL_EXPERIMENTS:
            assert results[name].title in report


class TestShapes:
    def test_table3_partition(self, results):
        metrics = results["table3"].metrics
        total = sum(metrics.values())
        assert total == 16_130

    def test_table4_partition(self, results):
        metrics = results["table4"].metrics
        rows = {
            k: v for k, v in metrics.items() if not k.startswith("firewall")
        }
        assert sum(rows.values()) == 16_130


#: The other ``TestShapes`` node ids, and the ledger rows that carry what
#: each asserted before the shapes moved into the ledger.
SHAPE_ROWS = {
    "table2_active_beats_passive_at_12h": ("table2.active_12h", "table2.passive_12h"),
    "table2_passive_grows_with_time": ("table2.passive_grows",),
    "table6_ssh_gap": ("table6.ssh_gap", "table6.mysql_active_ahead"),
    "table7_possibly_open_dominated_by_netbios": ("table7.netbios_dominates",),
    "table8_commercial_links_dominate": ("table8.internet2_below_commercial1",),
    "figure01_passive_weighted_beats_active": ("figure01.passive_client_t99",),
    "figure02_active_total_exceeds_passive": ("figure02.active_finds_more",),
    "figure03_static_levels_off": ("figure03.static_levels_off",),
    "figure04_scans_help_passive": ("figure04.reduction", "figure04.scanners_exist"),
    "figure05_vpn_asymmetry": ("figure05.vpn_asymmetry",),
    "figure07_subset_budgets": (
        "figure07.full_schedule_scans",
        "figure07.day_schedule_scans",
        "figure07.full_beats_alternating",
    ),
    "figure08_sampling_monotone": (
        "figure08.monotone_30_10",
        "figure08.monotone_10_2",
        "figure08.half_the_data_small_campus",
    ),
    "figure09_dominant_server": ("figure09.dominant_server",),
    "figure10_passive_tops_out_partial": ("figure10.passive_tops_out",),
    "figure11_epmap_active_only": (
        "figure11.epmap_never_passive",
        "figure11.epmap_active",
        "figure11.ssh_active",
    ),
    "figure12_break_passive_above_semester": ("figure12.break_near_semester",),
}
for _name, _rows in SHAPE_ROWS.items():
    setattr(
        TestShapes,
        f"test_{_name}",
        lambda self, ledger_holds, _rows=_rows: ledger_holds(SCALE, SEED, *_rows),
    )


class TestRunAll:
    def test_run_all_list(self):
        clear_caches()
        # Re-run two cheap experiments through the public entry point.
        results = [run_experiment("table1", SEED, SCALE)]
        assert results[0].experiment_id == "table1"
