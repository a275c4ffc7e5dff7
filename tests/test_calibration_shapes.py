"""Quarter-scale calibration: the headline shapes, as fidelity-ledger rows.

The assertions live in ``repro.experiments.fidelity.LEDGER``; each test
names the rows that carry what it used to assert, judged at scale 0.25
seed 2 (the evaluation is shared with ``test_fidelity``'s tier-1 gate).
"""

SCALE = 0.25
SEED = 2


class TestHeadlineShapes:
    def test_one_scan_dominates_short_passive(self, ledger_holds):
        ledger_holds(SCALE, SEED, "table2.active_12h", "table2.passive_12h")

    def test_18d_passive_catches_most_but_not_all(self, ledger_holds):
        ledger_holds(SCALE, SEED, "table2.passive_18d", "table2.active_18d")

    def test_passive_only_minority_exists(self, ledger_holds):
        ledger_holds(SCALE, SEED, "table2.passive_only_minority")

    def test_popular_servers_heard_within_minutes(self, ledger_holds):
        ledger_holds(SCALE, SEED, "figure01.popular_heard_early")

    def test_transient_discovery_never_levels_off(self, ledger_holds):
        ledger_holds(SCALE, SEED, "figure02.churn_never_levels_off")

    def test_scan_jumps_visible(self, ledger_holds):
        ledger_holds(SCALE, SEED, "figure02.scan_jump", "figure02.scan_jump_floor")
