"""The fidelity ledger: table well-formedness, the evaluator, the CLI,
and the tier-1 gate (the rows small scales admit, on fixed seeds)."""

import json
import math
from dataclasses import replace

import pytest

from repro.experiments import fidelity
from repro.experiments.common import ExperimentResult
from repro.experiments.fidelity import (
    LEDGER,
    LedgerError,
    PerScale,
    Row,
    above,
    at_least,
    below,
    between,
    exactly,
    versus,
)

NAN = float("nan")


def fake_run(per_seed):
    """A ``run`` returning the given metrics dict per seed, recording
    which experiments were asked for."""
    asked = []

    def run(name, seed, scale):
        asked.append(name)
        return ExperimentResult(name, name, "", metrics=dict(per_seed[seed]))

    run.asked = asked
    return run


def verdict_of(relation, metrics, scale=1.0, **row_fields):
    """Verdict of one row over one synthetic seed."""
    row = Row("table1.row", "m", relation, **row_fields)
    (verdict,) = fidelity.evaluate((0,), scale, [row], fake_run({0: metrics}))
    return verdict.verdict


class TestTable:
    def test_shipped_table_is_well_formed(self):
        fidelity.check_table(LEDGER)

    @pytest.mark.parametrize(
        "rows",
        [
            [Row("table1.a", "m", above(0)), Row("table1.a", "o", above(0))],
            [Row("table99.a", "m", above(0))],
            [Row("ablations.nope.a", "m", above(0))],
            [Row("table1.a", "m", above(0), status="skip")],
            [Row("table1.a", "m", above(0), status="drift", note="why")],
            [Row("table1.a", "m", above(0), paper=1.0, status="drift")],
        ],
        ids=["duplicate-id", "unknown-experiment", "unknown-ablation",
             "unknown-status", "drift-without-paper", "drift-without-note"],
    )
    def test_malformed_tables_are_errors(self, rows):
        with pytest.raises(LedgerError):
            fidelity.check_table(rows)
        with pytest.raises(LedgerError):
            fidelity.evaluate((0,), 1.0, rows, fake_run({0: {"m": 1.0}}))

    def test_every_row_names_metrics_its_experiment_returns(self, cached_run):
        """Run once at scale 0.05 with every row admitted: a metric no
        experiment returns is a LedgerError, and where a row and its
        experiment both state the paper's value they agree."""
        rows = [replace(row, min_scale=0.0) for row in LEDGER]
        verdicts = fidelity.evaluate((3,), 0.05, rows, cached_run)
        assert [verdict.row.id for verdict in verdicts] == [r.id for r in LEDGER]
        for row in LEDGER:
            stated = cached_run(row.experiment, 3, 0.05).paper_values
            if row.paper is not None and row.metric in stated:
                assert row.paper == stated[row.metric], row.id


class TestRelations:
    """Each form at, just inside and just outside its edge."""

    @pytest.mark.parametrize(
        "relation, value, holds",
        [
            (above(10.0), 10.0, False),
            (above(10.0), 10.001, True),
            (at_least(10.0), 10.0, True),
            (at_least(10.0), 9.999, False),
            (below(10.0), 10.0, False),
            (below(10.0), 9.999, True),
            (between(1.0, 2.0), 1.0, False),
            (between(1.0, 2.0), 1.5, True),
            (between(1.0, 2.0), 2.0, False),
            (between(0.0, 2.0, lo_op="<="), 0.0, True),
            (between(0.0, 2.0, lo_op="<="), -0.001, False),
            (exactly(8), 8.0, True),
            (exactly(8), 8.001, False),
            (exactly(8), 7.999, False),
        ],
    )
    def test_band(self, relation, value, holds):
        assert verdict_of(relation, {"m": value}) == ("pass" if holds else "fail")

    @pytest.mark.parametrize(
        "relation, value, holds",
        [
            (versus(">=", 0.85, "o"), 85.0, True),
            (versus(">=", 0.85, "o"), 84.999, False),
            (versus(">", 0.85, "o"), 85.0, False),
            (versus(">", 0.85, "o"), 85.001, True),
            (versus("<", 1, "o", offset=-20.0), 80.0, False),
            (versus("<", 1, "o", offset=-20.0), 79.999, True),
            (versus("<=", 1, "o"), 100.0, True),
            (versus("<=", 1, "o"), 100.001, False),
            # k x (o + p) + offset = 0.1 x 150 + 0.1
            (versus(">", 0.1, "o", "p", offset=0.1), 15.1, False),
            (versus(">", 0.1, "o", "p", offset=0.1), 15.101, True),
        ],
    )
    def test_versus(self, relation, value, holds):
        metrics = {"m": value, "o": 100.0, "p": 50.0}
        assert verdict_of(relation, metrics) == ("pass" if holds else "fail")

    @pytest.mark.parametrize(
        "value, holds", [(25.0, False), (25.001, True), (24.0, False)]
    )
    def test_per_scale(self, value, holds):
        verdict = verdict_of(PerScale(">", 50), {"m": value}, scale=0.5, min_scale=0.5)
        assert verdict == ("pass" if holds else "fail")

    def test_relations_describe_themselves(self):
        assert between(55.0, 85.0).describe("m") == "55 < m < 85"
        assert at_least(5).describe("m") == "5 <= m"
        assert exactly(8).describe("m") == "m == 8"
        assert versus(">=", 0.85, "o").describe("m") == "m >= 0.85 x o"
        assert versus("<", 1, "o", offset=-20.0).describe("m") == "m < o -20"
        assert (
            versus(">", 0.1, "o", "p", offset=0.1).describe("m")
            == "m > 0.1 x (o + p) +0.1"
        )
        assert PerScale(">", 50).describe("m") == "m > 50 x scale"


class TestEvaluate:
    def test_min_scale_filters_rows_and_their_experiments(self):
        rows = [
            Row("table1.small", "m", above(0), min_scale=0.25),
            Row("table2.paper", "m", above(0)),
        ]
        run = fake_run({0: {"m": 1.0}})
        verdicts = fidelity.evaluate((0,), 0.25, rows, run)
        assert [v.row.id for v in verdicts] == ["table1.small"]
        assert run.asked == ["table1"]
        assert [v.row.id for v in fidelity.evaluate((0,), 1.0, rows, run)] == [
            "table1.small", "table2.paper",
        ]

    def test_a_row_holds_only_if_it_holds_on_every_seed(self):
        row = Row("table1.r", "m", above(10.0))
        run = fake_run({0: {"m": 11.0}, 1: {"m": 9.0}, 2: {"m": 12.0}})
        (verdict,) = fidelity.evaluate((0, 1, 2), 1.0, [row], run)
        assert verdict.verdict == "fail"
        assert verdict.spread.values == (11.0, 9.0, 12.0)
        (verdict,) = fidelity.evaluate((0, 2), 1.0, [row], run)
        assert verdict.verdict == "pass"

    def test_drift_row_in_band_is_drift_and_out_of_band_fails(self):
        drift = dict(paper=1.15, status="drift", note="cause")
        assert verdict_of(between(0.70, 0.85), {"m": 0.78}, **drift) == "drift"
        assert verdict_of(between(0.70, 0.85), {"m": 0.86}, **drift) == "fail"
        assert verdict_of(between(0.70, 0.85), {"m": 0.69}, **drift) == "fail"

    @pytest.mark.parametrize("bad", [NAN, math.inf, -math.inf])
    def test_non_finite_metric_fails_never_skips(self, bad):
        assert verdict_of(above(0), {"m": bad}) == "fail"
        assert verdict_of(versus("<=", 1, "o"), {"m": 1.0, "o": bad}) == "fail"

    def test_metric_missing_at_one_seed_fails(self):
        row = Row("table1.r", "m", versus(">", 1, "o"))
        run = fake_run({0: {"m": 2.0, "o": 1.0}, 1: {"o": 1.0}})
        (verdict,) = fidelity.evaluate((0, 1), 1.0, [row], run)
        assert verdict.verdict == "fail"
        run = fake_run({0: {"m": 2.0, "o": 1.0}, 1: {"m": 2.0}})
        (verdict,) = fidelity.evaluate((0, 1), 1.0, [row], run)
        assert verdict.verdict == "fail"

    def test_metric_no_seed_returns_is_an_error(self):
        run = fake_run({0: {"m": 2.0}, 1: {"m": 2.0}})
        with pytest.raises(LedgerError, match="no metric 'typo'"):
            fidelity.evaluate(
                (0, 1), 1.0, [Row("table1.r", "typo", above(0))], run
            )
        with pytest.raises(LedgerError, match="no metric 'typo'"):
            fidelity.evaluate(
                (0, 1), 1.0, [Row("table1.r", "m", versus(">", 1, "typo"))], run
            )


class TestCli:
    ROWS = (
        Row("table1.ok", "m", above(1.0), paper=3.0),
        Row("table1.versus", "m", versus(">", 1, "o")),
        Row("table1.known", "m", between(1.0, 3.0), paper=9.0,
            status="drift", note="cause"),
    )
    METRICS = {0: {"m": 2.0, "o": 1.5}, 1: {"m": 2.123456, "o": 1 / 3}}

    def test_exit_zero_and_byte_stable_output(self, tmp_path, capsys):
        run = fake_run(self.METRICS)
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            code = fidelity.main(
                ["--seeds", "2", "--scale", "0.5", "--out", str(out)],
                rows=[replace(row, min_scale=0.5) for row in self.ROWS],
                run=run,
            )
            assert code == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        document = json.loads(outs[0].read_text())
        assert document["scale"] == 0.5
        assert document["seeds"] == [0, 1]
        assert document["summary"] == {"pass": 2, "drift": 1, "fail": 0}
        ok, against, known = document["rows"]
        assert ok == {
            "id": "table1.ok", "experiment": "table1", "metric": "m",
            "relation": "1 < m", "paper": 3.0, "verdict": "pass",
            "values": [2.0, 2.1235], "median": 2.0617, "min": 2.0, "max": 2.1235,
        }
        assert against["against"] == {"o": [1.5, 0.3333]}
        assert known["verdict"] == "drift" and known["note"] == "cause"
        stdout = capsys.readouterr().out
        assert "drift table1.known: 1 < m < 3" in stdout and "paper 9" in stdout
        assert "2 pass, 1 drift, 0 fail" in stdout

    def test_any_fail_exits_non_zero_naming_the_row(self, tmp_path, capsys):
        """A NaN is a fail, and the file stays strict JSON (null, never
        a bare NaN token)."""
        out = tmp_path / "f.json"
        metrics = {0: self.METRICS[0], 1: {"m": NAN, "o": 1.0}}
        code = fidelity.main(
            ["--seeds", "2", "--out", str(out)], self.ROWS, fake_run(metrics)
        )
        assert code == 1

        def reject(token):
            raise AssertionError(f"non-strict JSON token {token}")

        document = json.loads(out.read_text(), parse_constant=reject)
        assert document["summary"] == {"pass": 0, "drift": 0, "fail": 3}
        assert document["rows"][0]["values"] == [2.0, None]
        assert document["rows"][0]["min"] == document["rows"][0]["max"] == 2.0
        stdout = capsys.readouterr().out
        assert "fail  table1.ok: 1 < m; seeds [0, 1] -> [2.0, None]; paper 3" in stdout


#: The tier-1 gate: scale 0.25 on seed 2 (the old calibration tests'
#: point) and scale 0.04 on three seeds (the old seed-robustness ones).
TIER1 = [(0.25, 2), (0.04, 11), (0.04, 29), (0.04, 47)]


@pytest.mark.parametrize("scale, seed", TIER1)
def test_admitted_rows_hold(ledger_at, scale, seed):
    verdicts = ledger_at(scale, seed).values()
    assert verdicts
    failed = [verdict.describe() for verdict in verdicts if verdict.verdict == "fail"]
    assert not failed, "\n".join(failed)


def test_committed_fidelity_json_is_the_shipped_table():
    """FIDELITY.json is the CLI's output at its defaults: every row, in
    table order, relation text current, no ``fail``."""
    import pathlib

    path = pathlib.Path(__file__).resolve().parent.parent / "FIDELITY.json"
    document = json.loads(path.read_text())
    assert (document["scale"], document["seeds"]) == (1.0, [0, 1, 2, 3, 4])
    assert [(row["id"], row["relation"], row["paper"]) for row in document["rows"]] == [
        (row.id, row.relation.describe(row.metric), row.paper) for row in LEDGER
    ]
    assert document["summary"]["fail"] == 0
    assert document["summary"]["drift"] == sum(
        row.status == "drift" for row in LEDGER
    )
