"""Tests for the seed-sweep robustness harness."""

import math

import pytest

from repro.experiments.common import ExperimentResult
from repro.experiments.robustness import (
    MetricSpread,
    SweepResult,
    seed_sweeps,
)
from tests.analysis_reference import cv, stdev, unstable_metrics


class TestMetricSpread:
    def test_statistics(self):
        spread = MetricSpread(name="m", values=(1.0, 2.0, 3.0))
        assert spread.mean == 2.0
        assert stdev(spread) == pytest.approx(1.0)
        assert spread.minimum == 1.0
        assert spread.maximum == 3.0
        assert cv(spread) == pytest.approx(0.5)

    def test_single_value(self):
        spread = MetricSpread(name="m", values=(5.0,))
        assert spread.mean == 5.0
        assert stdev(spread) == 0.0
        assert cv(spread) == 0.0

    def test_infinities_excluded_from_mean(self):
        spread = MetricSpread(name="m", values=(1.0, float("inf"), 3.0))
        assert spread.mean == 2.0

    def test_zero_mean_cv(self):
        spread = MetricSpread(name="m", values=(0.0, 0.0))
        assert cv(spread) == 0.0

    def test_all_nan_metric(self):
        """A metric absent from every seed: NaN mean, but no crash and
        no spurious instability flag."""
        spread = MetricSpread(name="m", values=(float("nan"), float("nan")))
        assert math.isnan(spread.mean)
        assert math.isnan(spread.median)
        assert math.isnan(spread.minimum)
        assert math.isnan(spread.maximum)
        assert stdev(spread) == 0.0
        assert cv(spread) == 0.0

    def test_mixed_nan_values_use_finite_subset(self):
        """``min((nan, 2.0))`` is nan and ``min((2.0, nan))`` is 2.0:
        every statistic is over the finite subset, whatever the order."""
        nan = float("nan")
        for values in ((2.0, nan, 4.0), (nan, 2.0, 4.0), (4.0, 2.0, nan)):
            spread = MetricSpread(name="m", values=values)
            assert spread.mean == 3.0
            assert spread.median == 3.0
            assert stdev(spread) == pytest.approx(math.sqrt(2.0))
            assert spread.minimum == 2.0, values
            assert spread.maximum == 4.0, values


class TestSeedSweep:
    def test_sweep_table1(self):
        result = seed_sweeps(("table1",), seeds=(1, 2), scale=0.03)["table1"]
        assert result.experiment_id == "table1"
        assert result.seeds == (1, 2)
        spread = result.spreads["dataset_count"]
        assert spread.values == (8.0, 8.0)
        assert cv(spread) == 0.0
        assert result.paper_values["dataset_count"] == 8.0

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            seed_sweeps(("table99",), seeds=(1,))["table99"]

    def test_empty_seeds(self):
        with pytest.raises(ValueError):
            seed_sweeps(("table1",), seeds=())["table1"]

    def test_single_seed_sweep_has_zero_spread(self):
        """One seed: every metric must report stdev 0 and read stable."""
        result = seed_sweeps(("table1",), seeds=(5,), scale=0.03)["table1"]
        assert result.seeds == (5,)
        for spread in result.spreads.values():
            assert len(spread.values) == 1
            assert stdev(spread) == 0.0
            assert cv(spread) == 0.0
            assert spread.minimum == spread.maximum == spread.values[0]
        assert unstable_metrics(result) == []

    def test_all_nan_metric_survives_sweep_aggregation(self):
        """A metric missing from every seed aggregates to NaN values
        without poisoning the stability flags."""
        result = SweepResult(
            experiment_id="x",
            seeds=(1, 2),
            scale=1.0,
            spreads={
                "ghost": MetricSpread(
                    "ghost", (float("nan"), float("nan"))
                ),
            },
        )
        assert unstable_metrics(result) == []

    def test_unstable_metrics_flagging(self):
        result = SweepResult(
            experiment_id="x",
            seeds=(1, 2),
            scale=1.0,
            spreads={
                "steady": MetricSpread("steady", (10.0, 10.5)),
                "wild": MetricSpread("wild", (1.0, 9.0)),
            },
        )
        assert unstable_metrics(result) == ["wild"]

    def test_cv_threshold_boundary(self):
        """cv exactly at the threshold counts as stable (strict >)."""
        # values (5, 15): mean 10, stdev sqrt(50), cv = sqrt(50)/10.
        spread = MetricSpread("edge", (5.0, 15.0))
        result = SweepResult(
            experiment_id="x", seeds=(1, 2), scale=1.0,
            spreads={"edge": spread},
        )
        assert unstable_metrics(result, cv_threshold=cv(spread)) == []
        assert unstable_metrics(
            result,
            cv_threshold=cv(spread) - 1e-12
        ) == ["edge"]

    def test_sweeps_run_seed_by_seed_and_fill_gaps_with_nan(self):
        """Seeds are the outer loop (experiments sharing a dataset share
        its build); a metric missing at one seed reads NaN there."""
        calls = []

        def run(name, seed, scale):
            calls.append((name, seed))
            metrics = {"always": float(seed)}
            if seed == 2:
                metrics["sometimes"] = 7.0
            return ExperimentResult(name, name, "", metrics=metrics)

        sweeps = seed_sweeps(("table1", "ablations.sampling"), (1, 2), 0.5, run)
        assert calls == [
            ("table1", 1), ("ablations.sampling", 1),
            ("table1", 2), ("ablations.sampling", 2),
        ]
        assert list(sweeps) == ["table1", "ablations.sampling"]
        spreads = sweeps["ablations.sampling"].spreads
        assert spreads["always"].values == (1.0, 2.0)
        assert math.isnan(spreads["sometimes"].values[0])
        assert spreads["sometimes"].values[1] == 7.0
        assert spreads["sometimes"].minimum == 7.0
