"""Tests for the degradation sweep experiment."""

from __future__ import annotations

import multiprocessing
import os

import pytest

import repro.experiments.degradation as degradation
from repro.experiments.degradation import (
    DegradationPoint,
    DegradationResult,
    _plan_for_point,
    degradation_report,
    measure_point,
    run_degradation,
)
from repro.telemetry.metrics import MetricRegistry, set_registry

DATASET = "DTCPall"
RATES = (0.0, 0.3)
FRACTIONS = (0.0, 0.25)


#: Counters a pooled sweep must report exactly as a sequential one
#: (the trace-cache and traffic counters may differ: two workers can
#: both miss the cache).
POOLED_COUNTERS = (
    "repro_replay_records_total",
    "repro_passive_records_total",
    "repro_passive_dropped_total",
    "repro_active_probes_total",
)


def counted_sweep(jobs=1):
    """The test sweep under a fresh enabled registry, plus the
    :data:`POOLED_COUNTERS` it recorded (every label set)."""
    registry = MetricRegistry()
    previous = set_registry(registry)
    try:
        result = run_degradation(
            DATASET, seed=7, scale=1.0,
            loss_rates=RATES, outage_fractions=FRACTIONS, jobs=jobs,
        )
    finally:
        set_registry(previous)
    counters = {
        (metric.name, metric.labels): metric.value
        for metric in registry.collect()
        if metric.name in POOLED_COUNTERS
    }
    return result, counters


@pytest.fixture(scope="module")
def counted():
    return counted_sweep()


@pytest.fixture(scope="module")
def sweep(counted):
    return counted[0]


class TestPlanForPoint:
    def test_origin_is_faultless(self):
        assert _plan_for_point(0, 0.0, 0.0) is None

    def test_rates_threaded_through(self):
        plan = _plan_for_point(0, 0.1, 0.25)
        assert plan.capture_loss_rate == 0.1
        assert plan.probe_loss_rate == 0.1
        assert plan.response_loss_rate == 0.1
        assert plan.outage_fraction == 0.25
        assert plan.prober_downtime_fraction == 0.25

    def test_points_fail_independently(self):
        a = _plan_for_point(0, 0.1, 0.0)
        b = _plan_for_point(0, 0.2, 0.0)
        c = _plan_for_point(1, 0.1, 0.0)
        assert a.seed != b.seed != c.seed
        # But the same coordinates always get the same realisation.
        assert a == _plan_for_point(0, 0.1, 0.0)


class TestSweep:
    def test_baseline_is_fault_free(self, sweep):
        assert sweep.baseline.loss_rate == 0.0
        assert sweep.baseline.outage_fraction == 0.0
        assert sweep.baseline.records_dropped == 0
        assert sweep.baseline.passive_addresses > 0
        assert sweep.baseline.active_addresses > 0

    def test_grid_order_and_size(self, sweep):
        coordinates = [(p.loss_rate, p.outage_fraction) for p in sweep.points]
        assert coordinates == [
            (loss, outage) for outage in FRACTIONS for loss in RATES
        ]

    def test_origin_point_matches_baseline(self, sweep):
        origin = sweep.points[0]
        assert sweep.retained_pct(origin) == (100.0, 100.0, 100.0)

    def test_loss_degrades_passive(self, sweep):
        origin = sweep.points[0]
        lossy = next(
            p for p in sweep.points
            if p.loss_rate == 0.3 and p.outage_fraction == 0.0
        )
        assert lossy.records_dropped > 0
        assert lossy.capture_drop_pct == pytest.approx(30.0, abs=2.0)
        assert lossy.passive_addresses <= origin.passive_addresses

    def test_union_never_below_either_method(self, sweep):
        for point in sweep.points:
            assert point.union_addresses >= point.passive_addresses
            assert point.union_addresses >= point.active_addresses

    def test_deterministic_across_runs(self, sweep):
        again = run_degradation(
            DATASET, seed=7, scale=1.0,
            loss_rates=RATES, outage_fractions=FRACTIONS,
        )
        assert again.baseline == sweep.baseline
        assert again.points == sweep.points

    def test_jobs_match_sequential(self, counted):
        """Same points and, with telemetry on, the same counters: each
        worker's metrics come home."""
        sweep, counters = counted
        pooled, pooled_counters = counted_sweep(jobs=2)
        assert pooled.baseline == sweep.baseline
        assert pooled.points == sweep.points
        assert {name for name, _ in counters} == set(POOLED_COUNTERS)
        assert pooled_counters == counters

    def test_single_point_is_deterministic(self):
        a = measure_point(DATASET, 7, 1.0, 0.3, 0.25)
        b = measure_point(DATASET, 7, 1.0, 0.3, 0.25)
        assert a == b

    def test_input_validation(self):
        with pytest.raises(ValueError):
            run_degradation(DATASET, loss_rates=())
        with pytest.raises(ValueError):
            run_degradation(DATASET, outage_fractions=())
        with pytest.raises(ValueError):
            run_degradation(DATASET, jobs=0)


class TestForkedPoints:
    """At ``jobs > 1`` a point that fails stops the sweep with an error
    naming it, and no child outlives the sweep."""

    @pytest.fixture
    def steered(self, monkeypatch):
        """Instant fake points; ``(loss, outage) -> failure`` entries
        make a point raise or kill its child."""
        failures = {}

        def fake_point(dataset, seed, scale, loss, outage):
            failure = failures.get((loss, outage))
            if failure == "raise":
                raise ValueError("capture plan refused")
            if failure == "crash":
                os._exit(23)
            return DegradationPoint(loss, outage, 10, 0, 5, 5, 8)

        monkeypatch.setattr(degradation, "measure_point", fake_point)
        yield failures
        assert multiprocessing.active_children() == []

    def sweep(self):
        return run_degradation(
            DATASET, seed=7, scale=1.0,
            loss_rates=RATES, outage_fractions=FRACTIONS, jobs=2,
        )

    def test_raising_point_named_with_traceback(self, steered):
        steered[(0.3, 0.25)] = "raise"
        with pytest.raises(RuntimeError) as excinfo:
            self.sweep()
        message = str(excinfo.value)
        assert "(loss_rate=0.3, outage_fraction=0.25)" in message
        assert "ValueError" in message
        assert "capture plan refused" in message
        assert "Traceback" in message

    def test_crashing_point_is_a_worker_crash(self, steered):
        steered[(0.3, 0.0)] = "crash"
        with pytest.raises(RuntimeError) as excinfo:
            self.sweep()
        message = str(excinfo.value)
        assert "(loss_rate=0.3, outage_fraction=0)" in message
        assert "WorkerCrash" in message
        assert "code 23" in message

    def test_fakes_complete_in_grid_order(self, steered):
        result = self.sweep()
        assert [(p.loss_rate, p.outage_fraction) for p in result.points] == [
            (loss, outage) for outage in FRACTIONS for loss in RATES
        ]


class TestReporting:
    def test_report_renders(self, sweep):
        text = degradation_report(sweep)
        assert "Degradation sweep: DTCPall" in text
        assert "baseline" in text
        assert "| Loss rate" in text
        assert "0.3" in text

    def test_series_shape(self, sweep):
        series = sweep.series()
        assert set(series) == {
            f"{method} outage={outage:g}"
            for method in ("passive", "active", "union")
            for outage in FRACTIONS
        }
        for points in series.values():
            assert [x for x, _ in points] == list(RATES)

    def test_retention_against_synthetic_baseline(self):
        def point(loss, passive, active, union):
            return DegradationPoint(
                loss_rate=loss, outage_fraction=0.0,
                records_seen=100, records_dropped=0,
                passive_addresses=passive, active_addresses=active,
                union_addresses=union,
            )

        result = DegradationResult(
            dataset="x", seed=0, scale=1.0,
            baseline=point(0.0, 200, 100, 250),
            points=[point(0.1, 100, 75, 125)],
        )
        assert result.retained_pct(result.points[0]) == (50.0, 75.0, 50.0)

    def test_cli(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "degradation.md"
        code = main([
            "degradation", DATASET, "--seed", "7", "--scale", "1.0",
            "--loss-rates", "0", "0.3", "--outage-fractions", "0",
            "--out", str(out),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "Degradation sweep" in text
        assert out.read_text().strip() in text
