"""Assorted edge-case tests across modules."""

import random

import pytest

from repro.campus.churn import SessionStyle, _bias_to_daytime, generate_sessions
from repro.core.report import render_series
from repro.simkernel.clock import days, hours, minutes
from repro.traffic.scans import _poisson
from tests.simkernel_reference import exponential_interarrivals


class TestPoissonSampler:
    def test_zero_mean(self):
        assert _poisson(random.Random(0), 0.0) == 0

    def test_mean_statistics(self):
        rng = random.Random(1)
        draws = [_poisson(rng, 12.0) for _ in range(2000)]
        mean = sum(draws) / len(draws)
        assert 11.0 < mean < 13.0

    def test_nonnegative(self):
        rng = random.Random(2)
        assert all(_poisson(rng, 0.3) >= 0 for _ in range(500))


class TestExponentialInterarrivalsEdges:
    def test_respects_start_offset(self):
        rng = random.Random(3)
        times = list(exponential_interarrivals(rng, 1.0, 500.0, 600.0))
        assert all(t > 500.0 for t in times)

    def test_empty_range(self):
        rng = random.Random(3)
        assert list(exponential_interarrivals(rng, 1.0, 10.0, 10.0)) == []


class TestDayBias:
    def test_daytime_start_unchanged(self):
        rng = random.Random(4)
        # 10:00 dataset start: t=0 is 10:00, well past 07:00.
        assert _bias_to_daytime(rng, 0.0, 10.0) == 0.0

    def test_night_start_pushed_forward(self):
        rng = random.Random(4)
        # 16 hours after a 10:00 start is 02:00.
        start = hours(16)
        biased = _bias_to_daytime(rng, start, 10.0)
        assert biased > start
        hour = (10.0 + biased / 3600.0) % 24.0
        assert 8.0 <= hour <= 12.0

    def test_minimum_session_length_enforced(self):
        rng = random.Random(5)
        style = SessionStyle(mean_session_hours=0.001, mean_gap_hours=0.01)
        sessions = generate_sessions(rng, style, days(1))
        for start, end in sessions:
            # Floor of 60 seconds, possibly clipped at dataset end.
            assert end - start >= 59.0 or end == days(1)


class TestRenderSeriesEdges:
    def test_exact_max_points_not_downsampled(self):
        points = [(float(i), float(i)) for i in range(20)]
        text = render_series("x", {"s": points}, max_points=20)
        rows = [line for line in text.splitlines() if line.startswith("| s |")]
        assert len(rows) == 20

    def test_empty_series(self):
        text = render_series("x", {"s": []})
        assert "### x" in text

    def test_multiple_series_all_present(self):
        text = render_series(
            "x", {"a": [(0.0, 1.0)], "b": [(0.0, 2.0)]}
        )
        assert "| a | 0 | 1.00 |" in text
        assert "| b | 0 | 2.00 |" in text


class TestClockEdges:
    def test_fraction_minutes(self):
        assert minutes(0.5) == 30.0

    def test_negative_durations_allowed_arithmetically(self):
        # Durations are plain floats; arithmetic helpers do not guard
        # sign (scheduling layers do).  Document via test.
        assert days(-1) == -86400.0
