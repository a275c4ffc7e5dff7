"""Tests for completeness summaries and weighted curves."""

import pytest
from hypothesis import given, strategies as st

from repro.core.completeness import (
    CompletenessSummary,
    curve_time_to_percent,
    summarize_overlap,
    unit_weights,
    weighted_discovery_curve,
)
from repro.core.timeline import DiscoveryTimeline


class TestSummarizeOverlap:
    def test_paper_12h_numbers(self):
        """Feeding the paper's Table 2 column-one sets reproduces its
        percentages exactly."""
        passive = set(range(327))
        active = set(range(286)) | set(range(327, 327 + 1421))
        summary = summarize_overlap(passive, active)
        assert summary.union == 1748
        assert summary.both == 286
        assert summary.active_only == 1421
        assert summary.passive_only == 41
        assert summary.active_pct == pytest.approx(97.65, abs=0.1)
        assert summary.passive_pct == pytest.approx(18.7, abs=0.1)

    def test_disjoint(self):
        summary = summarize_overlap({1, 2}, {3})
        assert summary.union == 3
        assert summary.both == 0

    def test_empty(self):
        summary = summarize_overlap(set(), set())
        assert summary.union == 0
        assert summary.active_pct == 0.0

    def test_rows_structure(self):
        rows = summarize_overlap({1}, {1, 2}).as_rows()
        assert [r[0] for r in rows] == [
            "Total servers found (union)",
            "Passive AND Active",
            "Active only",
            "Passive only",
            "Active",
            "Passive",
        ]

    @given(st.sets(st.integers(0, 300)), st.sets(st.integers(0, 300)))
    def test_property_partition(self, passive, active):
        summary = summarize_overlap(passive, active)
        assert summary.both + summary.active_only + summary.passive_only == summary.union
        # The counts derived from one intersection are the set algebra's.
        assert summary.union == len(passive | active)
        assert summary.active_only == len(active - passive)
        assert summary.passive_only == len(passive - active)
        assert summary.active_total == len(active)
        assert summary.passive_total == len(passive)


class TestWeightedCurve:
    def test_unweighted_equals_count_fraction(self):
        timeline = DiscoveryTimeline.from_mapping({"a": 1.0, "b": 3.0})
        curve = weighted_discovery_curve(
            timeline, unit_weights({"a", "b"}), 0.0, 4.0, 1.0
        )
        values = dict(curve)
        assert values[0.0] == 0.0
        assert values[1.0] == 50.0
        assert values[3.0] == 100.0

    def test_weights_shift_curve(self):
        timeline = DiscoveryTimeline.from_mapping({"popular": 1.0, "rare": 100.0})
        curve = weighted_discovery_curve(
            timeline, {"popular": 99.0, "rare": 1.0}, 0.0, 200.0, 1.0
        )
        values = dict(curve)
        assert values[1.0] == pytest.approx(99.0)
        assert values[200.0] == pytest.approx(100.0)

    def test_universe_expands_denominator(self):
        timeline = DiscoveryTimeline.from_mapping({"a": 1.0})
        curve = weighted_discovery_curve(
            timeline, {"a": 1.0, "missing": 1.0}, 0.0, 5.0, 1.0,
            universe={"a", "missing"},
        )
        assert dict(curve)[5.0] == pytest.approx(50.0)

    def test_zero_total_weight(self):
        timeline = DiscoveryTimeline.from_mapping({"a": 1.0})
        curve = weighted_discovery_curve(timeline, {}, 0.0, 2.0, 1.0)
        assert all(v == 0.0 for _, v in curve)

    def test_time_to_percent(self):
        curve = [(0.0, 0.0), (1.0, 50.0), (2.0, 99.5)]
        assert curve_time_to_percent(curve, 50.0) == 1.0
        assert curve_time_to_percent(curve, 99.0) == 2.0
        assert curve_time_to_percent(curve, 99.9) is None

    @given(
        st.dictionaries(
            st.integers(0, 50),
            st.tuples(
                st.floats(min_value=0, max_value=100),
                st.floats(min_value=0.01, max_value=10),
            ),
            max_size=30,
        )
    )
    def test_property_monotone_to_100(self, data):
        timeline = DiscoveryTimeline.from_mapping(
            {item: t for item, (t, _) in data.items()}
        )
        weights = {item: w for item, (_, w) in data.items()}
        curve = weighted_discovery_curve(timeline, weights, 0.0, 100.0, 5.0)
        values = [v for _, v in curve]
        assert values == sorted(values)
        if data:
            assert values[-1] == pytest.approx(100.0)


class TestSummaryPercentHelpers:
    def test_percentages_consistent(self):
        summary = CompletenessSummary(union=200, both=100, active_only=60, passive_only=40)
        assert summary.both_pct == 50.0
        assert summary.active_pct == 80.0
        assert summary.passive_pct == 70.0
