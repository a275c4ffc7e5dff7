"""Tests for discovery timelines and cumulative curves."""

import pytest
from hypothesis import given, strategies as st

from repro.core.timeline import (
    DiscoveryTimeline,
    cumulative_curve,
    discovery_rate,
)
from tests.analysis_reference import merge, time_to_fraction


class TestDiscoveryTimeline:
    def test_record_keeps_minimum(self):
        timeline = DiscoveryTimeline()
        timeline.record("a", 10.0)
        timeline.record("a", 5.0)
        timeline.record("a", 7.0)
        assert timeline.first_seen["a"] == 5.0

    def test_from_events(self):
        timeline = DiscoveryTimeline.from_events([(3.0, "x"), (1.0, "x"), (2.0, "y")])
        assert timeline.first_seen == {"x": 1.0, "y": 2.0}

    def test_merge_earliest_wins(self):
        a = DiscoveryTimeline.from_mapping({"x": 5.0, "y": 1.0})
        b = DiscoveryTimeline.from_mapping({"x": 3.0, "z": 9.0})
        merged = merge(a, b)
        assert merged.first_seen == {"x": 3.0, "y": 1.0, "z": 9.0}
        # Merge does not mutate its operands.
        assert a.first_seen["x"] == 5.0

    def test_restrict(self):
        timeline = DiscoveryTimeline.from_mapping({"x": 1.0, "y": 2.0})
        assert timeline.restrict(["y"]).items() == {"y"}

    def test_before(self):
        timeline = DiscoveryTimeline.from_mapping({"x": 1.0, "y": 2.0})
        assert timeline.before(2.0).items() == {"x"}

    def test_contains_len(self):
        timeline = DiscoveryTimeline.from_mapping({"x": 1.0})
        assert "x" in timeline
        assert len(timeline) == 1

    def test_count_before(self):
        timeline = DiscoveryTimeline.from_mapping({"a": 1.0, "b": 2.0, "c": 3.0})
        assert timeline.count_before(0.5) == 0
        assert timeline.count_before(2.0) == 2
        assert timeline.count_before(10.0) == 3

    def test_addresses_collapses_tuples(self):
        timeline = DiscoveryTimeline.from_mapping(
            {(1, 80): 5.0, (1, 22): 2.0, (2, 80): 7.0}
        )
        collapsed = timeline.addresses()
        assert collapsed.first_seen == {1: 2.0, 2: 7.0}


class TestCumulativeCurve:
    def test_monotone_and_bounded(self):
        timeline = DiscoveryTimeline.from_mapping({"a": 1.0, "b": 5.0, "c": 9.0})
        curve = cumulative_curve(timeline, 0.0, 10.0, 1.0)
        counts = [count for _, count in curve]
        assert counts == sorted(counts)
        assert counts[-1] == 3
        assert curve[0] == (0.0, 0)
        assert curve[-1][0] == 10.0

    def test_bad_step(self):
        with pytest.raises(ValueError):
            cumulative_curve(DiscoveryTimeline(), 0, 10, 0)

    @given(
        st.lists(st.floats(min_value=0, max_value=100), max_size=50),
        st.floats(min_value=0.5, max_value=20),
    )
    def test_property_monotone(self, times, step):
        timeline = DiscoveryTimeline.from_events(
            (t, f"item{i}") for i, t in enumerate(times)
        )
        curve = cumulative_curve(timeline, 0.0, 100.0, step)
        counts = [c for _, c in curve]
        assert counts == sorted(counts)
        assert counts[-1] == len(times)


class TestTimeToFraction:
    def test_basic(self):
        timeline = DiscoveryTimeline.from_mapping({"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0})
        assert time_to_fraction(timeline, 0.5) == 2.0
        assert time_to_fraction(timeline, 1.0) == 4.0

    def test_with_external_total(self):
        timeline = DiscoveryTimeline.from_mapping({"a": 1.0, "b": 2.0})
        # 2 of 10: 20% reached at 2.0; 50% never reached.
        assert time_to_fraction(timeline, 0.2, total=10) == 2.0
        assert time_to_fraction(timeline, 0.5, total=10) is None

    def test_empty(self):
        assert time_to_fraction(DiscoveryTimeline(), 0.5) is None

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            time_to_fraction(DiscoveryTimeline(), 1.5)


class TestDiscoveryRate:
    def test_rate(self):
        timeline = DiscoveryTimeline.from_mapping(
            {f"i{k}": 3600.0 * k for k in range(10)}
        )
        # Four discoveries in [0h, 4h): one per hour.
        assert discovery_rate(timeline, 0.0, 4 * 3600.0) == pytest.approx(1.0)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            discovery_rate(DiscoveryTimeline(), 10.0, 10.0)


class TestAddressesForPort:
    def test_indexes_tuple_items_by_port(self):
        timeline = DiscoveryTimeline.from_mapping(
            {(1, 80, 6): 0.0, (2, 22, 6): 1.0, (3, 80): 2.0, "bare": 3.0}
        )
        assert timeline.addresses_for_port(80) == {1, 3}
        assert timeline.addresses_for_port(22) == {2}
        assert timeline.addresses_for_port(443) == set()

    def test_index_invalidated_by_record(self):
        timeline = DiscoveryTimeline.from_mapping({(1, 80, 6): 0.0})
        assert timeline.addresses_for_port(80) == {1}
        timeline.record((2, 80, 6), 5.0)
        assert timeline.addresses_for_port(80) == {1, 2}

    def test_returned_set_is_a_copy(self):
        timeline = DiscoveryTimeline.from_mapping({(1, 80, 6): 0.0})
        timeline.addresses_for_port(80).add(99)
        assert timeline.addresses_for_port(80) == {1}
