"""Tests for repro.simkernel.schedule."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.simkernel.clock import Calendar, days, hours
from repro.simkernel.schedule import (
    DiurnalProfile,
    PeriodicSchedule,
    thinned_poisson_times,
    times_of_day,
)
from tests.simkernel_reference import clip_windows


class TestPeriodicSchedule:
    def test_daily_occurrences(self):
        schedule = times_of_day(Calendar(), 11, 23)
        # Calendar starts at 10:00, so 11:00 and 23:00 both land day 1.
        occurrences = list(schedule.occurrences(0.0, days(2)))
        assert occurrences == [hours(1), hours(13), hours(25), hours(37)]

    def test_empty_range(self):
        schedule = times_of_day(Calendar(), 11)
        assert list(schedule.occurrences(10.0, 10.0)) == []

    def test_start_bound_inclusive_end_exclusive(self):
        schedule = times_of_day(Calendar(), 11)
        occurrences = list(schedule.occurrences(hours(1), hours(25)))
        assert occurrences == [hours(1)]

    def test_unsorted_anchors_rejected(self):
        with pytest.raises(ValueError):
            PeriodicSchedule(calendar=Calendar(), anchors=(100.0, 50.0))

    def test_out_of_range_anchor_rejected(self):
        with pytest.raises(ValueError):
            PeriodicSchedule(calendar=Calendar(), anchors=(90000.0,))

    def test_paper_scan_count_over_18_days(self):
        schedule = times_of_day(Calendar(), 11, 23)
        count = len(list(schedule.occurrences(0.0, days(18))))
        assert count == 36  # the paper reports 35; one per 12 hours


class TestDiurnalProfile:
    def test_weekday_mean_is_one(self):
        profile = DiurnalProfile()
        # Average the factor over one weekday (Tue 2006-09-19).
        samples = [profile.factor(t) for t in range(0, 86400, 600)]
        assert 0.95 <= sum(samples) / len(samples) <= 1.05

    def test_peak_hour_is_maximal(self):
        profile = DiurnalProfile(peak_hour=15.0)
        peak = profile.factor(hours(5))  # 15:00 local on day one
        trough = profile.factor(hours(17))  # 03:00 local
        assert peak > trough

    def test_weekend_scaled_down(self):
        profile = DiurnalProfile(weekend_scale=0.5)
        weekday = profile.factor(hours(4))
        weekend = profile.factor(hours(4) + days(4))  # Saturday, same hour
        assert weekend == pytest.approx(weekday * 0.5)

    def test_peak_factor_bounds_actual_factors(self):
        profile = DiurnalProfile()
        ceiling = profile.peak_factor()
        for t in range(0, 86400 * 2, 900):
            assert profile.factor(t) <= ceiling * 1.0001


    #: Midnights of the default calendar (it starts Tue 10:00): k = 3 is
    #: Friday -> Saturday, k = 5 Sunday -> Monday.  Offsets straddle
    #: them by a second, a microsecond, and the sub-microsecond
    #: fractions ``timedelta`` rounds half-even.
    _near_midnight = st.builds(
        lambda k, offset: hours(14) + days(k) + offset,
        st.integers(0, 89),
        st.sampled_from(
            [-1.0, 0.0, 1.0, -1e-6, 1e-6, -5e-7, 5e-7, -4e-7, 4e-7, -2.5e-6, 1.5e-6]
        ) | st.floats(-2.0, 2.0),
    )

    @given(
        st.floats(0.0, days(90)) | _near_midnight,
        st.sampled_from([DiurnalProfile(), DiurnalProfile(peak_hour=3.5, weekend_scale=0.25)]),
    )
    def test_factor_is_the_two_calendar_questions(self, t, profile):
        """``factor`` reads hour and weekday off one ``datetime``; the
        value is the one the two ``Calendar`` calls give, to the bit
        (a last-digit difference here changes recorded traces)."""
        calendar = profile.calendar
        value = profile._raw_factor(calendar.hour_of_day(t)) / profile._weekday_mean()
        if calendar.is_weekend(t):
            value *= profile.weekend_scale
        assert profile.factor(t) == value

    def test_weekend_starts_at_midnight(self):
        profile = DiurnalProfile(weekend_scale=0.5)
        saturday, monday = hours(14) + days(3), hours(14) + days(5)
        assert profile.factor(saturday) == pytest.approx(profile.factor(saturday - 1) / 2, rel=1e-3)
        assert profile.factor(monday) == pytest.approx(profile.factor(monday - 1) * 2, rel=1e-3)


class TestThinnedPoisson:
    def test_no_profile_matches_homogeneous_rate(self):
        rng = random.Random(5)
        times = list(thinned_poisson_times(rng, 1.0, 0.0, 5000.0))
        assert 4500 <= len(times) <= 5500

    def test_profile_preserves_weekday_mean_rate(self):
        rng = random.Random(5)
        profile = DiurnalProfile()
        times = list(thinned_poisson_times(rng, 0.5, 0.0, days(4), profile))
        expected = 0.5 * days(4)
        assert 0.85 * expected <= len(times) <= 1.15 * expected

    def test_sorted_within_range(self):
        rng = random.Random(6)
        times = list(thinned_poisson_times(rng, 0.2, 100.0, 400.0, DiurnalProfile()))
        assert times == sorted(times)
        assert all(100.0 <= t < 400.0 for t in times)

    def test_zero_rate(self):
        rng = random.Random(6)
        assert list(thinned_poisson_times(rng, 0.0, 0, 100)) == []

    def test_daytime_denser_than_night(self):
        rng = random.Random(7)
        profile = DiurnalProfile()
        times = list(thinned_poisson_times(rng, 2.0, 0.0, days(1), profile))
        # Calendar starts 10:00; first 8 hours are daytime, the window
        # 14h-22h after start covers midnight-ish hours.
        day = sum(1 for t in times if t < hours(8))
        night = sum(1 for t in times if hours(14) <= t < hours(22))
        assert day > night


class TestClipWindows:
    def test_basic_clip(self):
        assert clip_windows([(0, 10), (20, 30)], 5, 25) == [(5, 10), (20, 25)]

    def test_disjoint_from_range(self):
        assert clip_windows([(0, 5)], 10, 20) == []

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            clip_windows([(5, 5)], 0, 10)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1000),
                st.floats(min_value=0.01, max_value=100),
            ),
            max_size=10,
        ),
        st.floats(min_value=0, max_value=500),
        st.floats(min_value=0.1, max_value=600),
    )
    def test_property_clipped_inside_range(self, raw, start, width):
        windows = sorted((s, s + w) for s, w in raw)
        end = start + width
        clipped = clip_windows(windows, start, end)
        for lo, hi in clipped:
            assert start <= lo < hi <= end
