"""Tests for repro.simkernel.clock."""

import datetime

import pytest

from repro.simkernel.clock import (
    Calendar,
    days,
    hours,
    minutes,
    seconds,
)
from tests.events_reference import SimClock
from tests.simkernel_reference import clock_label, next_time_of_day


class TestDurationHelpers:
    def test_seconds_is_identity(self):
        assert seconds(42) == 42.0

    def test_minutes(self):
        assert minutes(2) == 120.0

    def test_hours(self):
        assert hours(1.5) == 5400.0

    def test_days(self):
        assert days(2) == 172800.0

    def test_composition(self):
        assert days(1) == hours(24) == minutes(1440)


class TestCalendar:
    def test_default_start_is_paper_main_dataset(self):
        calendar = Calendar()
        assert calendar.start == datetime.datetime(2006, 9, 19, 10, 0, 0)

    def test_roundtrip(self):
        calendar = Calendar()
        when = calendar.to_datetime(hours(30))
        assert calendar.to_sim(when) == hours(30)

    def test_hour_of_day(self):
        calendar = Calendar(datetime.datetime(2006, 9, 19, 10, 0, 0))
        assert calendar.hour_of_day(0.0) == pytest.approx(10.0)
        assert calendar.hour_of_day(hours(3.5)) == pytest.approx(13.5)

    def test_hour_of_day_wraps(self):
        calendar = Calendar()
        assert calendar.hour_of_day(hours(20)) == pytest.approx(6.0)

    def test_day_of_week(self):
        # 2006-09-19 was a Tuesday (weekday 1).
        calendar = Calendar()
        assert calendar.day_of_week(0.0) == 1
        assert calendar.day_of_week(days(4)) == 5  # Saturday

    def test_is_weekend(self):
        calendar = Calendar()
        assert not calendar.is_weekend(0.0)
        assert calendar.is_weekend(days(4))
        assert calendar.is_weekend(days(5))
        assert not calendar.is_weekend(days(6))

    def test_month_day_label(self):
        calendar = Calendar()
        assert calendar.month_day_label(0.0) == "09-19"
        assert calendar.month_day_label(days(12)) == "10-01"

    def test_clock_label(self):
        calendar = Calendar()
        assert clock_label(calendar, minutes(90)) == "11:30"

    def test_next_time_of_day_same_day(self):
        calendar = Calendar()  # starts 10:00
        t = next_time_of_day(calendar, 0.0, 11)
        assert t == hours(1)

    def test_next_time_of_day_rolls_over(self):
        calendar = Calendar()  # starts 10:00
        t = next_time_of_day(calendar, hours(2), 11)  # it's 12:00 now
        assert t == hours(25)

    def test_next_time_of_day_exact_now(self):
        calendar = Calendar()
        t = next_time_of_day(calendar, hours(1), 11)
        assert t == hours(1)


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance_to(self):
        clock = SimClock()
        clock.advance_to(5.0)
        assert clock.now == 5.0

    def test_advance_by(self):
        clock = SimClock(10.0)
        clock.advance_by(2.5)
        assert clock.now == 12.5

    def test_refuses_backwards(self):
        clock = SimClock(10.0)
        with pytest.raises(ValueError):
            clock.advance_to(9.0)

    def test_refuses_negative_delta(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance_by(-1.0)

    def test_advance_to_same_time_ok(self):
        clock = SimClock(3.0)
        clock.advance_to(3.0)
        assert clock.now == 3.0
