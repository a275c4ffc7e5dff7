"""Tests for fixed-period sampling."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.passive.sampling import (
    FixedPeriodSampler,
    effective_observation_seconds,
    hourly_samplers,
)
from repro.simkernel.clock import hours, minutes


class TestFixedPeriodSampler:
    def test_keeps_leading_window(self):
        sampler = FixedPeriodSampler(sample_minutes=10)
        assert sampler.keep(0.0)
        assert sampler.keep(minutes(9.99))
        assert not sampler.keep(minutes(10))
        assert not sampler.keep(minutes(59))
        assert sampler.keep(hours(1))

    def test_fraction(self):
        assert FixedPeriodSampler(30).fraction == 0.5
        assert FixedPeriodSampler(2).fraction == pytest.approx(2 / 60)

    def test_anchor(self):
        sampler = FixedPeriodSampler(sample_minutes=10, anchor=hours(1))
        assert not sampler.keep(minutes(30))
        assert sampler.keep(hours(1) + minutes(5))

    def test_invalid_windows(self):
        with pytest.raises(ValueError):
            FixedPeriodSampler(0)
        with pytest.raises(ValueError):
            FixedPeriodSampler(61)

    def test_windows_in(self):
        sampler = FixedPeriodSampler(sample_minutes=30)
        windows = sampler.windows_in(0.0, hours(2))
        assert windows == [
            (0.0, minutes(30)),
            (hours(1), hours(1) + minutes(30)),
        ]

    def test_windows_in_partial(self):
        sampler = FixedPeriodSampler(sample_minutes=30)
        windows = sampler.windows_in(minutes(15), minutes(75))
        assert windows == [(minutes(15), minutes(30)), (minutes(60), minutes(75))]

    def test_effective_observation(self):
        sampler = FixedPeriodSampler(sample_minutes=30)
        observed = effective_observation_seconds(sampler, 0.0, hours(10))
        assert observed == pytest.approx(hours(5))

    def test_hourly_samplers_family(self):
        family = hourly_samplers(2, 5, 10, 30)
        assert set(family) == {2, 5, 10, 30}
        assert family[30].fraction == 0.5

    @given(
        st.floats(min_value=0.5, max_value=59.5),
        st.floats(min_value=0, max_value=hours(100)),
    )
    def test_property_keep_matches_windows(self, sample_minutes, t):
        sampler = FixedPeriodSampler(sample_minutes=sample_minutes)
        inside_any = any(
            lo <= t < hi for lo, hi in sampler.windows_in(t - 7200, t + 7200)
        )
        assert sampler.keep(t) == inside_any

    @given(
        st.floats(min_value=0.5, max_value=60.0),
        st.floats(min_value=1.0, max_value=120.0),
        st.floats(min_value=-hours(2), max_value=hours(2)),
        st.lists(
            st.floats(min_value=-hours(5), max_value=hours(100))
            | st.integers(-300, 6000).map(float).map(minutes),
            max_size=50,
        ),
    )
    def test_property_keep_mask_matches_keep(
        self, sample_minutes, period_minutes, anchor, times
    ):
        """The column mask is the scalar float expression, bit for bit:
        window edges, times before the anchor and an empty column."""
        sampler = FixedPeriodSampler(
            sample_minutes=min(sample_minutes, period_minutes),
            period_minutes=period_minutes, anchor=anchor,
        )
        mask = sampler.keep_mask(np.array(times, dtype=np.float64))
        assert mask.dtype == bool
        assert mask.tolist() == [sampler.keep(t) for t in times]

    @given(st.floats(min_value=1, max_value=59))
    def test_property_long_run_fraction(self, sample_minutes):
        sampler = FixedPeriodSampler(sample_minutes=sample_minutes)
        span = hours(200)
        observed = effective_observation_seconds(sampler, 0.0, span)
        assert observed / span == pytest.approx(sampler.fraction, rel=0.02)
