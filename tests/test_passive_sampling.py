"""Tests for fixed-period sampling."""

import pytest
from hypothesis import given, strategies as st

from repro.net.packet import udp_datagram
from repro.passive.sampling import FixedPeriodSampler
from repro.simkernel.clock import hours, minutes
from repro.trace.columnar import RecordColumns
from tests.passive_reference import ReferenceFixedPeriodSampler


def at(t):
    """A record at time *t* (the sampler reads nothing else)."""
    return udp_datagram(t, 1, 2, 53, 500)


class TestFixedPeriodSampler:
    def test_keeps_leading_window(self):
        sampler = ReferenceFixedPeriodSampler(sample_minutes=10)
        assert sampler.keep_record(at(0.0))
        assert sampler.keep_record(at(minutes(9.99)))
        assert not sampler.keep_record(at(minutes(10)))
        assert not sampler.keep_record(at(minutes(59)))
        assert sampler.keep_record(at(hours(1)))

    def test_fraction(self):
        assert ReferenceFixedPeriodSampler(30).fraction == 0.5
        assert ReferenceFixedPeriodSampler(2).fraction == pytest.approx(2 / 60)

    def test_invalid_windows(self):
        with pytest.raises(ValueError):
            FixedPeriodSampler(0)
        with pytest.raises(ValueError):
            FixedPeriodSampler(61)

    def test_windows_in(self):
        sampler = ReferenceFixedPeriodSampler(sample_minutes=30)
        windows = sampler.windows_in(0.0, hours(2))
        assert windows == [
            (0.0, minutes(30)),
            (hours(1), hours(1) + minutes(30)),
        ]

    def test_windows_in_partial(self):
        sampler = ReferenceFixedPeriodSampler(sample_minutes=30)
        windows = sampler.windows_in(minutes(15), minutes(75))
        assert windows == [(minutes(15), minutes(30)), (minutes(60), minutes(75))]

    def test_effective_observation(self):
        sampler = ReferenceFixedPeriodSampler(sample_minutes=30)
        observed = sum(hi - lo for lo, hi in sampler.windows_in(0.0, hours(10)))
        assert observed == pytest.approx(hours(5))

    def test_hourly_samplers_family(self):
        family = {
            m: ReferenceFixedPeriodSampler(sample_minutes=m) for m in (2, 5, 10, 30)
        }
        assert set(family) == {2, 5, 10, 30}
        assert family[30].fraction == 0.5

    @given(
        st.floats(min_value=0.5, max_value=59.5),
        st.floats(min_value=0, max_value=hours(100)),
    )
    def test_property_keep_matches_windows(self, sample_minutes, t):
        sampler = ReferenceFixedPeriodSampler(sample_minutes=sample_minutes)
        inside_any = any(
            lo <= t < hi for lo, hi in sampler.windows_in(t - 7200, t + 7200)
        )
        assert sampler.keep_record(at(t)) == inside_any

    @given(
        st.floats(min_value=0.5, max_value=60.0),
        st.lists(
            st.floats(min_value=-hours(5), max_value=hours(100))
            | st.integers(-300, 6000).map(float).map(minutes),
            max_size=50,
        ),
    )
    def test_property_keep_mask_matches_keep(self, sample_minutes, times):
        """The batch mask is the per-record float expression, bit for
        bit: window edges, times before 0 and an empty batch."""
        sampler = ReferenceFixedPeriodSampler(sample_minutes=sample_minutes)
        records = [at(t) for t in times]
        mask = sampler.keep_mask(RecordColumns.from_records(records))
        assert mask.dtype == bool
        assert mask.tolist() == [sampler.keep_record(r) for r in records]

    @given(st.floats(min_value=1, max_value=59))
    def test_property_long_run_fraction(self, sample_minutes):
        sampler = ReferenceFixedPeriodSampler(sample_minutes=sample_minutes)
        span = hours(200)
        observed = sum(hi - lo for lo, hi in sampler.windows_in(0.0, span))
        assert observed / span == pytest.approx(sampler.fraction, rel=0.02)
