"""Tests for repro.campus.service."""

import pytest

from repro.campus.service import ActivityPattern, Service
from tests.campus_reference import expected_flows


class TestActivityPattern:
    def test_silent(self):
        assert ActivityPattern().is_silent
        assert not ActivityPattern(base_rate=0.1).is_silent

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            ActivityPattern(base_rate=-1.0)

    def test_bad_pool_rejected(self):
        with pytest.raises(ValueError):
            ActivityPattern(client_pool=0)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            ActivityPattern(base_rate=1.0, windows=((5.0, 5.0),))

    def test_active_windows_default_full_range(self):
        pattern = ActivityPattern(base_rate=1.0)
        assert pattern.active_windows(10.0, 20.0) == [(10.0, 20.0)]
        assert pattern.active_windows(20.0, 10.0) == []

    def test_active_windows_clipped(self):
        pattern = ActivityPattern(base_rate=1.0, windows=((0.0, 100.0), (200.0, 300.0)))
        assert pattern.active_windows(50.0, 250.0) == [(50.0, 100.0), (200.0, 250.0)]

    def test_expected_flows(self):
        assert expected_flows(ActivityPattern(base_rate=0.5), 10.0) == 5.0


class TestService:
    def test_alive_default_forever(self):
        service = Service(host_id=1, port=80)
        assert service.alive_at(0.0)
        assert service.alive_at(1e9)

    def test_birth(self):
        service = Service(host_id=1, port=80, birth=100.0)
        assert not service.alive_at(99.9)
        assert service.alive_at(100.0)

    def test_death(self):
        service = Service(host_id=1, port=80, death=100.0)
        assert service.alive_at(99.9)
        assert not service.alive_at(100.0)

    def test_death_before_birth_rejected(self):
        with pytest.raises(ValueError):
            Service(host_id=1, port=80, birth=100.0, death=50.0)

    def test_port_validated(self):
        with pytest.raises(ValueError):
            Service(host_id=1, port=0)
        with pytest.raises(ValueError):
            Service(host_id=1, port=70000)

    def test_lifetime_windows(self):
        service = Service(host_id=1, port=80, birth=10.0, death=50.0)
        assert service.lifetime_windows(0.0, 100.0) == [(10.0, 50.0)]
        assert service.lifetime_windows(60.0, 100.0) == []
        assert service.lifetime_windows(0.0, 30.0) == [(10.0, 30.0)]

    def test_lifetime_windows_immortal(self):
        service = Service(host_id=1, port=80)
        assert service.lifetime_windows(5.0, 25.0) == [(5.0, 25.0)]
