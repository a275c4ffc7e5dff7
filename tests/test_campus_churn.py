"""Tests for transient sessions and the address ledger."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.campus.churn import (
    AddressLedger,
    AssignmentPolicy,
    BlockPool,
    SESSION_STYLES,
    SessionStyle,
    build_ledger,
    generate_sessions,
)
from repro.net.addr import AddressBlock, AddressClass
from repro.simkernel.clock import days, hours
from tests.simkernel_reference import clip_windows


class TestSessionStyle:
    def test_known_styles_exist(self):
        assert set(SESSION_STYLES) == {"ppp", "dhcp", "vpn", "wireless"}

    def test_invalid_means_rejected(self):
        with pytest.raises(ValueError):
            SessionStyle(mean_session_hours=0, mean_gap_hours=1)

    def test_expected_concurrency(self):
        style = SessionStyle(mean_session_hours=1, mean_gap_hours=3)
        online = style.mean_session_hours / (
            style.mean_session_hours + style.mean_gap_hours
        )
        assert online == pytest.approx(0.25)


class TestGenerateSessions:
    def test_sessions_sorted_disjoint_within_duration(self):
        rng = random.Random(1)
        for style in SESSION_STYLES.values():
            sessions = generate_sessions(rng, style, days(18))
            previous_end = -1.0
            for start, end in sessions:
                assert 0.0 <= start < end <= days(18)
                assert start >= previous_end
                previous_end = end

    def test_ppp_sessions_short(self):
        rng = random.Random(2)
        lengths = []
        for _ in range(200):
            for start, end in generate_sessions(rng, SESSION_STYLES["ppp"], days(18)):
                lengths.append(end - start)
        mean_hours = sum(lengths) / len(lengths) / 3600.0
        assert mean_hours < 6.0

    def test_long_run_occupancy_near_expectation(self):
        rng = random.Random(3)
        style = SESSION_STYLES["dhcp"]
        total_up = 0.0
        trials = 300
        for _ in range(trials):
            for start, end in generate_sessions(rng, style, days(18)):
                total_up += end - start
        occupancy = total_up / (trials * days(18))
        expected = style.mean_session_hours / (
            style.mean_session_hours + style.mean_gap_hours
        )
        assert abs(occupancy - expected) < 0.1

    def test_day_bias_avoids_deep_night_starts(self):
        rng = random.Random(4)
        style = SessionStyle(
            mean_session_hours=1.0, mean_gap_hours=4.0, day_start_bias=True
        )
        night_starts = 0
        total = 0
        for _ in range(50):
            for start, _ in generate_sessions(rng, style, days(10)):
                hour = (10.0 + start / 3600.0) % 24.0
                total += 1
                if hour < 7.0:
                    night_starts += 1
        assert night_starts / total < 0.05


class TestAddressLedger:
    def test_occupant_and_inverse(self):
        ledger = AddressLedger()
        ledger.record(100, 1, 0.0, 10.0)
        ledger.record(100, 2, 10.0, 20.0)
        ledger.finalize()
        assert ledger.occupant(100, 5.0) == 1
        assert ledger.occupant(100, 10.0) == 2
        assert ledger.occupant(100, 25.0) is None
        assert ledger.address_of(1, 5.0) == 100
        assert ledger.address_of(1, 15.0) is None

    def test_unknown_address(self):
        ledger = AddressLedger()
        ledger.finalize()
        assert ledger.occupant(1, 0.0) is None
        assert ledger.address_of(1, 0.0) is None

    def test_overlap_detected_at_finalize(self):
        ledger = AddressLedger()
        ledger.record(100, 1, 0.0, 10.0)
        ledger.record(100, 2, 5.0, 15.0)
        with pytest.raises(ValueError):
            ledger.finalize()

    def test_empty_tenure_rejected(self):
        ledger = AddressLedger()
        with pytest.raises(ValueError):
            ledger.record(100, 1, 5.0, 5.0)

    def test_finalized_is_readonly(self):
        ledger = AddressLedger()
        ledger.finalize()
        with pytest.raises(RuntimeError):
            ledger.record(1, 1, 0, 1)

    def test_tenures_sorted(self):
        ledger = AddressLedger()
        ledger.record(100, 1, 10.0, 20.0)
        ledger.record(100, 1, 0.0, 5.0)
        ledger.finalize()
        tenures = ledger.tenures_of_address(100)
        assert [t.start for t in tenures] == [0.0, 10.0]
        assert len(ledger.tenures_of_host(1)) == 2


class TestBlockPool:
    def _block(self, prefix="24"):
        return AddressBlock("pool", "10.0.0.0/28", AddressClass.PPP)

    def test_rotating_prefers_fresh(self):
        pool = BlockPool(self._block(), AssignmentPolicy.ROTATING)
        a = pool.acquire(1, 0.0)
        b = pool.acquire(2, 0.0)
        assert a != b

    def test_rotating_reuses_lru(self):
        pool = BlockPool(self._block(), AssignmentPolicy.ROTATING)
        taken = [pool.acquire(i, 0.0) for i in range(16)]
        pool.release(taken[3], 5.0)
        pool.release(taken[7], 2.0)
        # Least-recently-released first.
        assert pool.acquire(99, 10.0) == taken[7]
        assert pool.acquire(98, 10.0) == taken[3]

    def test_rotating_exhaustion(self):
        pool = BlockPool(self._block(), AssignmentPolicy.ROTATING)
        for i in range(16):
            pool.acquire(i, 0.0)
        with pytest.raises(RuntimeError):
            pool.acquire(17, 0.0)

    def test_sticky_same_host_same_address(self):
        pool = BlockPool(self._block(), AssignmentPolicy.STICKY)
        first = pool.acquire(1, 0.0)
        pool.acquire(2, 0.0)
        assert pool.acquire(1, 100.0) == first


class TestBuildLedger:
    def test_static_spans_duration(self):
        ledger = build_ledger([(100, 1)], [], duration=50.0)
        assert ledger.occupant(100, 0.0) == 1
        assert ledger.occupant(100, 49.9) == 1

    def test_transient_sessions_assigned(self):
        block = AddressBlock("ppp", "10.0.0.0/28", AddressClass.PPP)
        sessions = [(0.0, 10.0), (20.0, 30.0)]
        ledger = build_ledger(
            [], [(1, block, AssignmentPolicy.ROTATING, sessions)], duration=50.0
        )
        first = ledger.address_of(1, 5.0)
        assert first is not None and first in block
        assert ledger.address_of(1, 15.0) is None
        assert ledger.address_of(1, 25.0) is not None

    def test_address_reuse_across_hosts(self):
        block = AddressBlock("tiny", "10.0.0.0/31", AddressClass.PPP)
        ledger = build_ledger(
            [],
            [
                (1, block, AssignmentPolicy.ROTATING, [(0.0, 10.0)]),
                (2, block, AssignmentPolicy.ROTATING, [(0.0, 10.0)]),
                (3, block, AssignmentPolicy.ROTATING, [(15.0, 25.0)]),
            ],
            duration=50.0,
        )
        # Host 3 reuses one of the two released addresses.
        third = ledger.address_of(3, 20.0)
        assert third in {ledger.tenures_of_host(1)[0].address,
                         ledger.tenures_of_host(2)[0].address}

    def test_conflicting_policies_rejected(self):
        block = AddressBlock("x", "10.0.0.0/28", AddressClass.PPP)
        with pytest.raises(ValueError):
            build_ledger(
                [],
                [
                    (1, block, AssignmentPolicy.ROTATING, [(0, 1)]),
                    (2, block, AssignmentPolicy.STICKY, [(0, 1)]),
                ],
                duration=10.0,
            )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=2, max_value=25))
    def test_property_ledger_tenures_never_overlap(self, seed, host_count):
        """Random session workloads never produce overlapping tenures
        and occupant() is consistent with address_of()."""
        rng = random.Random(seed)
        block = AddressBlock("b", "10.0.0.0/26", AddressClass.VPN)
        style = SessionStyle(mean_session_hours=4, mean_gap_hours=8)
        workload = []
        for host_id in range(host_count):
            sessions = generate_sessions(rng, style, days(3))
            if sessions:
                workload.append((host_id, block, AssignmentPolicy.ROTATING, sessions))
        ledger = build_ledger([], workload, duration=days(3))
        for host_id, _, _, sessions in workload:
            for start, end in sessions:
                mid = (start + min(end, days(3))) / 2.0
                address = ledger.address_of(host_id, mid)
                if address is not None:
                    assert ledger.occupant(address, mid) == host_id


class TestSessionsOverlapping:
    def test_clips(self):
        assert clip_windows([(0, 10), (20, 30)], 5, 25) == [(5, 10), (20, 25)]

    def test_none(self):
        assert clip_windows([(0, 5)], 6, 10) == []
