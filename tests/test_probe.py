"""Tests for the online probe scheduler (:mod:`repro.probe`).

The load-bearing property is that a policy is a pure function of the
task index: the evidence after advancing to any instant must be
independent of the call pattern that got there, and a scheduler
restored from ``state_dict`` must continue identically.  The periodic
policy additionally pins the paper's sweep-timing edge cases: the
90-120 minute sweep spanning midnight, and budget-stretched sweeps
that overrun the 12-hour period and must run back to back.
"""

from __future__ import annotations

import pytest

from repro.active.schedule import scan_start_times
from repro.probe import (
    POLICY_NAMES,
    SWEEP_SECONDS,
    HeartbeatPolicy,
    PeriodicSweepPolicy,
    ProbeScheduler,
    build_policy,
    build_prober,
    resolve_probe_ports,
)
from repro.simkernel.clock import Calendar, days, hours

TARGETS = list(range(100, 140))
PORTS = [22, 80]


def periodic(rate=10.0, end=days(2), targets=TARGETS, ports=PORTS):
    return PeriodicSweepPolicy(targets, ports, rate, Calendar(), end)


def heartbeat(rate=1.0, end=days(2), seed=7, targets=TARGETS, ports=PORTS):
    return HeartbeatPolicy(targets, ports, rate, seed, end)


class TestPeriodicSweepPolicy:
    def test_starts_follow_scan_schedule(self):
        policy = periodic()
        assert policy.starts == scan_start_times(Calendar(), 0.0, days(2))
        assert policy.sweep_count() == 4

    def test_tasks_walk_targets_in_order_within_sweep(self):
        policy = periodic()
        first = policy.task(0)
        assert first == (policy.starts[0], TARGETS[0], PORTS[0])
        # Every port of an address is probed at that address's instant.
        when0, addr0, _ = policy.task(0)
        when1, addr1, port1 = policy.task(1)
        assert (when1, addr1, port1) == (when0, addr0, PORTS[1])
        # Probe times within a sweep stay inside its bounds.
        start, end = policy.sweep_bounds(0)
        for k in range(policy.sweep_size):
            when, _, _ = policy.task(k)
            assert start <= when < end

    def test_schedule_exhausts_after_last_sweep(self):
        policy = periodic()
        assert policy.task(policy.total_tasks) is None
        assert policy.task(policy.total_tasks - 1) is not None

    def test_rate_zero_schedules_nothing(self):
        policy = periodic(rate=0.0)
        assert policy.task(0) is None
        assert policy.sweep_count() == 0
        assert policy.total_tasks == 0

    def test_nominal_duration_is_the_papers_sweep_length(self):
        # At a generous budget the sweep takes its nominal 105 minutes.
        policy = periodic(rate=10.0)
        assert policy.duration == SWEEP_SECONDS
        assert hours(1.5) <= policy.duration <= hours(2)

    def test_night_sweep_spans_midnight(self):
        # The 23:00 sweep ends at 00:45 the next day; the schedule must
        # neither clip it nor skew the following 11:00 start.
        calendar = Calendar()
        policy = periodic()
        night = policy.starts[1]
        assert calendar.to_datetime(night).hour == 23
        start, end = policy.sweep_bounds(1)
        assert calendar.month_day_label(start) != calendar.month_day_label(end)
        assert calendar.to_datetime(end).hour == 0
        # Next sweep still begins at its scheduled 11:00, 12 h later.
        assert policy.starts[2] == night + hours(12)

    def test_overrunning_sweeps_run_back_to_back(self):
        # 40 addresses x 2 ports at 0.001 probes/s stretches the sweep
        # to ~22.2 h -- past the 12 h period.  Later sweeps must start
        # at the previous sweep's end, never concurrently.
        policy = periodic(rate=0.001, end=days(4))
        assert policy.duration == pytest.approx(80 / 0.001)
        assert policy.duration > hours(12)
        scheduled = scan_start_times(Calendar(), 0.0, days(4))
        assert policy.starts[0] == scheduled[0]
        for previous, start in zip(policy.starts, policy.starts[1:]):
            assert start == pytest.approx(previous + policy.duration)
        # Overruns ate into the schedule: fewer sweeps fit than were
        # scheduled, and none starts at or past the stream end.
        assert 0 < policy.sweep_count() < len(scheduled)
        assert all(start < days(4) for start in policy.starts)
        # Probe times never overlap the next sweep.
        for k in range(policy.total_tasks - 1):
            assert policy.task(k)[0] <= policy.task(k + 1)[0]

    def test_on_time_sweeps_do_not_shift(self):
        # The nominal 105-minute sweep fits the 12 h period, so the
        # back-to-back rule must leave every scheduled start untouched.
        policy = periodic(rate=10.0, end=days(4))
        assert policy.starts == scan_start_times(Calendar(), 0.0, days(4))


class TestHeartbeatPolicy:
    def test_uniform_spacing(self):
        policy = heartbeat(rate=0.5)
        times = [policy.task(k)[0] for k in range(10)]
        assert times[0] == pytest.approx(2.0)
        for a, b in zip(times, times[1:]):
            assert b - a == pytest.approx(1 / 0.5)

    def test_walks_a_seeded_permutation(self):
        policy = heartbeat(seed=7)
        pairs = [policy.task(k)[1:] for k in range(policy.sweep_size)]
        # One full pass covers every (address, port) exactly once...
        assert sorted(pairs) == sorted(
            (a, p) for a in TARGETS for p in PORTS
        )
        # ...in a shuffled order that is stable for the seed.
        assert pairs != sorted(pairs)
        assert pairs == [
            heartbeat(seed=7).task(k)[1:] for k in range(policy.sweep_size)
        ]
        assert pairs != [
            heartbeat(seed=8).task(k)[1:] for k in range(policy.sweep_size)
        ]

    def test_wraps_around_after_full_pass(self):
        policy = heartbeat()
        n = policy.sweep_size
        assert policy.task(n)[1:] == policy.task(0)[1:]
        assert policy.sweep_of(n - 1) == 0
        assert policy.sweep_of(n) == 1

    def test_exhausts_at_stream_end(self):
        policy = heartbeat(rate=1.0, end=100.0)
        assert policy.task(99) == (100.0, *policy.pairs[99 % policy.sweep_size])
        assert policy.task(100) is None

    def test_rate_zero_schedules_nothing(self):
        policy = heartbeat(rate=0.0)
        assert policy.task(0) is None
        assert policy.sweep_count() == 0

    def test_sweep_count_and_bounds(self):
        policy = heartbeat(rate=1.0, end=days(2))
        expected = int(days(2)) // policy.sweep_size
        assert policy.sweep_count() == expected
        start, end = policy.sweep_bounds(0)
        assert start == pytest.approx(1.0)
        assert end == pytest.approx(policy.sweep_size / 1.0)

    @pytest.mark.parametrize("rate", [0.7, 2.3])
    def test_one_task_count_for_cutoff_and_sweeps(self, rate):
        # 86400 * rate rounds just below a whole number at these rates,
        # while the last probe, total / rate, lands on 86400.0 exactly:
        # int(end * rate) plans one probe -- here one whole sweep --
        # fewer than task() goes on to schedule.
        end = 86400.0
        total = round(end * rate)
        assert int(end * rate) == total - 1
        policy = heartbeat(rate=rate, end=end, targets=range(288),
                           ports=[1, 2, 3, 4, 5])
        assert total % policy.sweep_size == 0
        assert policy.task(total - 1)[0] == end
        assert policy.task(total) is None
        assert policy.total_tasks == policy.count_until(end) == total
        assert policy.sweep_count() == total // policy.sweep_size


class TestBuildPolicy:
    def test_builds_both_names(self):
        for name in POLICY_NAMES:
            policy = build_policy(
                name, TARGETS, PORTS, 1.0, 0, Calendar(), days(1)
            )
            assert policy.name == name

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown probe policy"):
            build_policy("nmap", TARGETS, PORTS, 1.0, 0, Calendar(), days(1))


@pytest.fixture(scope="module")
def prober_parts(small_dtcp18):
    dataset = small_dtcp18
    ports, proto = resolve_probe_ports(None, dataset)
    return dataset, dataset.probe_targets(), ports, proto


class TestProbeScheduler:
    def fresh(self, prober_parts, policy_name="heartbeat", rate=0.5,
              end=days(1)):
        dataset, targets, ports, proto = prober_parts
        policy = build_policy(
            policy_name, targets, ports, rate, dataset.seed,
            dataset.calendar, end,
        )
        return ProbeScheduler(dataset.population, policy, proto=proto)

    def test_advance_is_call_pattern_independent(self, prober_parts):
        coarse = self.fresh(prober_parts)
        fine = self.fresh(prober_parts)
        coarse.advance(days(1))
        for step in range(1, 97):
            fine.advance(step * days(1) / 96)
        assert coarse.state_dict() == fine.state_dict()

    def test_advance_counts_dispatches(self, prober_parts):
        scheduler = self.fresh(prober_parts, rate=0.5)
        assert scheduler.advance(hours(2)) == int(hours(2) * 0.5)
        assert scheduler.advance(hours(2)) == 0  # idempotent at an instant
        assert scheduler.issued == int(hours(2) * 0.5)

    def test_opens_match_ground_truth(self, prober_parts):
        from repro.campus.host import ProbeOutcome

        dataset, _, _, _ = prober_parts
        scheduler = self.fresh(prober_parts, rate=2.0)
        scheduler.advance(hours(12))
        assert scheduler.first_open  # something answered
        for (address, port), when in scheduler.first_open.items():
            host = dataset.population.occupant_host(address, when)
            assert host is not None
            assert host.tcp_probe_response(
                port, when, internal=True
            ) is ProbeOutcome.SYNACK

    def test_state_roundtrip_mid_sweep(self, prober_parts):
        reference = self.fresh(prober_parts)
        reference.advance(hours(7))
        reference.advance(days(1))

        interrupted = self.fresh(prober_parts)
        interrupted.advance(hours(7))
        restored = self.fresh(prober_parts)
        restored.restore_state(interrupted.state_dict())
        restored.advance(days(1))
        assert restored.state_dict() == reference.state_dict()
        assert restored.view() == reference.view()

    def test_addresses_by_is_monotone_and_matches_events(self, prober_parts):
        scheduler = self.fresh(prober_parts, rate=2.0)
        scheduler.advance(days(1))
        seen_at_6h = set(scheduler.addresses_by(hours(6)))
        seen_at_24h = scheduler.addresses_by(days(1))
        assert seen_at_6h <= seen_at_24h
        assert seen_at_24h == scheduler.open_addresses()

    def test_view_reports_sweep_progress(self, prober_parts):
        scheduler = self.fresh(prober_parts, rate=0.5)
        half = scheduler.policy.sweep_size / 0.5 / 2
        scheduler.advance(half)
        view = scheduler.view()
        assert view.current_sweep == 0
        assert view.sweep_progress == pytest.approx(0.5, abs=0.01)
        health = view.health()
        assert health["policy"] == "heartbeat"
        assert health["issued"] == scheduler.issued
        assert health["sweeps_completed"] == 0

    def test_view_liveness_evidence(self, prober_parts):
        scheduler = self.fresh(prober_parts, rate=2.0)
        scheduler.advance(days(1))
        view = scheduler.view()
        address, opened = next(iter(view.last_open.items()))
        assert view.active_last_seen(address, days(1)) == opened
        assert view.active_last_seen(address, opened - 1.0) is None
        # A probed-but-never-open address is mid-sweep negative evidence.
        silent = next(
            a for a in view.last_probed if a not in view.last_open
        )
        assert view.probed_since(silent, 0.0, days(1))
        assert not view.probed_since(address, opened, days(1))


class TestResolvePorts:
    def test_explicit_ports_win(self, small_dtcp18):
        assert resolve_probe_ports([443, 80], small_dtcp18) == (
            [80, 443], "tcp"
        )

    def test_dataset_tcp_default(self, small_dtcp18):
        ports, proto = resolve_probe_ports(None, small_dtcp18)
        assert proto == "tcp"
        assert ports == sorted(small_dtcp18.tcp_ports)

    def test_dataset_udp_default(self, small_dudp):
        ports, proto = resolve_probe_ports(None, small_dudp)
        assert proto == "udp"
        assert ports == sorted(small_dudp.udp_ports)

    def test_all_ports_dataset_requires_explicit_list(self, allports_dataset):
        with pytest.raises(ValueError, match="explicit --probe-ports"):
            resolve_probe_ports(None, allports_dataset)
        ports, proto = resolve_probe_ports([80], allports_dataset)
        assert (ports, proto) == ([80], "tcp")


class TestBuildProber:
    def test_none_policy_means_no_prober(self, small_dtcp18):
        assert build_prober(small_dtcp18, None, 1.0, None, 7, days(1)) is None

    def test_builds_scheduler_for_dataset(self, small_dtcp18):
        prober = build_prober(
            small_dtcp18, "periodic", 5.0, None, 7, days(2)
        )
        assert prober is not None
        assert prober.proto == "tcp"
        assert prober.policy.name == "periodic"
        assert prober.policy.sweep_size == (
            len(small_dtcp18.probe_targets())
            * len(small_dtcp18.tcp_ports)
        )
