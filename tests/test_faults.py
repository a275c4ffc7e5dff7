"""Tests for the seeded fault-injection layer.

The contract under test is the one DESIGN.md states: a fault plan is a
pure function of its seed (same plan, same faults, in every process and
along every replay path), and the null plan is indistinguishable --
byte for byte -- from running without faults at all.
"""

from __future__ import annotations

import pickle
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.campus.host import ProbeOutcome
from repro.datasets import build_dataset
from repro.faults import CaptureFilter, FaultPlan
from repro.faults.capture import _numpy_state, _python_state
from repro.net.packet import PacketRecord
from repro.passive.monitor import PassiveServiceTable, replay_columnar
from repro.passive.taps import MultiLinkMonitor
from repro.simkernel.rng import derive_seed
from repro.trace.cache import ENV_VAR
from repro.trace.columnar import RecordColumns
from tests.passive_reference import (
    ReferenceCaptureFilter,
    ReferenceMultiLinkMonitor,
    capture_filter,
    replay,
)

DATASET = "DTCPall"
SEED = 23


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(DATASET, seed=SEED, scale=1.0)


@pytest.fixture(scope="module")
def generated_records(dataset):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(ENV_VAR, "off")
        return list(dataset.packet_stream())


def lossy_plan(**overrides) -> FaultPlan:
    defaults = dict(seed=99, capture_loss_rate=0.1)
    defaults.update(overrides)
    return FaultPlan(**defaults)


class TestFaultPlan:
    def test_none_is_null(self):
        assert FaultPlan().is_null
        assert not FaultPlan().has_capture_faults
        assert not FaultPlan().has_probe_faults

    def test_null_plan_hands_out_no_fault_models(self):
        plan = FaultPlan()
        assert plan.capture_filter(100.0) is None
        assert plan.probe_faults(0, 0.0, 100.0) is None
        assert plan.outage_windows("link", 100.0) == ()
        assert not plan.maybe_corrupt_trace("/nonexistent", ("k",))

    @pytest.mark.parametrize("field", [
        "capture_loss_rate", "burst_loss_rate", "outage_fraction",
        "probe_loss_rate", "response_loss_rate",
        "prober_downtime_fraction", "cache_corruption_rate",
    ])
    def test_rates_validated(self, field):
        with pytest.raises(ValueError, match=field):
            FaultPlan(**{field: 1.5})
        with pytest.raises(ValueError, match=field):
            FaultPlan(**{field: -0.1})

    def test_other_fields_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(burst_mean_length=0.5)
        with pytest.raises(ValueError):
            FaultPlan(outage_count=0)
        with pytest.raises(ValueError):
            FaultPlan(probe_retries=-1)
        with pytest.raises(ValueError):
            FaultPlan(retry_backoff_seconds=-1.0)

    def test_seeded_derivation_is_stable(self):
        a = FaultPlan(seed=derive_seed(7, "faultplan"), capture_loss_rate=0.2)
        b = FaultPlan(seed=derive_seed(7, "faultplan"), capture_loss_rate=0.2)
        assert a == b
        assert a.seed != 7  # derived, not the master seed itself
        assert FaultPlan(seed=derive_seed(8, "faultplan")).seed != a.seed

    def test_with_seed(self):
        plan = replace(lossy_plan(), seed=5)
        assert plan.seed == 5
        assert plan.capture_loss_rate == 0.1


class TestOutageWindows:
    def test_exact_fraction_and_no_overlap(self):
        plan = FaultPlan(seed=3, outage_fraction=0.2, outage_count=4)
        windows = plan.outage_windows("link-a", 1000.0)
        assert len(windows) == 4
        total = sum(end - start for start, end in windows)
        assert total == pytest.approx(0.2 * 1000.0)
        for (s1, e1), (s2, e2) in zip(windows, windows[1:]):
            assert e1 <= s2  # sorted, disjoint
        assert all(0.0 <= s < e <= 1000.0 for s, e in windows)

    def test_pure_function_of_seed_and_link(self):
        plan = FaultPlan(seed=3, outage_fraction=0.1)
        assert plan.outage_windows("a", 500.0) == plan.outage_windows("a", 500.0)
        assert plan.outage_windows("a", 500.0) != plan.outage_windows("b", 500.0)
        other = replace(plan, seed=4)
        assert plan.outage_windows("a", 500.0) != other.outage_windows("a", 500.0)


def kept_by(filt, records):
    """The records *filt* lets through, decided one by one."""
    return [record for record in records if filt.keep(record)]


def make_records(n, link="l0", start=0.0, step=1.0):
    return [
        PacketRecord(
            time=start + i * step, src=1, dst=2, sport=1234, dport=80,
            proto=6, link=link,
        )
        for i in range(n)
    ]


_RATES = st.just(0.0) | st.floats(0.0, 0.1) | st.floats(0.0, 1.0)


@st.composite
def _capture_plans(draw):
    return FaultPlan(
        seed=draw(st.integers(0, 2**32)),
        capture_loss_rate=draw(_RATES),
        burst_loss_rate=draw(_RATES),
        burst_mean_length=draw(
            st.sampled_from([1.0, 1.5, 4.0, 50.0]) | st.floats(1.0, 400.0)
        ),
        outage_fraction=draw(_RATES),
        outage_count=draw(st.integers(1, 4)),
    )


class TestCaptureFilter:
    def test_iid_loss_rate_roughly_respected(self):
        plan = FaultPlan(seed=1, capture_loss_rate=0.3)
        filt = capture_filter(plan, 10_000.0)
        kept = kept_by(filt, make_records(10_000))
        assert filt.stats.seen == 10_000
        assert filt.stats.dropped / filt.stats.seen == pytest.approx(0.3, abs=0.02)
        assert len(kept) == filt.stats.kept

    def test_decisions_are_deterministic(self):
        records = make_records(2_000)
        plan = FaultPlan(seed=5, capture_loss_rate=0.2, burst_loss_rate=0.01)
        a = kept_by(capture_filter(plan, 2_000.0), records)
        b = kept_by(capture_filter(plan, 2_000.0), records)
        assert a == b
        c = kept_by(capture_filter(replace(plan, seed=6), 2_000.0), records)
        assert a != c

    @settings(deadline=None, max_examples=200)
    @given(plan=_capture_plans(), data=st.data())
    def test_batch_matches_per_record(self, plan, data):
        """``keep_mask`` is ``keep``, batch by batch: the mask, the
        stats and the whole ``state_dict()`` (RNG position, burst
        carry-over) after every batch -- over any plan, 1-3 interleaved
        links, any batch cuts (empty batches, a cut inside a burst) and
        a checkpoint round trip at one of them."""
        duration = 1_000.0
        links = ("commercial1", "commercial2", "internet2")[
            : data.draw(st.integers(1, 3), label="links")
        ]
        moments = st.floats(-50.0, duration + 50.0)
        edges = [
            edge
            for link in links
            for window in plan.outage_windows(link, duration)
            for edge in window
        ]
        if edges:
            moments |= st.sampled_from(edges)
        records = [
            PacketRecord(
                time=time, src=i, dst=2, sport=1234, dport=80, proto=6,
                link=link,
            )
            for i, (time, link) in enumerate(data.draw(
                st.lists(st.tuples(moments, st.sampled_from(links)), max_size=300),
                label="stream",
            ))
        ]
        reference = ReferenceCaptureFilter(plan, duration)
        states = [reference.state_dict()]
        verdicts = []
        for record in records:
            verdicts.append(reference.keep(record))
            states.append(reference.state_dict())

        cuts = data.draw(
            st.lists(st.integers(0, len(records)), max_size=6), label="cuts"
        )
        in_burst = [
            seen for seen, state in enumerate(states)
            if any(link["burst_remaining"] for link in state["links"].values())
        ]
        if in_burst:
            cuts.append(in_burst[0])
        bounds = [0, *sorted(cuts), len(records), len(records)]
        restore_at = data.draw(st.integers(0, len(bounds) - 2), label="restore")
        as_lists = data.draw(st.booleans(), label="lists")

        batched = CaptureFilter(plan, duration)
        for batch, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            if batch == restore_at:
                saved = pickle.loads(pickle.dumps(batched.state_dict()))
                batched = CaptureFilter(plan, duration)
                batched.restore_state(saved)
            cols = RecordColumns.from_records(records[lo:hi])
            if as_lists:
                mask = batched.keep_mask(
                    cols.time.tolist(), cols.link.tolist(), cols.link_names
                )
                assert mask.dtype == bool
                assert mask.tolist() == verdicts[lo:hi]
            else:
                assert batched.filter_columns(cols).to_records() == [
                    record
                    for record, kept in zip(records[lo:hi], verdicts[lo:hi])
                    if kept
                ]
            state = batched.state_dict()
            assert state == states[hi]
            assert list(state["links"]) == list(states[hi]["links"])
            # Checkpoints pickle these: numpy integers (a count, an RNG
            # key word) compare equal but would change the format.
            assert pickle.dumps(state) == pickle.dumps(states[hi])
            assert all(type(value) is int for value in state["stats"].values())
            assert vars(batched.stats) == states[hi]["stats"]

    def test_burst_carries_across_batches(self):
        """A burst cut by a batch boundary finishes in the next batch."""
        plan = FaultPlan(seed=4, burst_loss_rate=0.05, burst_mean_length=50.0)
        batched, single = plan.capture_filter(400.0), capture_filter(plan, 400.0)
        records = make_records(400, link="commercial1")
        carried = 0
        for start in range(0, len(records), 10):
            cols = RecordColumns.from_records(records[start : start + 10])
            kept = batched.filter_columns(cols).to_records()
            assert kept == kept_by(single, records[start : start + 10])
            assert batched.state_dict() == single.state_dict()
            carried += batched.state_dict()["links"]["commercial1"]["burst_remaining"] > 0
        assert carried

    def test_numpy_bridge_is_the_same_mersenne_twister(self):
        """``keep_mask`` draws through ``numpy.random.RandomState`` from
        states seeded and checkpointed in ``random.Random``'s form.
        That is exact only while both compute the same double from the
        same MT19937 state; a numpy that ever stops doing so must fail
        here, not shift reports."""
        rng = random.Random(20070824)
        for _ in range(1000):  # off the just-seeded position
            rng.random()
        twin = random.Random(0)
        bridge = np.random.RandomState(0)
        bridge.set_state(_numpy_state(rng.getstate()))
        drawn = bridge.random_sample(100_000)
        twin.setstate(_python_state(bridge))
        assert drawn.tolist() == [rng.random() for _ in range(100_000)]
        assert twin.getstate() == rng.getstate()
        assert [twin.random() for _ in range(1000)] == [
            rng.random() for _ in range(1000)
        ]

    def test_per_link_state_is_independent(self):
        """A link's drop pattern must not depend on other links' traffic.

        This is what makes decisions identical across replay paths that
        interleave links differently, and why the pass-level filter
        drops exactly what a filter on one link's monitor would.
        """
        plan = FaultPlan(seed=9, capture_loss_rate=0.25, burst_loss_rate=0.02)
        a_only = make_records(500, link="a")
        mixed = []
        for i, record in enumerate(make_records(500, link="a")):
            mixed.append(record)
            mixed.extend(make_records(i % 3, link="b", start=record.time))
        alone = kept_by(capture_filter(plan, 500.0), a_only)
        interleaved = kept_by(capture_filter(plan, 500.0), mixed)
        assert [r for r in interleaved if r.link == "a"] == alone

    def test_burst_loss_drops_runs(self):
        plan = FaultPlan(
            seed=2, burst_loss_rate=0.005, burst_mean_length=20.0
        )
        filt = capture_filter(plan, 50_000.0)
        records = make_records(50_000)
        drops = [not filt.keep(r) for r in records]
        # Measure run lengths of consecutive drops.
        runs, current = [], 0
        for dropped in drops:
            if dropped:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        if current:
            runs.append(current)
        assert runs, "burst loss never fired"
        mean_run = sum(runs) / len(runs)
        assert mean_run == pytest.approx(20.0, rel=0.25)

    def test_outage_window_blacks_out_link(self):
        plan = FaultPlan(seed=4, outage_fraction=0.25)
        filt = capture_filter(plan, 1_000.0)
        (start, end), = plan.outage_windows("l0", filt.duration)
        records = make_records(1_000)
        kept_times = {r.time for r in kept_by(filt, records)}
        for record in records:
            assert (record.time in kept_times) == (
                not start <= record.time < end
            )
        assert filt.stats.dropped_outage == len(records) - len(kept_times)


class TestProbeFaults:
    def plan(self, **overrides) -> FaultPlan:
        defaults = dict(seed=11, probe_loss_rate=0.3, probe_retries=2)
        defaults.update(overrides)
        return FaultPlan(**defaults)

    def test_retransmits_recover_most_answers(self):
        # P(all 3 transmissions lost) = 0.3^3 = 2.7%.
        faults = self.plan().probe_faults(0, 0.0, 100.0)
        outcomes = [
            faults.transmit(0, ProbeOutcome.SYNACK)[0] for _ in range(5_000)
        ]
        lost = outcomes.count(ProbeOutcome.NOTHING)
        assert lost / 5_000 == pytest.approx(0.027, abs=0.01)

    def test_recovered_answers_are_late(self):
        faults = self.plan(
            probe_loss_rate=0.5, retry_backoff_seconds=2.0
        ).probe_faults(0, 0.0, 100.0)
        delays = {
            faults.transmit(0, ProbeOutcome.SYNACK)[1] for _ in range(2_000)
        }
        # Attempt 1: 0s; attempt 2: +2s; attempt 3: +2s+4s.
        assert delays == {0.0, 2.0, 6.0}

    def test_silent_target_stays_silent(self):
        faults = self.plan(
            probe_loss_rate=0.0, response_loss_rate=0.1
        ).probe_faults(0, 0.0, 100.0)
        outcome, delay = faults.transmit(0, ProbeOutcome.NOTHING)
        assert outcome is ProbeOutcome.NOTHING
        assert delay > 0.0  # the full retransmit budget was spent

    def test_no_retries_single_roll(self):
        faults = self.plan(
            probe_loss_rate=1.0, probe_retries=0
        ).probe_faults(0, 0.0, 100.0)
        assert faults.transmit(0, ProbeOutcome.RST) == (
            ProbeOutcome.NOTHING, 0.0
        )

    def test_deterministic_per_machine_stream(self):
        plan = self.plan(response_loss_rate=0.2)
        a = plan.probe_faults(1, 0.0, 50.0)
        b = plan.probe_faults(1, 0.0, 50.0)
        sequence_a = [a.transmit(0, ProbeOutcome.SYNACK) for _ in range(200)]
        sequence_b = [b.transmit(0, ProbeOutcome.SYNACK) for _ in range(200)]
        assert sequence_a == sequence_b
        other_machine = [
            b.transmit(1, ProbeOutcome.SYNACK) for _ in range(200)
        ]
        assert sequence_a != other_machine

    def test_downtime_window_inside_sweep(self):
        plan = self.plan(prober_downtime_fraction=0.25)
        faults = plan.probe_faults(0, 1_000.0, 400.0)
        window = faults.downtime_window(0)
        assert window is not None
        start, end = window
        assert 1_000.0 <= start < end <= 1_400.0
        assert end - start == pytest.approx(100.0)
        assert faults.machine_down(0, (start + end) / 2)
        assert not faults.machine_down(0, start - 1.0)
        assert not faults.machine_down(0, end + 1.0)

    def test_no_downtime_when_fraction_zero(self):
        faults = self.plan().probe_faults(0, 0.0, 100.0)
        assert faults.downtime_window(0) is None
        assert not faults.machine_down(0, 50.0)


class TestNullPlanIdentity:
    """FaultPlan() must be indistinguishable from no faults."""

    def test_dataset_build_identical(self, dataset):
        with_null = build_dataset(DATASET, seed=SEED, scale=1.0,
                                  faults=FaultPlan())
        assert with_null.faults is None
        for ours, theirs in zip(dataset.scan_reports, with_null.scan_reports):
            assert ours.opens == theirs.opens
            assert ours.counts == theirs.counts
            assert ours.responding_addresses == theirs.responding_addresses

    def test_replay_identical(self, dataset, generated_records):
        pristine = PassiveServiceTable(is_campus=dataset.is_campus,
                                       tcp_ports=dataset.tcp_ports)
        nulled = PassiveServiceTable(is_campus=dataset.is_campus,
                                     tcp_ports=dataset.tcp_ports)
        count_a = replay(iter(generated_records), pristine)
        count_b = replay(
            iter(generated_records), nulled,
            faults=FaultPlan().capture_filter(dataset.duration),
        )
        assert count_a == count_b
        assert pristine.first_seen == nulled.first_seen
        assert pristine.flow_counts == nulled.flow_counts


class TestLossyReplayPaths:
    """The same lossy plan must degrade every replay path identically."""

    def plan(self, dataset):
        return FaultPlan(
            seed=31, capture_loss_rate=0.15, burst_loss_rate=0.002,
            outage_fraction=0.1,
        )

    def tables(self, dataset):
        return PassiveServiceTable(
            is_campus=dataset.is_campus, tcp_ports=dataset.tcp_ports
        )

    def test_streamed_equals_batched(self, dataset, generated_records):
        plan = self.plan(dataset)
        streamed = self.tables(dataset)
        count_s = replay(
            iter(generated_records), streamed,
            faults=capture_filter(plan, dataset.duration),
        )
        batches = (
            RecordColumns.from_records(generated_records[i : i + 777])
            for i in range(0, len(generated_records), 777)
        )
        batched = self.tables(dataset)
        count_b = replay_columnar(
            batches, batched,
            faults=plan.capture_filter(dataset.duration),
        )
        assert count_s == count_b
        assert streamed.first_seen == batched.first_seen
        assert streamed.flow_counts == batched.flow_counts

    def test_multilink_monitor_filters_once(self, dataset, generated_records):
        plan = self.plan(dataset)

        def monitor(kind=MultiLinkMonitor):
            return kind(
                links=dataset.spec.monitored_links,
                is_campus=dataset.is_campus,
                tcp_ports=dataset.tcp_ports,
            )

        per_record = monitor(ReferenceMultiLinkMonitor)
        replay(
            iter(generated_records), per_record,
            faults=capture_filter(plan, dataset.duration),
        )
        batched = monitor()
        replay_columnar(
            [RecordColumns.from_records(generated_records)], batched,
            faults=plan.capture_filter(dataset.duration),
        )
        assert per_record.combined.first_seen == batched.combined.first_seen
        for link, tap in per_record.taps.items():
            assert tap.first_seen == batched.taps[link].first_seen

    def test_lossy_scan_is_deterministic(self, dataset):
        from repro.active.prober import HalfOpenScanner

        plan = FaultPlan(
            seed=17, probe_loss_rate=0.2, response_loss_rate=0.1,
            prober_downtime_fraction=0.2,
        )

        def sweep():
            scanner = HalfOpenScanner(dataset.population, faults=plan)
            targets = sorted(dataset.population.topology.space.addresses())
            return scanner.scan(targets, (80, 22), start=0.0, duration=3600.0)

        first, second = sweep(), sweep()
        assert first.opens == second.opens
        assert first.counts == second.counts
        pristine = HalfOpenScanner(dataset.population).scan(
            sorted(dataset.population.topology.space.addresses()),
            (80, 22), start=0.0, duration=3600.0,
        )
        # The lossy sweep can only ever observe a subset of the truth.
        assert set(a for _, a, p in first.opens) <= set(
            a for _, a, p in pristine.opens
        )
        assert len(first.opens) < len(pristine.opens)


class TestCacheCorruption:
    def test_corrupts_and_evicts_end_to_end(self, monkeypatch, tmp_path):
        from repro.trace.cache import ENV_VAR, default_trace_cache

        monkeypatch.setenv(ENV_VAR, str(tmp_path / "cache"))
        cache = default_trace_cache()
        plan = FaultPlan(seed=41, cache_corruption_rate=1.0)
        corrupted = build_dataset(DATASET, seed=SEED, scale=1.0, faults=plan)
        table = PassiveServiceTable(is_campus=corrupted.is_campus,
                                    tcp_ports=corrupted.tcp_ports)
        corrupted.replay(table)
        # The committed entry was truncated: lookup must evict it.
        assert cache.lookup(corrupted.trace_cache_key) is None
        assert not cache.path_for(corrupted.trace_cache_key).exists()
        # The next replay regenerates identical analysis regardless.
        again = PassiveServiceTable(is_campus=corrupted.is_campus,
                                    tcp_ports=corrupted.tcp_ports)
        corrupted.replay(again)
        assert table.first_seen == again.first_seen

    def test_corruption_roll_is_pure(self, tmp_path):
        plan = FaultPlan(seed=41, cache_corruption_rate=0.5)
        hits = []
        for index in range(40):
            path = tmp_path / f"t{index}"
            path.write_bytes(b"x" * 100)
            hits.append(plan.maybe_corrupt_trace(path, ("k", index)))
        # Same seed, same keys: the exact same entries corrupt again.
        repeat = []
        for index in range(40):
            path = tmp_path / f"r{index}"
            path.write_bytes(b"x" * 100)
            repeat.append(plan.maybe_corrupt_trace(path, ("k", index)))
        assert hits == repeat
        assert any(hits) and not all(hits)

    def test_truncation_halves_file(self, tmp_path):
        plan = FaultPlan(seed=1, cache_corruption_rate=1.0)
        path = tmp_path / "t"
        path.write_bytes(b"y" * 1000)
        assert plan.maybe_corrupt_trace(path, ("solo",))
        assert path.stat().st_size == 500
