"""The stream run as a state machine, checked after every batch.

A :class:`~repro.stream.engine._Run` is stepped one batch at a time
over the inline transport (no threads), as ``StreamEngine._drive``
steps it, with hypothesis choosing the run (its end, batch size, shard
count, mark / checkpoint / snapshot intervals, capture faults, online
probing) and when to carry its :meth:`~repro.stream.engine._Run.progress` into a
fresh run.  After every step:

- stream time, record counts and watermarks only move forward;
- every checkpoint payload holds exactly the marks at or before its
  stream time, and its emission cursor counts them;
- a run restored from ``progress()`` (over a copy of the shard states)
  takes the same next step: equal ``progress()`` after it.

At the end the run is drained and finished, and its report must be the
batch path's, byte for byte.  Most runs stop a few stream days in, so
a failing example shrinks to a short run in seconds.  Tier-1 runs a few
short runs; CI's deeper
pass runs many longer ones (``--hypothesis-profile=deep``, registered
in ``tests/conftest.py``).
"""

from __future__ import annotations

import shutil
import tempfile
from collections import deque
from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core.completeness import summarize_overlap
from repro.core.report import survey_table
from repro.faults.plan import FaultPlan
from repro.passive.monitor import PassiveServiceTable
from repro.probe import build_prober
from repro.simkernel.clock import days, hours
from repro.stream import StreamConfig, StreamEngine, batch_survey_report
from repro.stream.engine import _InlineTransport, _Run
from repro.trace.columnar import COLUMN_FIELDS, RecordColumns

#: Must match the session-scoped ``small_dtcp18`` fixture's build.
SMALL = dict(dataset="DTCP1-18d", seed=7, scale=0.04)

#: Tier-1 keeps the machine small; the ``deep`` profile sets its own.
#: Neither explains a failure: varying each choice of a shrunk run one
#: at a time costs minutes of runs and names none of the cause.
MACHINE = settings(
    settings.get_profile("deep")
    if settings.get_current_profile_name() == "deep"
    else settings(
        max_examples=6,
        stateful_step_count=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    ),
    phases=[phase for phase in Phase if phase is not Phase.explain],
)

#: Mark, checkpoint and snapshot intervals, in sim hours (None: off).
INTERVALS = st.sampled_from([None, 6, 12, 24, 36])

#: The run's end: a few of the dataset's 18 days, or all of it (None).
#: One choice, shortest first, so a failing run shrinks to a short one.
ENDS = st.sampled_from([days(1), days(2), days(4), None])


def batch_report(config: StreamConfig, dataset) -> str:
    """The batch path's report for *config*, to its end.  With a probe
    policy its active side is the policy's whole schedule fired at once,
    at the end of the stream, instead of the build-time scans."""
    if config.probe_policy is None:
        return batch_survey_report(config, dataset)
    end = StreamEngine(config, dataset)._effective_end()
    table = PassiveServiceTable(
        is_campus=dataset.is_campus,
        tcp_ports=dataset.tcp_ports,
        udp_ports=dataset.udp_ports,
    )
    plan = config.faults
    faults = plan.capture_filter(dataset.duration) if plan else None
    records = dataset.replay(table, end=end, faults=faults)
    prober = build_prober(
        dataset, config.probe_policy, config.probe_rate,
        config.probe_ports, config.seed, end,
    )
    prober.advance(end)
    summary = summarize_overlap(
        table.server_addresses(), prober.open_addresses()
    )
    return survey_table(
        config.dataset, config.scale, config.seed,
        records, prober.sweeps_recorded(), summary,
    ).render()


class _KeptCheckpoints(_InlineTransport):
    """The inline transport, keeping each checkpoint payload as it was
    requested."""

    def __init__(self, engine: StreamEngine, payloads: list) -> None:
        super().__init__(engine)
        self.payloads = payloads

    def checkpoint(self, progress: dict) -> None:
        self.payloads.append(progress)
        super().checkpoint(progress)


class _Publisher:
    """Keeps what a run publishes."""

    def __init__(self) -> None:
        self.snapshots: list = []

    def publish(self, snapshot) -> None:
        self.snapshots.append(snapshot)


class RunMachine(RuleBasedStateMachine):
    """One stream run over ``small_dtcp18``, a batch per ``step``.

    *oracles* caches ``batch_report`` across runs by (end, faults,
    policy, rate): it does not depend on shards, batch size or
    intervals.  *sources* caches the source by end."""

    def __init__(self, dataset, oracles: dict, sources: dict) -> None:
        super().__init__()
        self.dataset = dataset
        self.oracles = oracles
        self.sources = sources
        self.root = tempfile.mkdtemp(prefix="repro-run-machine-")
        self.runs = 0
        #: Every checkpoint payload, as requested, by every run.
        self.payloads: list[dict] = []
        self.publisher = _Publisher()
        self.batches: deque = deque()
        self.run: _Run | None = None
        self.twin: _Run | None = None

    @initialize(
        end=ENDS,
        batch_records=st.integers(2_000, 20_000),
        shards=st.integers(1, 4),
        emit=INTERVALS,
        checkpoint=INTERVALS,
        snapshot=INTERVALS,
        fault_seed=st.none() | st.integers(0, 3),
        policy=st.sampled_from([None, "periodic", "heartbeat"]),
        rate=st.sampled_from([0.5, 5.0]),
    )
    def start(self, end, batch_records, shards, emit, checkpoint, snapshot,
              fault_seed, policy, rate):
        def seconds(every):
            return None if every is None else hours(every)

        faults = None
        if fault_seed is not None:
            faults = FaultPlan(
                seed=fault_seed, capture_loss_rate=0.01,
                burst_loss_rate=0.0005, burst_mean_length=40,
                outage_fraction=0.03, outage_count=2,
            )
        self.config = StreamConfig(
            **SMALL, end=end, shards=shards, batch_records=batch_records,
            emit_every=seconds(emit), checkpoint_every=seconds(checkpoint),
            snapshot_every=seconds(snapshot), faults=faults,
            probe_policy=policy, probe_rate=rate if policy else 0.0,
        )
        self.run = self._fresh_run()
        # The source, read once per end (a truncated one regenerates)
        # and cut into batch_records-sized batches whatever it was read
        # in (a recorded trace comes in its recording's chunks).
        if end not in self.sources:
            chunks = list(self.run.batches())
            self.sources[end] = RecordColumns(
                *(np.concatenate([getattr(chunk, name) for chunk in chunks])
                  for name, _dtype in COLUMN_FIELDS),
                link_names=chunks[0].link_names,
            )
        source = self.sources[end]
        self.batches = deque(
            source.slice(lo, lo + batch_records)
            for lo in range(0, len(source), batch_records)
        )
        self.seen = (0, 0, 0.0, 0)
        self.checked = 0
        self.finished = False

    def _fresh_run(self, states=None) -> _Run:
        """A run over a fresh inline transport (its own checkpoint
        store) whose shards start from copies of *states*."""
        self.runs += 1
        config = replace(
            self.config, checkpoint_path=f"{self.root}/run-{self.runs}"
        )
        transport = _KeptCheckpoints(
            StreamEngine(config, self.dataset), self.payloads
        )
        for state, source in zip(transport.states, states or ()):
            state.restore_state(source.state_dict())
        run = _Run(transport.engine, transport, publisher=self.publisher)
        transport.start(run.records_read)
        return run

    @rule()
    def step(self):
        """One batch; at end of stream, drain and finish (once)."""
        if not self.batches:
            self.finish()
            return
        batch = self.batches.popleft()
        assert not self.run.step(batch)
        if self.twin is not None:
            # The restored run takes the same step, and carries on.
            assert not self.twin.step(batch)
            assert self.twin.progress() == self.run.progress()
            self.run.transport.close()
            self.run, self.twin = self.twin, None

    @precondition(lambda self: self.batches and self.twin is None)
    @rule()
    def restore_into_a_fresh_run(self):
        payload = self.run.progress()
        twin = self._fresh_run(self.run.transport.states)
        twin.restore(payload)
        assert twin.progress() == payload
        self.twin = twin

    @invariant()
    def holds(self):
        run = self.run
        if run is None:
            return
        times = [w.time for w in run.watermarks]
        records = [w.records for w in run.watermarks]
        assert times == sorted(set(times))
        assert records == sorted(records)
        assert run.emitted_index == len(run.watermarks)
        now = (run.records_read, run.records_delivered, run.now,
               len(run.watermarks))
        assert all(a <= b for a, b in zip(self.seen, now)), (self.seen, now)
        assert run.records_delivered <= run.records_read
        self.seen = now
        for payload in self.payloads[self.checked:]:
            marked = [w.time for w in payload["watermarks"]]
            assert marked == [m for m in run.marks if m <= payload["now"]]
            assert payload["emitted_index"] == len(marked)
        self.checked = len(self.payloads)
        for snapshot in self.publisher.snapshots:
            assert snapshot.records <= run.records_delivered
            assert list(snapshot.watermarks) == run.watermarks[
                :len(snapshot.watermarks)
            ]

    def finish(self):
        """Drain and finish the run: the batch path's report."""
        if self.finished:
            return
        self.finished = True
        self.run.drain()
        self.run.transport.close()
        result = self.run.finish()
        self.holds()
        key = (self.config.end, self.config.faults,
               self.config.probe_policy, self.config.probe_rate)
        if key not in self.oracles:
            self.oracles[key] = batch_report(self.config, self.dataset)
        assert result.report == self.oracles[key]
        assert len(result.watermarks) == len(self.run.marks)

    def teardown(self):
        try:
            if self.run is None:
                return
            self.twin = None
            while self.batches:
                assert not self.run.step(self.batches.popleft())
                self.holds()
            self.finish()
        finally:
            shutil.rmtree(self.root, ignore_errors=True)


def test_run_machine(small_dtcp18):
    oracles: dict = {}
    sources: dict = {}
    run_state_machine_as_test(
        lambda: RunMachine(small_dtcp18, oracles, sources),
        settings=MACHINE,
    )
