"""Integration tests: online probing inside the stream engine and fabric.

The acceptance properties from the probe subsystem's contract:

* an online run at probe rate 0 is byte-identical to the passive
  streaming path (no probes scheduled, no evidence, same report);
* a killed-and-resumed online run is byte-identical to an
  uninterrupted one (scheduler state rides in the checkpoint);
* the threaded engine and the process fabric produce byte-identical
  online reports, including under injected worker crashes (the
  scheduler lives with the supervisor, so failover cannot touch it);
* published snapshots carry the probe evidence view, so ``/liveness``
  and ``/healthz`` answer from the online prober's live evidence.
"""

from __future__ import annotations

import shutil
from dataclasses import replace

import pytest

from repro.datasets import build_dataset
from repro.faults.worker import WorkerFaultPlan
from repro.query.state import QueryState
from repro.simkernel.clock import days, hours
from repro.stream import (
    CheckpointError,
    FabricConfig,
    FabricSupervisor,
    ShardCheckpointStore,
    StreamConfig,
    StreamEngine,
    save_checkpoint,
)

from tests.test_stream import kill_mid_run, run_front

#: Must match the session-scoped ``small_dtcp18`` fixture's build.
SMALL = dict(dataset="DTCP1-18d", seed=7, scale=0.04)


def probing_config(**overrides) -> StreamConfig:
    base = dict(
        **SMALL, shards=2, end=days(2),
        probe_policy="periodic", probe_rate=5.0,
    )
    return StreamConfig(**{**base, **overrides})


@pytest.fixture(scope="module")
def small_dtcp90():
    """A passive-only dataset (no build-time scans): the rate-0 foil."""
    return build_dataset("DTCP1-90d", seed=7, scale=0.02)


def renders(result) -> list[str]:
    return [result.report] + [w.render() for w in result.watermarks]


class TestRateZeroIdentity:
    @pytest.mark.parametrize("policy", ["heartbeat", "periodic"])
    def test_engine_rate_zero_matches_passive(self, small_dtcp90, policy):
        base = dict(
            dataset="DTCP1-90d", seed=7, scale=0.02, shards=2,
            end=days(2), emit_every=hours(12),
        )
        passive = StreamEngine(
            StreamConfig(**base), dataset=small_dtcp90
        ).run()
        probed = StreamEngine(
            StreamConfig(**base, probe_policy=policy, probe_rate=0.0),
            dataset=small_dtcp90,
        ).run()
        assert renders(probed) == renders(passive)
        # The null prober still publishes its (empty) evidence view.
        assert probed.snapshot.probes is not None
        assert probed.snapshot.probes.issued == 0
        assert passive.snapshot.probes is None

    def test_fabric_rate_zero_matches_passive(self, small_dtcp90,
                                              fast_fabric):
        base = dict(
            dataset="DTCP1-90d", seed=7, scale=0.02, shards=2, end=days(2),
        )
        passive = FabricSupervisor(
            StreamConfig(**base), FabricConfig(), dataset=small_dtcp90
        ).run()
        probed = FabricSupervisor(
            StreamConfig(**base, probe_policy="heartbeat", probe_rate=0.0),
            FabricConfig(), dataset=small_dtcp90,
        ).run()
        assert renders(probed) == renders(passive)


class TestOnlineRunEquivalence:
    @pytest.fixture(scope="class")
    def engine_result(self, small_dtcp18):
        config = probing_config(emit_every=hours(12))
        return StreamEngine(config, dataset=small_dtcp18).run()

    def test_probes_replace_buildtime_scans(self, engine_result):
        probes = engine_result.snapshot.probes
        assert probes is not None
        assert probes.issued > 0
        assert probes.last_open  # something answered
        # The report's scan count is completed online sweeps, and the
        # active side of the summary is the prober's open set.
        assert len(probes.sweeps) > 0
        assert engine_result.summary.active_total == len(probes.last_open)

    @pytest.mark.parametrize("front", ["threads", "fabric"])
    def test_kill_and_resume_is_byte_identical(
        self, small_dtcp18, engine_result, tmp_path, front
    ):
        config = probing_config(
            emit_every=hours(12),
            checkpoint_every=hours(6),
            checkpoint_path=str(tmp_path / "probe.checkpoint"),
        )
        kill_mid_run(front, config, small_dtcp18, 8000)
        resumed = run_front(front, config, small_dtcp18, resume=True)
        assert resumed.resumed
        assert renders(resumed) == renders(engine_result)
        assert resumed.snapshot.probes == engine_result.snapshot.probes

    def test_resumed_run_counts_only_its_own_probes(
        self, small_dtcp18, engine_result, tmp_path, monkeypatch
    ):
        # Like every other stream counter, repro_probe_*_total reports
        # this run's work: the totals a checkpoint restored are not
        # dispatched again, so they must not be counted again.
        from repro.probe import ProbeScheduler
        from repro.telemetry.metrics import MetricRegistry, set_registry

        config = probing_config(
            emit_every=hours(12),
            checkpoint_every=hours(6),
            checkpoint_path=str(tmp_path / "probe.checkpoint"),
        )
        StreamEngine(config, dataset=small_dtcp18).run(stop_after_records=8000)

        restored = []
        restore_state = ProbeScheduler.restore_state

        def spy(self, state):
            restored.append(dict(state))
            restore_state(self, state)

        monkeypatch.setattr(ProbeScheduler, "restore_state", spy)
        telemetry = MetricRegistry()
        previous = set_registry(telemetry)
        try:
            resumed = StreamEngine(config, dataset=small_dtcp18).run(resume=True)
        finally:
            set_registry(previous)

        (checkpoint,) = restored
        final = resumed.snapshot.probes
        assert final == engine_result.snapshot.probes
        assert 0 < checkpoint["issued"] < final.issued
        for field, metric in (
            ("issued", "repro_probe_dispatched_total"),
            ("synacks", "repro_probe_synacks_total"),
            ("rsts", "repro_probe_rsts_total"),
            ("silent", "repro_probe_silent_total"),
        ):
            assert telemetry.value(metric) == (
                getattr(final, field) - checkpoint[field]
            ), metric

    def test_fabric_matches_engine(self, small_dtcp18, engine_result,
                                   fast_fabric):
        result = FabricSupervisor(
            probing_config(emit_every=hours(12)),
            FabricConfig(),
            dataset=small_dtcp18,
        ).run()
        assert renders(result) == renders(engine_result)
        assert result.snapshot.probes == engine_result.snapshot.probes

    def test_fabric_with_worker_crashes_matches_engine(
        self, small_dtcp18, engine_result, fast_fabric
    ):
        fast_fabric(max_restarts=25)
        faults = WorkerFaultPlan(seed=5, crash_rate=1.0, crashes_per_shard=2)
        result = FabricSupervisor(
            probing_config(emit_every=hours(12)),
            FabricConfig(worker_faults=faults),
            dataset=small_dtcp18,
        ).run()
        assert renders(result) == renders(engine_result)


def _past_the_end(probes):
    probes["cursor"] = 10**12


def _exhausted_flipped(probes):
    probes["exhausted"] = not probes["exhausted"]


def _issued_off_the_cursor(probes):
    probes["issued"] += 1


def _outcomes_off_the_total(probes):
    probes["silent"] += 1


def _probed_a_stranger(probes):
    probes["last_probed"][1] = max(probes["last_probed"].values())


class TestHostileProbeState:
    """A manifest whose probe state this schedule could not have left
    (re-framed, so its CRC holds) is refused on resume, naming the
    field, on either transport."""

    @pytest.fixture(scope="class", params=["threads", "fabric"])
    def killed(self, request, small_dtcp18, tmp_path_factory):
        store = tmp_path_factory.mktemp(f"hostile-{request.param}") / "ckpt"
        config = probing_config(
            emit_every=hours(12), checkpoint_every=hours(6),
            checkpoint_path=str(store),
        )
        kill_mid_run(request.param, config, small_dtcp18, 8000)
        return request.param, config

    @pytest.mark.parametrize("tamper,field", [
        (_past_the_end, "cursor"),
        (_exhausted_flipped, "exhausted"),
        (_issued_off_the_cursor, "issued"),
        (_outcomes_off_the_total, "silent"),
        (_probed_a_stranger, "last_probed"),
    ])
    def test_resume_refuses_tampered_probe_state(
        self, killed, small_dtcp18, tmp_path, tamper, field
    ):
        front, config = killed
        shutil.copytree(config.checkpoint_path, tmp_path / "ckpt")
        config = replace(config, checkpoint_path=str(tmp_path / "ckpt"))
        store = ShardCheckpointStore(config.checkpoint_path)
        generation = store.generations()[0]
        identity = StreamEngine(config, dataset=small_dtcp18)._identity()
        payload = store.load_manifest(generation, identity)
        assert payload["probes"]["cursor"] > 0  # probes were dispatched
        tamper(payload["probes"])
        save_checkpoint(store.manifest_path(generation), payload)
        with pytest.raises(CheckpointError, match=field):
            run_front(front, config, small_dtcp18, resume=True)


class TestQueryIntegration:
    @pytest.fixture(scope="class")
    def served(self, small_dtcp18):
        state = QueryState()
        config = probing_config(snapshot_every=hours(12))
        result = StreamEngine(config, dataset=small_dtcp18).run(
            publisher=state
        )
        return state, result

    def test_healthz_reports_probe_progress(self, served):
        state, result = served
        body = state.health()
        probes = body["probes"]
        assert probes["policy"] == "periodic"
        assert probes["rate"] == 5.0
        assert probes["issued"] == result.snapshot.probes.issued > 0
        assert probes["sweeps_completed"] == len(result.snapshot.probes.sweeps)
        assert probes["sweeps_planned"] >= probes["sweeps_completed"]
        assert 0.0 <= probes["sweep_progress"] <= 1.0

    def test_liveness_answers_from_probe_evidence(self, served):
        from repro.query.liveness import infer_liveness

        state, _ = served
        snapshot = state.snapshot()
        view = snapshot.probes
        assert view is not None
        # An address the prober saw open recently is alive even if it
        # never appeared in passive traffic.
        address = max(view.last_open, key=view.last_open.get)
        verdict = infer_liveness(address, snapshot, active=None)
        assert verdict["last_active_seen"] == view.last_open[address]
        assert verdict["sweeps_completed"] == len(view.sweeps)
        # A probed-but-silent address gets mid-sweep negative evidence.
        silent = next(
            a for a in view.last_probed
            if a not in view.last_open
            and snapshot.passive_last_seen(a) is None
        )
        silent_verdict = infer_liveness(silent, snapshot, active=None)
        assert silent_verdict["verdict"] == "never-seen"
