"""Tests for the hardened experiment runner.

Failure records, crash detection, checkpointing, and resume: a long
sweep must survive a broken experiment, a dead worker, or a SIGINT and
still produce the same report an uninterrupted run would have.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

import repro.experiments.runner as runner
from repro.experiments.common import ExperimentResult
from repro.experiments.runner import (
    ExperimentFailure,
    load_checkpoint,
    render_report,
    save_checkpoint,
)


def fake_result(name: str, seed: int = 0) -> ExperimentResult:
    return ExperimentResult(
        experiment_id=name,
        title=f"Fake {name}",
        body=f"body of {name} at seed {seed}",
        metrics={"value": float(seed), "count": 3.0},
        paper_values={"value": 1.0},
        notes=["synthetic"],
        series={"curve": [(0.0, 1.0), (1.0, 2.0)]},
    )


@pytest.fixture
def fake_experiments(monkeypatch):
    """Replace the experiment modules with instant fakes.

    Mutate its ``failing`` / ``crash_hard`` sets to steer failure
    scenarios; ``calls`` lists every in-process call.  The fakes are
    inherited by forked workers, so the same steering works for the
    fork engine.
    """
    failing: set[str] = set()
    crash_hard: set[str] = set()
    calls: list[str] = []

    def fake_run(name, seed, scale):
        calls.append(name)
        if name in crash_hard:
            os._exit(23)
        if name in failing:
            raise RuntimeError(f"{name} is broken")
        return fake_result(name, seed)

    monkeypatch.setattr(runner, "run_experiment", fake_run)
    fake_run.failing = failing
    fake_run.crash_hard = crash_hard
    fake_run.calls = calls
    return fake_run


NAMES = ["alpha", "beta", "gamma"]


def run(names=NAMES, **kwargs):
    return runner._run_many(names, seed=0, scale=1.0, **kwargs)


class TestFailureRecords:
    def test_sequential_collects_failures_and_continues(self, fake_experiments):
        fake_experiments.failing.add("beta")
        results = run()
        assert [r.experiment_id for r in results] == NAMES
        assert isinstance(results[0], ExperimentResult)
        failure = results[1]
        assert isinstance(failure, ExperimentFailure)
        assert failure.error_type == "RuntimeError"
        assert "beta is broken" in failure.message
        assert isinstance(results[2], ExperimentResult)

    def test_isolated_collects_failures_and_continues(self, fake_experiments):
        fake_experiments.failing.add("beta")
        results = run(jobs=2)
        assert [r.experiment_id for r in results] == NAMES
        failure = results[1]
        assert isinstance(failure, ExperimentFailure)
        assert failure.error_type == "RuntimeError"
        assert "beta is broken" in failure.message

    def test_worker_crash_detected_by_exitcode(self, fake_experiments):
        fake_experiments.crash_hard.add("gamma")
        results = run(jobs=2)
        failure = results[2]
        assert isinstance(failure, ExperimentFailure)
        assert failure.error_type == "WorkerCrash"
        assert "code 23" in failure.message
        assert isinstance(results[0], ExperimentResult)
        assert isinstance(results[1], ExperimentResult)
        assert multiprocessing.active_children() == []

    def test_failure_renders_in_report(self, fake_experiments):
        fake_experiments.failing.add("beta")
        results = run()
        report = render_report(results, seed=0, scale=1.0)
        assert "## beta: FAILED\n" in report
        assert "RuntimeError" in report
        assert "## Fake alpha" in report


class TestOrderingParity:
    def test_isolated_report_matches_sequential(self, fake_experiments):
        sequential = render_report(run(), seed=0, scale=1.0)
        pooled = render_report(run(jobs=3), seed=0, scale=1.0)
        assert sequential == pooled

    def test_on_complete_fires_for_every_outcome(self, fake_experiments):
        fake_experiments.failing.add("beta")
        seen = []
        run(on_complete=lambda name, outcome: seen.append(name))
        assert sorted(seen) == sorted(NAMES)



class TestForkedCacheCounts:
    def test_forked_lookups_reach_the_persisted_counts(
        self, monkeypatch, tmp_path
    ):
        """A forked child exits without the cache's atexit flush, so its
        lookups come home with its result and the parent writes them."""
        from repro.datasets import build_dataset
        from repro.trace.cache import ENV_VAR, default_trace_cache

        monkeypatch.setenv(ENV_VAR, str(tmp_path / "cache"))
        build_dataset("DTCPall", seed=0, scale=0.02).replay()  # records
        cache = default_trace_cache()
        assert cache.persistent_stats() == dict(hits=0, misses=1, evictions=0)

        def hit():
            return build_dataset("DTCPall", seed=0, scale=0.02).replay()

        def miss():
            raise LookupError(default_trace_cache().lookup(("absent",)))

        outcomes = {}
        runner.fork_each(
            [("hit1", hit), ("hit2", hit), ("miss", miss)], 2,
            outcomes.__setitem__,
        )
        assert isinstance(outcomes[2], ExperimentFailure)
        assert cache.persistent_stats() == dict(hits=2, misses=2, evictions=0)
        cache.flush_persistent_stats()
        on_disk = json.loads(cache.stats_path().read_text())
        assert on_disk == dict(hits=2, misses=2, evictions=0)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "c.json")
        completed = {"alpha": fake_result("alpha"), "beta": fake_result("beta", 4)}
        save_checkpoint(path, seed=0, scale=1.0, completed=completed)
        loaded = load_checkpoint(path, seed=0, scale=1.0)
        assert set(loaded) == {"alpha", "beta"}
        restored = loaded["beta"]
        original = completed["beta"]
        assert restored == original
        assert restored.render() == original.render()
        assert restored.series["curve"] == [(0.0, 1.0), (1.0, 2.0)]

    def test_mismatched_run_ignored(self, tmp_path):
        path = str(tmp_path / "c.json")
        save_checkpoint(path, seed=0, scale=1.0,
                        completed={"alpha": fake_result("alpha")})
        assert load_checkpoint(path, seed=1, scale=1.0) == {}
        assert load_checkpoint(path, seed=0, scale=0.5) == {}
        assert load_checkpoint(path, seed=0, scale=1.0) != {}

    def test_missing_or_garbage_file_ignored(self, tmp_path):
        assert load_checkpoint(str(tmp_path / "nope.json"), 0, 1.0) == {}
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert load_checkpoint(str(bad), 0, 1.0) == {}
        bad.write_text(json.dumps({"version": 999, "seed": 0, "scale": 1.0}))
        assert load_checkpoint(str(bad), 0, 1.0) == {}

    def test_failures_recorded_but_not_resumed(self, tmp_path):
        path = str(tmp_path / "c.json")
        failure = ExperimentFailure("beta", "RuntimeError", "boom")
        save_checkpoint(path, 0, 1.0,
                        completed={"alpha": fake_result("alpha")},
                        failed={"beta": failure})
        payload = json.loads(open(path).read())
        assert payload["failed"]["beta"] == {
            "error_type": "RuntimeError", "message": "boom",
        }
        # Only completed results come back: failures are always rerun.
        assert set(load_checkpoint(path, 0, 1.0)) == {"alpha"}

    def test_precomputed_results_skip_execution(self, fake_experiments):
        ran = []
        original = runner.run_experiment

        def tracking(name, seed, scale):
            ran.append(name)
            return original(name, seed, scale)

        runner.run_experiment = tracking
        try:
            results = run(precomputed={"alpha": fake_result("alpha")})
        finally:
            runner.run_experiment = original
        assert ran == ["beta", "gamma"]
        assert [r.experiment_id for r in results] == NAMES


class TestMainCli:
    def only_args(self, tmp_path, *extra):
        # `table1` is cheap and real; fakes cover everything else.
        return ["--only", *NAMES, "--scale", "1.0",
                "--out", str(tmp_path / "R.md"), *extra]

    def patch_all(self, monkeypatch, fake):
        monkeypatch.setattr(runner, "ALL_EXPERIMENTS", tuple(NAMES))

    def test_failure_exit_code_and_kept_checkpoint(
        self, tmp_path, monkeypatch, fake_experiments
    ):
        self.patch_all(monkeypatch, fake_experiments)
        fake_experiments.failing.add("beta")
        code = runner.main(self.only_args(tmp_path))
        assert code == 1
        report = (tmp_path / "R.md").read_text()
        assert "beta: FAILED" in report
        checkpoint = json.loads((tmp_path / "R.md.checkpoint.json").read_text())
        assert set(checkpoint["completed"]) == {"alpha", "gamma"}
        assert set(checkpoint["failed"]) == {"beta"}

    def test_failing_experiment_attempted_once(
        self, tmp_path, monkeypatch, fake_experiments
    ):
        """An experiment is a pure function of (name, seed, scale): a
        second attempt would raise the same error, so there is none."""
        self.patch_all(monkeypatch, fake_experiments)
        fake_experiments.failing.add("beta")
        assert runner.main(self.only_args(tmp_path)) == 1
        assert fake_experiments.calls == NAMES

    def test_success_removes_checkpoint(
        self, tmp_path, monkeypatch, fake_experiments
    ):
        self.patch_all(monkeypatch, fake_experiments)
        code = runner.main(self.only_args(tmp_path))
        assert code == 0
        assert not (tmp_path / "R.md.checkpoint.json").exists()

    def test_resume_reuses_checkpoint_and_matches(
        self, tmp_path, monkeypatch, fake_experiments
    ):
        self.patch_all(monkeypatch, fake_experiments)
        # Reference: uninterrupted run.
        assert runner.main(self.only_args(tmp_path)) == 0
        reference = (tmp_path / "R.md").read_text()
        # Failed run leaves a checkpoint with alpha and gamma done.
        fake_experiments.failing.add("beta")
        assert runner.main(self.only_args(tmp_path)) == 1
        # Fix beta; resume must only recompute it.
        fake_experiments.failing.clear()
        ran = []
        original = runner.run_experiment

        def tracking(name, seed, scale):
            ran.append(name)
            return original(name, seed, scale)

        monkeypatch.setattr(runner, "run_experiment", tracking)
        assert runner.main(self.only_args(tmp_path, "--resume")) == 0
        assert ran == ["beta"]
        assert (tmp_path / "R.md").read_text() == reference

    def test_interrupt_saves_checkpoint_and_exits_130(
        self, tmp_path, monkeypatch, fake_experiments
    ):
        self.patch_all(monkeypatch, fake_experiments)
        original = runner.run_experiment

        def interrupt_on_beta(name, seed, scale):
            if name == "beta":
                raise KeyboardInterrupt
            return original(name, seed, scale)

        monkeypatch.setattr(runner, "run_experiment", interrupt_on_beta)
        code = runner.main(self.only_args(tmp_path))
        assert code == 130
        checkpoint = json.loads((tmp_path / "R.md.checkpoint.json").read_text())
        assert set(checkpoint["completed"]) == {"alpha"}
        # Resume after the interrupt completes the run and cleans up.
        monkeypatch.setattr(runner, "run_experiment", original)
        assert runner.main(self.only_args(tmp_path, "--resume")) == 0
        assert not (tmp_path / "R.md.checkpoint.json").exists()

    def test_interrupt_with_telemetry_still_exports(
        self, tmp_path, monkeypatch, fake_experiments
    ):
        self.patch_all(monkeypatch, fake_experiments)

        def interrupt(name, seed, scale):
            raise KeyboardInterrupt

        monkeypatch.setattr(runner, "run_experiment", interrupt)
        tel = tmp_path / "tel"
        code = runner.main(self.only_args(tmp_path, "--telemetry", str(tel)))
        assert code == 130
        assert (tel / "manifest.json").exists()
        assert (tel / "metrics.jsonl").exists()

    def test_argument_validation(self, tmp_path, capsys):
        for bad in (["--jobs", "0"], ["--only", "not-an-experiment"]):
            with pytest.raises(SystemExit):
                runner.main(["--out", str(tmp_path / "R.md"), *bad])
