"""Crash-recovery tests for the streaming engine (real subprocesses).

The in-process resume tests in ``test_stream.py`` interrupt the engine
cooperatively; this module does it the unfriendly way -- SIGKILL while
the stream is mid-run -- and asserts the resumed run still lands on a
report byte-identical to an uninterrupted one.  That exercises the
atomic-checkpoint guarantee (a torn write must never be loadable) and
the CLI's ``--resume`` plumbing end to end.  The graceful half
(SIGTERM) is checked in both modes: the CLI must report what the run's
shard transport actually left behind to resume from, and the resume
from it must be exact.  Last, in process, the bytes a stopped run
leaves in its checkpoint store are pinned by digest.
"""

from __future__ import annotations

import hashlib
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.datasets import build_dataset
from repro.faults.plan import FaultPlan
from repro.simkernel.clock import hours
from repro.stream import ShardCheckpointStore, StreamConfig, StreamEngine
from tests.conftest import SRC, run_cli


STREAM_ARGS = [
    "stream", "DTCP1-18d",
    "--scale", "0.03",
    "--seed", "11",
    "--shards", "2",
    "--emit-every", "96",
    "--outage-fraction", "0.02",
    "--fault-seed", "5",
]


def _sigkill_then_resume(tmp_path, stream_args):
    reference = tmp_path / "reference.txt"
    resumed = tmp_path / "resumed.txt"
    checkpoint = tmp_path / "stream.ckpt"

    run_cli(
        stream_args + ["--out", str(reference)], tmp_path
    )
    assert "Passive AND Active" in reference.read_text()

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.setdefault("REPRO_TRACE_CACHE", str(tmp_path / "trace-cache"))
    victim = subprocess.Popen(
        [sys.executable, "-m", "repro", *stream_args,
         "--checkpoint-every", "12",
         "--checkpoint", str(checkpoint),
         "--out", str(resumed)],
        cwd=tmp_path, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        # Wait for the first committed generation, then kill without
        # warning -- no SIGTERM handler, no atexit, nothing graceful.
        deadline = time.monotonic() + 120.0
        while not ShardCheckpointStore(checkpoint).generations():
            if victim.poll() is not None:
                pytest.fail("stream run exited before first checkpoint")
            if time.monotonic() > deadline:
                pytest.fail("no checkpoint appeared within deadline")
            time.sleep(0.01)
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)
    finally:
        if victim.poll() is None:
            victim.kill()
            victim.wait(timeout=30)
    assert victim.returncode == -signal.SIGKILL
    assert checkpoint.is_dir()
    assert not resumed.exists()  # killed before the report was written

    proc = run_cli(
        stream_args + ["--checkpoint-every", "12",
                       "--checkpoint", str(checkpoint),
                       "--resume",
                       "--out", str(resumed)],
        tmp_path,
    )
    assert f"resuming: {checkpoint}" in proc.stderr
    assert resumed.read_bytes() == reference.read_bytes()
    assert not checkpoint.exists()  # removed after the clean finish


@pytest.mark.slow
def test_sigkill_then_resume_is_byte_identical(tmp_path):
    _sigkill_then_resume(tmp_path, STREAM_ARGS)


@pytest.mark.slow
def test_sigkill_mid_sweep_then_resume_is_byte_identical(tmp_path):
    """The same under online probing: the checkpoint the kill leaves
    holds a periodic sweep's scheduler state mid-sweep, and the resumed
    report's active side -- all of it probe-derived -- must not move."""
    _sigkill_then_resume(
        tmp_path, STREAM_ARGS + ["--probe-policy", "periodic", "--probe-rate", "5"]
    )


@pytest.mark.slow
def test_resume_on_fresh_state_just_runs(tmp_path):
    """``--resume`` with no checkpoint on disk is a cold start, not an error."""
    out = tmp_path / "report.txt"
    checkpoint = tmp_path / "never-written.ckpt"
    proc = run_cli(
        STREAM_ARGS + ["--checkpoint-every", "120",
                       "--checkpoint", str(checkpoint),
                       "--resume", "--out", str(out)],
        tmp_path,
    )
    assert "resuming:" not in proc.stderr
    assert out.exists()


@pytest.mark.slow
@pytest.mark.parametrize("mode", ["threads", "fabric"])
def test_sigterm_reports_what_was_left_to_resume_from(tmp_path, mode):
    """Threads drain and commit one more generation on interrupt; the
    fabric only tears down, so a resume starts from its last *committed*
    generation -- and the CLI says which, instead of claiming a
    checkpoint it never wrote.  Either way the handler only sets a flag
    the run loop reads between batches, so the resume is exact."""
    args = list(STREAM_ARGS)
    if mode == "fabric":
        args[args.index("--shards")] = "--workers"
    checkpoint = tmp_path / "stream.ckpt"
    args += ["--checkpoint-every", "12", "--checkpoint", str(checkpoint)]
    store = ShardCheckpointStore(checkpoint)
    stderr_path = tmp_path / "victim.stderr"

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.setdefault("REPRO_TRACE_CACHE", str(tmp_path / "trace-cache"))
    with open(stderr_path, "w") as stderr:
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            cwd=tmp_path, env=env, stdout=subprocess.DEVNULL, stderr=stderr,
        )
        try:
            deadline = time.monotonic() + 120.0
            # The fabric prints its manifest line once the supervisor has
            # recorded the commit; the manifest *file* appears a moment
            # earlier, and a signal landing in between is (truthfully)
            # answered "no checkpoint generation committed".
            while not (
                "fabric: manifest generation=" in stderr_path.read_text()
                if mode == "fabric" else store.generations()
            ):
                if victim.poll() is not None:
                    pytest.fail("stream run exited before first checkpoint")
                if time.monotonic() > deadline:
                    pytest.fail("no checkpoint appeared within deadline")
                time.sleep(0.01)
            victim.send_signal(signal.SIGTERM)
            victim.wait(timeout=60)
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait(timeout=30)
    said = stderr_path.read_text()
    assert victim.returncode == 130, said
    if mode == "threads":
        assert f"interrupted; checkpoint saved to {checkpoint}" in said
        assert len(store.generations()) == 2  # a periodic one, and this
    else:
        assert "checkpoint saved" not in said
        named = re.search(
            r"interrupted; fleet torn down; resume from committed "
            rf"generation (\d+) in {re.escape(str(checkpoint))}", said,
        )
        assert named and int(named.group(1)) in store.generations(), said

    resumed = tmp_path / "resumed.txt"
    proc = run_cli(args + ["--resume", "--out", str(resumed)], tmp_path)
    assert f"resuming: {checkpoint}" in proc.stderr
    # Every generation, the interrupt's included, is a cut at a batch
    # boundary, so the resume is exact.
    reference = tmp_path / "reference.txt"
    run_cli(args[:-4] + ["--out", str(reference)], tmp_path)
    assert resumed.read_bytes() == reference.read_bytes()


class TestCheckpointBytes:
    """What a stopped run leaves on disk, pinned byte for byte.

    Resume is exact only while a checkpoint's bytes mean what the
    loader expects, so the fold's dict and set order, the fault
    filter's state and the manifest are all fixed points: a faulted
    2-shard run stopped part way keeps two committed generations, and
    every file of both is pinned here.
    """

    GOLDEN_CHECKPOINTS = {
        "manifest.gen-000002.ckpt":
            "7954c2ee4e24051bcf1251cc11c29d4cb55b49b493a14857437ef615e8e3d7a1",
        "manifest.gen-000003.ckpt":
            "deb6e11289fa59f558aab658c39645fb5ab95eed219a1a2b4d2561166c8b3ba5",
        "shard-000.gen-000002.ckpt":
            "574069ab369b64c38a858d008a31f4676f136509755fc96612327b16c393b27e",
        "shard-000.gen-000003.ckpt":
            "7e9b7cb7b4b65775fa2e9f142dc44bd0b66cd8949ef028967a170654b82fcfa5",
        "shard-001.gen-000002.ckpt":
            "3729723c8df9e30894b69baaa9b991616c71f3a281d96e9f1d09a02dbd7a2f4c",
        "shard-001.gen-000003.ckpt":
            "19161ec5d9c8a5f74a39a9b09c8a947e3de8efa2f0799cb6a34955de54f8b87d",
    }

    def test_stopped_store_bytes_are_golden(self, tmp_path):
        store = tmp_path / "store"
        config = StreamConfig(
            dataset="DTCP1-18d", seed=11, scale=0.05, shards=2,
            checkpoint_every=hours(48), checkpoint_path=str(store),
            faults=FaultPlan(
                seed=5, capture_loss_rate=0.01, outage_fraction=0.02
            ),
        )
        dataset = build_dataset(config.dataset, seed=config.seed, scale=config.scale)
        stopped = StreamEngine(config, dataset=dataset).run(
            stop_after_records=100_000
        )
        assert not stopped.finished
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(store.iterdir())
        }
        assert digests == self.GOLDEN_CHECKPOINTS, (
            "checkpoint bytes moved: bump STREAM_CHECKPOINT_VERSION if old "
            "checkpoints no longer load as they did, or say in the change "
            "why the same state now writes other bytes, then update the "
            "digests"
        )
