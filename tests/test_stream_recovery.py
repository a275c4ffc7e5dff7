"""Crash-recovery tests for the streaming engine (real subprocesses).

The in-process resume tests in ``test_stream.py`` interrupt the engine
cooperatively; this module does it the unfriendly way -- SIGKILL while
the stream is mid-run -- and asserts the resumed run still lands on a
report byte-identical to an uninterrupted one.  That exercises the
atomic-checkpoint guarantee (a torn write must never be loadable) and
the CLI's ``--resume`` plumbing end to end.  The graceful half
(SIGTERM) is checked in both modes: the CLI must report what the run's
shard transport actually left behind to resume from, and the resume
from it must be exact.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.stream import ShardCheckpointStore
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
