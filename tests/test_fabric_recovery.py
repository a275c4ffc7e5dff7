"""Crash-recovery tests for the shard fabric (real SIGKILLs).

The chaos tests in ``test_stream_fabric.py`` inject faults from inside
the worker (seeded ``WorkerFaultPlan``); this module attacks from
outside with ``SIGKILL`` -- first a random shard worker mid-ingest
(the supervisor must fail over in flight and still finish), then the
supervisor itself (orphaned workers must exit, and ``--resume`` must
continue from the last committed manifest).  Both paths must land on a
report byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import os
import random
import re
import signal
import subprocess
import sys
import time

import pytest

from tests.conftest import SRC, run_cli


FABRIC_ARGS = [
    "stream", "DTCP1-18d",
    "--scale", "0.03",
    "--seed", "11",
    "--workers", "4",
    "--emit-every", "96",
    "--outage-fraction", "0.02",
    "--fault-seed", "5",
]

_LAUNCH_RE = re.compile(
    r"fabric: launch shard=(\d+) incarnation=(\d+) pid=(\d+)"
)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _spawn_fabric(args, tmp_path, stderr_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.setdefault("REPRO_TRACE_CACHE", str(tmp_path / "trace-cache"))
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        cwd=tmp_path, env=env,
        stdout=subprocess.DEVNULL, stderr=open(stderr_path, "w"),
    )


def _wait_for(stderr_path, victim, predicate, what, deadline_s=180.0):
    """Poll the victim's live stderr until *predicate* matches it."""
    deadline = time.monotonic() + deadline_s
    while True:
        text = stderr_path.read_text() if stderr_path.exists() else ""
        if predicate(text):
            return text
        if victim.poll() is not None:
            pytest.fail(f"fabric run exited before {what}:\n{text}")
        if time.monotonic() > deadline:
            pytest.fail(f"no {what} within deadline:\n{text}")
        time.sleep(0.01)


@pytest.mark.slow
def test_sigkill_worker_mid_ingest_is_byte_identical(tmp_path):
    reference = tmp_path / "reference.txt"
    survived = tmp_path / "survived.txt"
    store = tmp_path / "fabric-ckpt"
    stderr_path = tmp_path / "victim.stderr"

    run_cli(FABRIC_ARGS + ["--out", str(reference)], tmp_path)
    assert reference.exists()

    victim = _spawn_fabric(
        FABRIC_ARGS + ["--checkpoint-every", "12",
                       "--checkpoint", str(store),
                       "--out", str(survived)],
        tmp_path, stderr_path,
    )
    try:
        # Wait until all four workers are up and the first generation
        # has committed, then SIGKILL one worker chosen at random --
        # mid-ingest, no warning, nothing graceful.
        text = _wait_for(
            stderr_path, victim,
            lambda t: len(_LAUNCH_RE.findall(t)) >= 4
            and "fabric: manifest" in t,
            "worker launches + first manifest",
        )
        pids = [int(pid) for _s, inc, pid in _LAUNCH_RE.findall(text)
                if inc == "0"]
        target = random.choice(pids)
        try:
            os.kill(target, signal.SIGKILL)
        except ProcessLookupError:
            pass  # lost the race; the dead-declare assertions below decide
        victim.wait(timeout=300)
    finally:
        if victim.poll() is None:
            victim.kill()
            victim.wait(timeout=30)

    stderr_text = stderr_path.read_text()
    # The supervisor must have noticed the death, failed over, and
    # finished the run itself -- no resume involved.
    assert victim.returncode == 0, stderr_text
    assert "fabric: dead" in stderr_text
    assert "fabric: reassign" in stderr_text
    assert survived.read_bytes() == reference.read_bytes()
    # Clean finish clears the per-shard store.
    assert not store.exists() or not list(store.iterdir())


@pytest.mark.slow
def test_sigkill_supervisor_then_resume_is_byte_identical(tmp_path):
    reference = tmp_path / "reference.txt"
    resumed = tmp_path / "resumed.txt"
    store = tmp_path / "fabric-ckpt"
    stderr_path = tmp_path / "victim.stderr"

    run_cli(FABRIC_ARGS + ["--out", str(reference)], tmp_path)

    victim = _spawn_fabric(
        FABRIC_ARGS + ["--checkpoint-every", "12",
                       "--checkpoint", str(store),
                       "--out", str(resumed)],
        tmp_path, stderr_path,
    )
    try:
        text = _wait_for(
            stderr_path, victim,
            lambda t: "fabric: manifest" in t,
            "first committed manifest",
        )
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)
    finally:
        if victim.poll() is None:
            victim.kill()
            victim.wait(timeout=30)
    assert victim.returncode == -signal.SIGKILL
    assert list(store.glob("manifest.gen-*.ckpt"))
    assert not resumed.exists()  # killed before the report was written

    # Orphaned workers detect the dead supervisor via getppid and exit
    # on their own; give them a few polls, then assert none of the
    # launched worker pids linger.
    worker_pids = [int(pid) for _s, _i, pid in _LAUNCH_RE.findall(text)]
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        alive = [pid for pid in worker_pids if _pid_alive(pid)]
        if not alive:
            break
        time.sleep(0.05)
    assert not alive, f"orphaned fabric workers still alive: {alive}"

    proc = run_cli(
        FABRIC_ARGS + ["--checkpoint-every", "12",
                       "--checkpoint", str(store),
                       "--resume",
                       "--out", str(resumed)],
        tmp_path,
    )
    assert f"resuming: {store}" in proc.stderr
    assert resumed.read_bytes() == reference.read_bytes()
    assert not store.exists() or not list(store.iterdir())


_ORPHAN_SCRIPT = """
import multiprocessing, os, signal, struct, sys, types

from repro.faults.worker import WorkerFaultEvents
from repro.stream import fabric
from repro.stream.fabric import _Arena, _shard_worker

# The workers fork after this, so they look for their supervisor every
# 0.05 s.
fabric._ORPHAN_POLL_SECONDS = 0.05
ctx = multiprocessing.get_context("fork")
queues = [ctx.Queue(), ctx.Queue()]
inboxes, outboxes = zip(*(ctx.Pipe(duplex=False) for _ in range(2)))
dataset = types.SimpleNamespace(
    is_campus=lambda address: True, tcp_ports=None, udp_ports=None
)
for shard in range(2):
    ctx.Process(
        target=_shard_worker,
        args=(shard, 0, dataset, {}, None, None, _Arena(2), queues,
              list(inboxes), outboxes[shard], WorkerFaultEvents()),
    ).start()
# Each worker's join handshake carries its pid.  A worker that died
# before its join leaves recv() waiting for ever (the sibling forked
# after it holds that pipe's write end too): give up on it instead,
# without multiprocessing's exit-time join of the live one.
pids = []
for inbox in inboxes:
    if not inbox.poll(10.0):
        print(*pids, flush=True)
        os._exit(1)
    pids.append(inbox.recv()[3])
print(*pids, flush=True)
# Die half way through a message to shard 0: the length prefix of a
# 100-byte frame and ten bytes of it.
os.write(queues[0]._writer.fileno(), struct.pack("!i", 100) + b"x" * 10)
os.kill(os.getpid(), signal.SIGKILL)
"""


def test_worker_blocked_mid_message_notices_its_supervisor_died(tmp_path):
    """A supervisor SIGKILLed inside a ``put`` leaves part of a message
    in the pipe.  The worker reading it must get EOF, not wait for the
    rest: it, and its sibling, hold no copy of the pipe's write end."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    pids_path = tmp_path / "worker-pids"
    # Not a pipe: the orphans would hold it open past the supervisor.
    # A session of its own, so whatever the script leaves behind --
    # itself on a timeout, workers it printed or not -- is killed as one
    # process group at the end.
    with open(pids_path, "w") as pids_file:
        supervisor = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_SCRIPT],
            cwd=tmp_path, env=env, stdout=pids_file,
            start_new_session=True,
        )
    try:
        assert supervisor.wait(timeout=60) == -signal.SIGKILL
        worker_pids = [int(pid) for pid in pids_path.read_text().split()]
        assert len(worker_pids) == 2
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            alive = [pid for pid in worker_pids if _pid_alive(pid)]
            if not alive:
                break
            time.sleep(0.05)
        assert not alive, f"orphaned fabric workers still alive: {alive}"
    finally:
        try:
            os.killpg(supervisor.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        supervisor.wait(timeout=30)


@pytest.mark.slow
def test_fabric_resume_on_fresh_store_just_runs(tmp_path):
    """``--resume`` with an empty store is a cold start, not an error."""
    out = tmp_path / "report.txt"
    store = tmp_path / "never-written"
    proc = run_cli(
        FABRIC_ARGS + ["--checkpoint-every", "120",
                       "--checkpoint", str(store),
                       "--resume", "--out", str(out)],
        tmp_path,
    )
    assert "resuming:" not in proc.stderr
    assert out.exists()
