"""Run every experiment and regenerate EXPERIMENTS.md.

Usage::

    python -m repro.experiments.runner [--scale 1.0] [--seed 0]
        [--jobs N] [--timeout SECONDS] [--retries N] [--resume]
        [--out EXPERIMENTS.md]

At ``--scale 1.0`` the full paper-scale populations are simulated; the
whole suite costs a handful of trace passes (a few minutes).  Smaller
scales are useful for smoke runs.

``--jobs N`` runs experiments across worker processes.  Each worker
builds and replays its own datasets while all workers share the
on-disk record-once trace cache (writes are atomic, so racing workers
are safe).  Results merge in the original experiment order, so the
report is byte-identical to a sequential run.

The runner is hardened for long sweeps:

* a worker that raises (or dies outright) becomes a structured failure
  record in the report instead of aborting the remaining experiments;
* failed experiments are retried up to ``--retries`` times with
  exponential backoff;
* ``--timeout`` bounds each experiment attempt; a hung worker process
  is terminated (implies process isolation, even at ``--jobs 1``);
* every completed experiment is appended to a JSON checkpoint next to
  the report, and ``--resume`` reuses it so an interrupted run
  recomputes only unfinished experiments -- the final report is
  identical to an uninterrupted run;
* SIGINT/SIGTERM write the checkpoint, print what completed, and exit
  130 instead of dumping a traceback.

Every result carries replay bookkeeping in its metrics:
``replay_records_per_sec`` (throughput of the trace passes the
experiment triggered; 0 when every pass was already in-process cached)
and ``trace_cache_hits`` / ``trace_cache_misses``.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import signal
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

from repro.cli import add_dataset_arguments, add_telemetry_argument
from repro.durable import write_atomic
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.common import ExperimentResult
from repro.telemetry.export import run_scope
from repro.telemetry.metrics import registry as _telemetry_registry
from repro.telemetry.tracing import span as _span

HEADER = """\
# EXPERIMENTS — paper vs. reproduction

Generated by ``python -m repro.experiments.runner`` (seed={seed},
scale={scale}).  Every table and figure of *Understanding Passive and
Active Service Discovery* (Bartlett et al., IMC 2007 / ISI-TR-642) is
regenerated against the simulated campus described in DESIGN.md.
Absolute counts depend on the synthetic population; the comparisons to
watch are the *shapes*: which method wins, by how much, and where the
crossovers sit.  Each section lists the paper's numbers beside ours.

Duration-dependent figures (Table 2's growing windows, Figures 1-4)
can also be produced mid-stream without a second pass: ``python -m
repro stream --emit-every H`` emits the same completeness numbers as
incremental watermarks while the trace is still being consumed
(byte-identical to the batch path at the final mark; see DESIGN.md
§11).

Discovery state is also queryable *while these runs are in flight*:
``python -m repro serve`` fronts the streaming engine with an
HTTP/JSON API over immutable shard snapshots, and the
``serve_live`` workload of the repo benchmark (``BENCHMARK.json``,
``bench/run.py``) measures the requests per second and latency it
sustains under concurrent client load with ingest running, gated
alongside the ingest workloads (see DESIGN.md §14).

Every run here (and any fabric or serve invocation) can additionally
record a causal event trace: ``--trace DIR`` writes per-process event
logs plus crash flight-recorder dumps, and ``python -m repro
trace-view DIR`` merges them into a Chrome-trace (Perfetto-loadable)
timeline with a text summary.  Tracing off is the default and costs
nothing; tracing on leaves every report byte-identical (DESIGN.md
§15).

The active side of every section below is a build-time artifact, as
the paper's Nmap logs were.  The online alternative — probes
dispatched inside the streaming event loop under the paper's 12-hour
``periodic`` sweep or a Beverly & Allman-style ``heartbeat`` policy
(``python -m repro stream --probe-policy ...``) — has its own study:
``python -m repro online_probing`` compares completeness and evidence
freshness of heartbeat vs periodic vs passive-only across probe
budgets.  Like ``degradation`` it is a separate command rather than a
section here, because its grading peeks at simulator ground truth,
which the paper-reproduction experiments must never do (DESIGN.md
§16).

"""

#: Bump when the checkpoint layout changes; mismatched files are ignored.
CHECKPOINT_VERSION = 1

#: Keep only the tail of a worker traceback in failure records.
_TRACEBACK_LIMIT = 4000


def run_experiment(name: str, seed: int, scale: float) -> ExperimentResult:
    """Import and run one experiment by id.

    ``"table2"`` is ``repro.experiments.table2.run``; a dotted id such
    as ``"ablations.sampling"`` names a function of that module.
    """
    module_name, _, function = name.partition(".")
    module = importlib.import_module(f"repro.experiments.{module_name}")
    return getattr(module, function or "run")(seed=seed, scale=scale)


def _run_experiment_instrumented(
    name: str, seed: int, scale: float
) -> ExperimentResult:
    """Run one experiment, stamping replay/cache metrics onto the result.

    The deltas cover exactly the trace passes this experiment caused in
    this process (an experiment whose context was already in-process
    cached replays nothing and reports zero throughput).
    """
    from repro.trace.cache import replay_stats_snapshot

    reg = _telemetry_registry()
    before = replay_stats_snapshot()
    started = time.perf_counter()
    with _span(name):
        result = run_experiment(name, seed, scale)
    elapsed = time.perf_counter() - started
    after = replay_stats_snapshot()
    records = after.records_replayed - before.records_replayed
    seconds = after.replay_seconds - before.replay_seconds
    result.metrics["replay_records_per_sec"] = (
        records / seconds if seconds > 0 else 0.0
    )
    result.metrics["trace_cache_hits"] = float(after.hits - before.hits)
    result.metrics["trace_cache_misses"] = float(after.misses - before.misses)
    reg.counter(
        "repro_runner_experiments_total", "Experiments completed by the runner.",
    ).inc()
    reg.histogram(
        "repro_runner_experiment_seconds",
        "Wall-time distribution of individual experiments.",
    ).observe(elapsed)
    return result


@dataclass
class ExperimentFailure:
    """A structured error record for one experiment that never finished.

    Takes the place of an :class:`ExperimentResult` in the report so a
    crashed, hung, or repeatedly raising experiment is visible without
    taking the rest of the sweep down with it.
    """

    experiment_id: str
    error_type: str
    message: str
    attempts: int

    def render(self) -> str:
        plural = "s" if self.attempts != 1 else ""
        return (
            f"## {self.experiment_id}: FAILED "
            f"after {self.attempts} attempt{plural}\n\n"
            f"```\n{self.error_type}: {self.message.strip()}\n```"
        )


# ---- checkpointing ----------------------------------------------------


def _result_to_json(result: ExperimentResult) -> dict:
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "body": result.body,
        "metrics": dict(result.metrics),
        "paper_values": dict(result.paper_values),
        "notes": list(result.notes),
        "series": {
            name: [[x, y] for x, y in points]
            for name, points in result.series.items()
        },
    }


def _result_from_json(data: dict) -> ExperimentResult:
    return ExperimentResult(
        experiment_id=data["experiment_id"],
        title=data["title"],
        body=data["body"],
        metrics={k: float(v) for k, v in data["metrics"].items()},
        paper_values={k: float(v) for k, v in data["paper_values"].items()},
        notes=list(data["notes"]),
        series={
            name: [(float(x), float(y)) for x, y in points]
            for name, points in data["series"].items()
        },
    )


def save_checkpoint(
    path: str,
    seed: int,
    scale: float,
    completed: dict[str, ExperimentResult],
    failed: dict[str, ExperimentFailure] | None = None,
) -> None:
    """Durably write the resume checkpoint (:func:`write_atomic`)."""
    payload = {
        "version": CHECKPOINT_VERSION,
        "seed": seed,
        "scale": scale,
        "completed": {
            name: _result_to_json(result) for name, result in completed.items()
        },
        "failed": {
            name: {
                "error_type": failure.error_type,
                "message": failure.message,
                "attempts": failure.attempts,
            }
            for name, failure in (failed or {}).items()
        },
    }
    write_atomic(path, json.dumps(payload).encode("utf-8"))
    _telemetry_registry().counter(
        "repro_runner_checkpoint_writes_total",
        "Resume-checkpoint files written.",
    ).inc()


def load_checkpoint(
    path: str, seed: int, scale: float
) -> dict[str, ExperimentResult]:
    """Load completed results from *path*, if it matches this run.

    A missing, unreadable, or mismatched (version/seed/scale)
    checkpoint yields an empty dict -- resuming is then a full run.
    Failed experiments recorded in the checkpoint are *not* returned:
    a resume always retries them.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return {}
    if (
        not isinstance(payload, dict)
        or payload.get("version") != CHECKPOINT_VERSION
        or payload.get("seed") != seed
        or payload.get("scale") != scale
    ):
        return {}
    try:
        return {
            name: _result_from_json(data)
            for name, data in payload.get("completed", {}).items()
        }
    except (KeyError, TypeError, ValueError):
        return {}


# ---- execution engines ------------------------------------------------


def _worker_entry(conn, name: str, seed: int, scale: float) -> None:
    """Child-process entry: run one experiment, ship the outcome back.

    A forked worker inherits the parent's telemetry registry *including
    its accumulated counts*; shipping that back would double-count every
    metric the parent already holds.  So an instrumented worker swaps in
    a fresh registry first and ships only its own snapshot, which the
    parent folds in on reap.
    """
    from repro.telemetry.metrics import MetricRegistry, set_registry

    snapshot = None
    telemetry = _telemetry_registry().enabled
    if telemetry:
        set_registry(MetricRegistry(process=name))
    try:
        result = _run_experiment_instrumented(name, seed, scale)
        if telemetry:
            snapshot = _telemetry_registry().snapshot()
        conn.send(("ok", result, snapshot))
    except BaseException as exc:  # noqa: BLE001 - isolate *any* worker crash
        detail = traceback.format_exc()[-_TRACEBACK_LIMIT:]
        try:
            conn.send(("error", type(exc).__name__, detail))
        except Exception:
            pass
    finally:
        conn.close()


def _mp_context():
    import multiprocessing

    try:
        # Fork keeps worker start cheap and inherits warmed imports.
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


@dataclass
class _Bookkeeping:
    """What an attempt's outcome does, whichever engine ran it: the
    retry and failure counters, the backoff, failure records, the
    verbose lines and the completion hook."""

    retries: int
    backoff: float
    verbose: bool
    on_complete: Callable
    outcomes: dict = field(default_factory=dict)

    def succeeded(
        self, name: str, result: ExperimentResult, started: float
    ) -> None:
        self.outcomes[name] = result
        if self.verbose:
            print(f"{name}: {time.monotonic() - started:.1f}s",
                  file=sys.stderr)
        self.on_complete(name, result)

    def failed(
        self, name: str, attempt: int, error_type: str, message: str
    ) -> float | None:
        """Book failed *attempt* (1-based): the exponential backoff to
        wait before the next one, or ``None`` once the retries are spent
        and the failure record is final."""
        reg = _telemetry_registry()
        if attempt <= self.retries:
            reg.counter(
                "repro_runner_retries_total",
                "Experiment attempts requeued after a failure.",
            ).inc()
            delay = self.backoff * (2.0 ** (attempt - 1))
            if self.verbose:
                print(
                    f"{name}: attempt {attempt} failed ({error_type}); "
                    f"retrying in {delay:.1f}s",
                    file=sys.stderr,
                )
            return delay
        reg.counter(
            "repro_runner_failures_total",
            "Experiments abandoned after exhausting retries.",
        ).inc()
        failure = ExperimentFailure(
            experiment_id=name,
            error_type=error_type,
            message=message,
            attempts=attempt,
        )
        self.outcomes[name] = failure
        if self.verbose:
            print(f"{name}: FAILED after {attempt} attempt(s) ({error_type})",
                  file=sys.stderr)
        self.on_complete(name, failure)
        return None


def _run_isolated(
    names: list[str],
    seed: int,
    scale: float,
    jobs: int,
    timeout: float | None,
    book: _Bookkeeping,
) -> None:
    """Run each experiment in its own process, at most *jobs* at a time.

    Process-per-experiment isolation is what makes the hardening real:
    a worker that raises is a failure record, a worker that hangs past
    *timeout* is terminated, a worker that dies (OOM kill, segfault)
    is detected by its exit code -- and none of them can take the
    scheduler or the other experiments down.  Failed attempts are
    requeued with exponential backoff up to *retries* extra tries.
    """
    ctx = _mp_context()
    #: (name, attempt, ready_at) -- attempt is 1-based.
    pending: list[tuple[str, int, float]] = [(n, 1, 0.0) for n in names]
    #: name -> (process, recv_conn, attempt, started_at)
    running: dict[str, tuple] = {}

    def fail_or_retry(name: str, attempt: int, error_type: str, message: str):
        delay = book.failed(name, attempt, error_type, message)
        if delay is not None:
            pending.append((name, attempt + 1, time.monotonic() + delay))

    def reap(name: str) -> None:
        process, conn, attempt, started = running.pop(name)
        payload = None
        if conn.poll(0):
            try:
                payload = conn.recv()
            except EOFError:
                payload = None
        conn.close()
        process.join()
        if payload is not None and payload[0] == "ok":
            if len(payload) > 2 and payload[2] is not None:
                _telemetry_registry().merge_snapshot(payload[2])
            book.succeeded(name, payload[1], started)
        elif payload is not None:
            fail_or_retry(name, attempt, payload[1], payload[2])
        else:
            fail_or_retry(
                name, attempt, "WorkerCrash",
                f"worker exited with code {process.exitcode} "
                "without reporting a result",
            )

    try:
        while pending or running:
            now = time.monotonic()
            # Launch ready tasks into free slots.
            for task in sorted(pending, key=lambda item: item[2]):
                if len(running) >= jobs:
                    break
                name, attempt, ready_at = task
                if ready_at > now:
                    continue
                pending.remove(task)
                recv_conn, send_conn = ctx.Pipe(duplex=False)
                process = ctx.Process(
                    target=_worker_entry,
                    args=(send_conn, name, seed, scale),
                    name=f"repro-exp-{name}",
                )
                process.start()
                send_conn.close()  # parent keeps only the read end
                running[name] = (process, recv_conn, attempt, time.monotonic())
            if not running:
                # Every remaining task is backing off; sleep to the next.
                wake = min(ready_at for _, _, ready_at in pending)
                time.sleep(max(0.0, wake - time.monotonic()))
                continue
            # Reap finished, crashed, or hung workers.
            progressed = False
            for name in list(running):
                process, conn, attempt, started = running[name]
                if conn.poll(0) or not process.is_alive():
                    reap(name)
                    progressed = True
                elif (
                    timeout is not None
                    and time.monotonic() - started > timeout
                ):
                    process.terminate()
                    process.join(5.0)
                    if process.is_alive():  # pragma: no cover - stuck in D
                        process.kill()
                        process.join()
                    running.pop(name)
                    conn.close()
                    fail_or_retry(
                        name, attempt, "TimeoutError",
                        f"no result within {timeout:g}s; worker terminated",
                    )
                    progressed = True
            if not progressed:
                time.sleep(0.02)
    finally:
        # Interrupt or internal error: leave no orphaned workers behind.
        for process, conn, _, _ in running.values():
            process.terminate()
            conn.close()
        for process, _, _, _ in running.values():
            process.join(5.0)
            if process.is_alive():  # pragma: no cover - stuck in D state
                process.kill()
                process.join()


def _run_sequential(
    names: list[str], seed: int, scale: float, book: _Bookkeeping
) -> None:
    """In-process execution: fastest path, shares warm dataset caches.

    Exceptions are collected per experiment (with inline backoff and
    retries) so one broken experiment cannot abort the sweep;
    ``KeyboardInterrupt`` propagates so the caller can checkpoint.
    """
    for name in names:
        for attempt in itertools.count(1):
            started = time.monotonic()
            try:
                result = _run_experiment_instrumented(name, seed, scale)
            except Exception as exc:  # noqa: BLE001 - collected as record
                delay = book.failed(
                    name, attempt, type(exc).__name__,
                    traceback.format_exc()[-_TRACEBACK_LIMIT:],
                )
                if delay is None:
                    break
                time.sleep(delay)
            else:
                book.succeeded(name, result, started)
                break


def _run_many(
    names: list[str],
    seed: int,
    scale: float,
    jobs: int = 1,
    verbose: bool = True,
    timeout: float | None = None,
    retries: int = 0,
    backoff: float = 1.0,
    precomputed: dict[str, ExperimentResult] | None = None,
    on_complete=None,
) -> list[ExperimentResult | ExperimentFailure]:
    """Run the named experiments; return outcomes in the given order.

    *precomputed* results (from a resume checkpoint) are reused
    verbatim.  *on_complete(name, outcome)* fires after every finished
    experiment -- the checkpoint hook.  Timeouts require process
    isolation, so ``timeout`` forces the process-per-experiment engine
    even at ``jobs=1``.
    """
    book = _Bookkeeping(
        retries, backoff, verbose,
        on_complete or (lambda name, outcome: None),
    )
    precomputed = precomputed or {}
    todo = [name for name in names if name not in precomputed]
    started = time.monotonic()
    if todo and (jobs > 1 or timeout is not None):
        _run_isolated(todo, seed, scale, max(1, jobs), timeout, book)
        if verbose:
            print(
                f"{len(todo)} experiments in "
                f"{time.monotonic() - started:.1f}s across "
                f"{max(1, jobs)} workers",
                file=sys.stderr,
            )
    elif todo:
        _run_sequential(todo, seed, scale, book)
    return [
        precomputed[name] if name in precomputed else book.outcomes[name]
        for name in names
    ]


# ---- reporting --------------------------------------------------------


def comparison_table(result: ExperimentResult) -> str:
    """Render the metric-vs-paper comparison for one experiment."""
    if not result.paper_values:
        return ""
    lines = ["", "| metric | ours | paper |", "|---|---|---|"]
    for key, paper_value in result.paper_values.items():
        ours = result.metrics.get(key)
        ours_text = f"{ours:,.2f}" if ours is not None else "-"
        lines.append(f"| {key} | {ours_text} | {paper_value:,.2f} |")
    return "\n".join(lines)


def export_series(results, directory: str) -> list[str]:
    """Write every figure's backing series as CSV files.

    One file per experiment (``figure04.csv`` etc.), long format:
    ``series,x,y`` -- directly plottable with any tool.  Returns the
    paths written.  Failure records carry no series and are skipped.
    """
    import csv

    os.makedirs(directory, exist_ok=True)
    written: list[str] = []
    for result in results:
        if isinstance(result, ExperimentFailure) or not result.series:
            continue
        path = os.path.join(directory, f"{result.experiment_id}.csv")
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["series", "x", "y"])
            for name, points in result.series.items():
                for x, y in points:
                    writer.writerow([name, f"{x:g}", f"{y:g}"])
        written.append(path)
    return written


def render_report(results, seed: int, scale: float) -> str:
    sections = [HEADER.format(seed=seed, scale=scale)]
    for result in results:
        sections.append(result.render())
        if not isinstance(result, ExperimentFailure):
            sections.append(comparison_table(result))
        sections.append("")
    return "\n".join(sections)


# ---- CLI --------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_dataset_arguments(parser, scale=1.0, dataset=False)
    parser.add_argument("--out", default="EXPERIMENTS.md")
    parser.add_argument(
        "--only", nargs="*", default=None,
        help="run only the named experiments (e.g. table2 figure04)",
    )
    parser.add_argument(
        "--series-dir", default=None,
        help="also export every figure's backing series as CSV files",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="run experiments across N worker processes (each warms its "
             "own caches; the on-disk trace cache is shared)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="bound each experiment attempt to this many seconds "
             "(forces one process per experiment, even at --jobs 1)",
    )
    parser.add_argument(
        "--retries", type=int, default=1,
        help="retry a failed experiment up to N extra times with "
             "exponential backoff (default 1)",
    )
    parser.add_argument(
        "--backoff", type=float, default=1.0,
        help="backoff before the first retry, in seconds; doubles "
             "per attempt (default 1.0)",
    )
    parser.add_argument(
        "--checkpoint", default=None,
        help="checkpoint file recording finished experiments "
             "(default: <out>.checkpoint.json)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="reuse results from the checkpoint file, recomputing only "
             "unfinished experiments",
    )
    add_telemetry_argument(parser)
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.retries < 0:
        parser.error("--retries must be >= 0")
    if args.timeout is not None and args.timeout <= 0:
        parser.error("--timeout must be positive")
    if args.backoff < 0:
        parser.error("--backoff must be >= 0")

    names = args.only if args.only else list(ALL_EXPERIMENTS)
    unknown = set(names) - set(ALL_EXPERIMENTS)
    if unknown:
        parser.error(f"unknown experiments: {sorted(unknown)}")

    checkpoint_path = (
        args.checkpoint
        if args.checkpoint is not None
        else f"{args.out}.checkpoint.json"
    )
    precomputed: dict[str, ExperimentResult] = {}
    if args.resume:
        precomputed = {
            name: result
            for name, result in load_checkpoint(
                checkpoint_path, args.seed, args.scale
            ).items()
            if name in names
        }
        if precomputed:
            print(
                f"resuming: {len(precomputed)}/{len(names)} experiments "
                f"from {checkpoint_path}",
                file=sys.stderr,
            )

    completed: dict[str, ExperimentResult] = dict(precomputed)
    failed: dict[str, ExperimentFailure] = {}

    def on_complete(name: str, outcome) -> None:
        if isinstance(outcome, ExperimentFailure):
            failed[name] = outcome
        else:
            completed[name] = outcome
        save_checkpoint(checkpoint_path, args.seed, args.scale, completed, failed)

    # SIGTERM takes the same graceful path as Ctrl-C (CI and batch
    # schedulers kill with TERM).  Restore the old handler on the way
    # out: main() may be called in-process by tests or notebooks.
    previous_sigterm = None
    try:
        previous_sigterm = signal.signal(
            signal.SIGTERM,
            lambda signum, frame: (_ for _ in ()).throw(KeyboardInterrupt()),
        )
    except ValueError:  # pragma: no cover - non-main thread
        pass

    with run_scope(
        "runner", args.telemetry, seed=args.seed, scale=args.scale,
        arguments={"experiments": list(names), "jobs": args.jobs,
                   "out": args.out},
    ):
        try:
            results = _run_many(
                names,
                args.seed,
                args.scale,
                jobs=args.jobs,
                timeout=args.timeout,
                retries=args.retries,
                backoff=args.backoff,
                precomputed=precomputed,
                on_complete=on_complete,
            )
        except KeyboardInterrupt:
            save_checkpoint(
                checkpoint_path, args.seed, args.scale, completed, failed
            )
            done = [name for name in names if name in completed]
            remaining = [
                name for name in names
                if name not in completed and name not in failed
            ]
            print(
                f"\ninterrupted: {len(done)}/{len(names)} experiments "
                f"finished ({', '.join(done) if done else 'none'})",
                file=sys.stderr,
            )
            print(
                f"checkpoint saved to {checkpoint_path}; rerun with "
                f"--resume to finish {len(remaining)} remaining",
                file=sys.stderr,
            )
            return 130
        finally:
            if previous_sigterm is not None:
                signal.signal(signal.SIGTERM, previous_sigterm)
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(render_report(results, args.seed, args.scale))
    if args.series_dir:
        written = export_series(results, args.series_dir)
        print(f"wrote {len(written)} CSV series files to {args.series_dir}",
              file=sys.stderr)
    print(f"wrote {args.out}", file=sys.stderr)
    failures = [r for r in results if isinstance(r, ExperimentFailure)]
    if failures:
        print(
            f"{len(failures)} experiment(s) failed: "
            + ", ".join(f.experiment_id for f in failures),
            file=sys.stderr,
        )
        return 1
    # A clean, complete run needs no resume state.
    try:
        os.unlink(checkpoint_path)
    except OSError:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
