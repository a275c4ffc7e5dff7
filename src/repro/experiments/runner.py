"""Run every experiment and regenerate EXPERIMENTS.md.

Usage::

    python -m repro.experiments.runner [--scale 1.0] [--seed 0]
        [--jobs N] [--resume] [--out EXPERIMENTS.md]

At ``--scale 1.0`` the full paper-scale populations are simulated; the
whole suite costs a handful of trace passes (under a minute).  Smaller
scales are useful for smoke runs.

``--jobs 1`` runs the experiments in this process, sharing warm
dataset contexts.  ``--jobs N`` runs each one in its own forked child
(:func:`fork_each`, which ``degradation --jobs N`` uses too), at most N
at a time; all children share the on-disk record-once trace cache
(writes are atomic, so racing children are safe).  Results merge in
the original experiment order, so the report is byte-identical at any
``--jobs``.

An experiment is a pure function of ``(name, seed, scale)``, so it is
attempted once:

* one that raises (or, forked, dies) becomes a structured failure
  record in the report instead of aborting the remaining experiments;
* every finished experiment is written to a JSON checkpoint next to
  the report, and ``--resume`` reuses it so an interrupted run
  recomputes only unfinished experiments -- the final report is
  identical to an uninterrupted run;
* SIGINT/SIGTERM write the checkpoint, print what completed, and exit
  130 instead of dumping a traceback.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import multiprocessing.connection
import os
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable

from repro.cli import add_dataset_arguments, add_telemetry_argument
from repro.durable import write_atomic
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.common import ExperimentResult
from repro.telemetry.export import run_scope
from repro.telemetry.metrics import (
    MetricRegistry,
    registry as _telemetry_registry,
    set_registry,
)
from repro.telemetry.tracing import span as _span
from repro.trace.cache import default_trace_cache

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
    """Run one experiment under its span, counting and timing it."""
    reg = _telemetry_registry()
    started = time.perf_counter()
    with _span(name):
        result = run_experiment(name, seed, scale)
    elapsed = time.perf_counter() - started
    reg.counter(
        "repro_runner_experiments_total", "Experiments completed by the runner.",
    ).inc()
    reg.histogram(
        "repro_runner_experiment_seconds",
        "Wall-time distribution of individual experiments.",
    ).observe(elapsed)
    print(f"{name}: {elapsed:.1f}s", file=sys.stderr)
    return result


@dataclass
class ExperimentFailure:
    """A structured error record for one experiment that never finished.

    Takes the place of an :class:`ExperimentResult` in the report so a
    raising or crashed experiment is visible without taking the rest of
    the sweep down with it.  :func:`fork_each` reports any failed task
    this way.
    """

    experiment_id: str
    error_type: str
    message: str

    def render(self) -> str:
        return (
            f"## {self.experiment_id}: FAILED\n\n"
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
    a resume always reruns them.
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


# ---- the fork engine -------------------------------------------------


def _child(conn, name: str, task: Callable[[], object]) -> None:
    """Forked-child entry: run *task*, ship the outcome home.

    A forked child inherits the parent's telemetry registry *including
    its accumulated counts*; shipping that back would double-count every
    metric the parent already holds.  So an instrumented child swaps in
    a fresh registry first and ships only its own snapshot, which the
    parent merges.  Its trace-cache lookups go home the same way: the
    child exits without running the cache's atexit flush, so it ships
    the counts it added and the parent's flush writes them.
    """
    telemetry = _telemetry_registry().enabled
    if telemetry:
        set_registry(MetricRegistry(process=name))
    cache = default_trace_cache()
    before = cache.counts()

    def lookups() -> dict:
        return {
            field: count - before[field]
            for field, count in cache.counts().items()
        }

    try:
        value = task()
        snapshot = _telemetry_registry().snapshot() if telemetry else None
        conn.send(("ok", value, snapshot, lookups()))
    except BaseException as exc:  # noqa: BLE001 - isolate *any* task crash
        detail = traceback.format_exc()[-_TRACEBACK_LIMIT:]
        try:
            conn.send(("error", type(exc).__name__, detail, lookups()))
        except Exception:
            pass
    finally:
        conn.close()


def fork_each(
    tasks: list[tuple[str, Callable[[], object]]],
    jobs: int,
    done: Callable[[int, object], None],
) -> None:
    """Run each ``(name, task)`` in its own forked child, *jobs* at a time.

    ``done(i, outcome)`` fires in the parent as task *i* ends, in
    completion order: *outcome* is what the task returned, or an
    :class:`ExperimentFailure` -- the error type it raised plus the tail
    of its traceback, or ``WorkerCrash`` with the exit code of a child
    that died without answering.  A raising or crashing task cannot take
    the others down.  Each child runs under a fresh metric registry
    whose snapshot the parent merges, in task order, and the trace-cache
    lookups it made are added to the parent's counts.  On any way out (an
    error in *done*, Ctrl-C) every child still running is terminated and
    joined.
    """
    ctx = multiprocessing.get_context("fork")
    pending = list(enumerate(tasks))
    #: index -> (name, process, recv_conn)
    running: dict[int, tuple] = {}
    #: index -> metrics snapshot not yet merged (None: nothing to merge)
    snapshots: dict[int, dict | None] = {}
    merged = 0
    try:
        while pending or running:
            while pending and len(running) < jobs:
                index, (name, task) = pending.pop(0)
                recv_conn, send_conn = ctx.Pipe(duplex=False)
                process = ctx.Process(
                    target=_child, args=(send_conn, name, task),
                    name=f"repro-{name}",
                )
                process.start()
                send_conn.close()  # parent keeps only the read end
                running[index] = (name, process, recv_conn)
            multiprocessing.connection.wait(
                [conn for _, _, conn in running.values()]
                + [process.sentinel for _, process, _ in running.values()]
            )
            for index in list(running):
                name, process, conn = running[index]
                if not conn.poll(0) and process.is_alive():
                    continue
                try:
                    payload = conn.recv() if conn.poll(0) else None
                except EOFError:
                    payload = None
                conn.close()
                process.join()
                del running[index]
                snapshot = None
                if payload is None:
                    outcome = ExperimentFailure(
                        name, "WorkerCrash",
                        f"worker exited with code {process.exitcode} "
                        "without reporting a result",
                    )
                elif payload[0] == "ok":
                    outcome, snapshot = payload[1], payload[2]
                else:
                    outcome = ExperimentFailure(name, payload[1], payload[2])
                if payload is not None:
                    default_trace_cache().add_counts(payload[3])
                snapshots[index] = snapshot
                # Metrics merge in task order, so last-writer gauges read
                # as they would after an in-process run.
                while merged in snapshots:
                    snapshot = snapshots.pop(merged)
                    if snapshot is not None:
                        _telemetry_registry().merge_snapshot(snapshot)
                    merged += 1
                done(index, outcome)
    finally:
        for _, process, conn in running.values():
            process.terminate()
            conn.close()
        for _, process, _ in running.values():
            process.join(5.0)
            if process.is_alive():  # pragma: no cover - stuck in D state
                process.kill()
                process.join()


def _run_many(
    names: list[str],
    seed: int,
    scale: float,
    jobs: int = 1,
    precomputed: dict[str, ExperimentResult] | None = None,
    on_complete=None,
) -> list[ExperimentResult | ExperimentFailure]:
    """Run the named experiments; return outcomes in the given order.

    At ``jobs == 1`` they run in this process, sharing warm dataset
    contexts; otherwise :func:`fork_each` isolates each one.  Either way
    an experiment that raises (or, forked, dies) is one attempt and
    becomes a failure record.  *precomputed* results (from a resume
    checkpoint) are reused verbatim.  *on_complete(name, outcome)*
    fires after every finished experiment -- the checkpoint hook.
    """
    outcomes: dict = dict(precomputed or {})
    todo = [name for name in names if name not in outcomes]

    def finish(index: int, outcome) -> None:
        name = todo[index]
        if isinstance(outcome, ExperimentFailure):
            _telemetry_registry().counter(
                "repro_runner_failures_total",
                "Experiments that ended as a failure record.",
            ).inc()
            print(f"{name}: FAILED ({outcome.error_type})", file=sys.stderr)
        outcomes[name] = outcome
        if on_complete is not None:
            on_complete(name, outcome)

    if jobs == 1:
        for index, name in enumerate(todo):
            try:
                outcome = _run_experiment_instrumented(name, seed, scale)
            except Exception as exc:  # noqa: BLE001 - collected as record
                outcome = ExperimentFailure(
                    name, type(exc).__name__,
                    traceback.format_exc()[-_TRACEBACK_LIMIT:],
                )
            finish(index, outcome)
    elif todo:
        started = time.monotonic()
        fork_each(
            [(name, functools.partial(
                _run_experiment_instrumented, name, seed, scale))
             for name in todo],
            jobs, finish,
        )
        print(
            f"{len(todo)} experiments in {time.monotonic() - started:.1f}s "
            f"across {jobs} workers",
            file=sys.stderr,
        )
    return [outcomes[name] for name in names]


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
        help="run each experiment in its own forked child, N at a time "
             "(the on-disk trace cache is shared)",
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
