#!/usr/bin/env python3
"""The repo benchmark: six workloads end to end, and a traced layer run.

    python3 bench/run.py                          every workload, one process each
    python3 bench/run.py --workload stream_clean  one workload
    python3 bench/run.py --trace                  the per-layer run
    python3 bench/run.py --check-repeat           two sets, differences vs bounds

Prints every metric by name with its unit, checks outputs against the
batch oracle, and ends with one JSON object on the last line of stdout
(``correct``, ``attempted``, ``failed``, ``metrics``) -- the form
``BENCHMARK.json``'s contract asks for.  ``bench/README.md`` says what
each workload and metric is for.  Seed 0 is the development seed; seed 1
is held out for claims.
"""

from __future__ import annotations

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402 - the clock above must start first
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import workloads  # noqa: E402

WORKLOAD_NAMES = tuple(workloads.WORKLOADS)

#: The issue's name for each (metric, workload) pair.  The contract
#: wants every end-to-end metric on every workload, so BENCHMARK.json
#: carries five uniform names; these are what they mean per workload.
ALIASES = {
    ("records_per_s", "serve_live"): "serve_ingest_records_per_s",
    ("op_per_s", "serve_live"): "query_per_s",
    ("op_latency_ms", "serve_live"): "query_p99_ms",
    ("op_latency_ms", "survey_cold"): "survey_cold_s x 1000",
    **{
        ("records_per_s", name): "stream_records_per_s"
        for name in WORKLOAD_NAMES if name.startswith(("stream_", "fabric_"))
    },
}


def run_workload(args) -> dict:
    """One workload (or the layer run) in this process; the result dict."""
    with harness.scratch_dir() as scratch:
        ctx = workloads.Context(
            scratch=scratch, seed=args.seed, scale=args.scale,
            seconds=args.seconds, passes=args.passes,
            process_start=PROCESS_START, reference=harness.Reference(),
        )
        if args.trace:
            import layers

            return layers.run(ctx, args.workload or "layers")
        outcome = workloads.WORKLOADS[args.workload](ctx)
        metrics = outcome.metrics()
    q1, q2, q3 = harness.quartiles(outcome.walls)
    r1, r2, r3 = harness.quartiles(outcome.raw_walls)
    print(
        f"{args.workload}: {len(outcome.walls)} passes of "
        f"{outcome.records:,} records; pass wall quartiles at nominal speed "
        f"{q1:.4f} / {q2:.4f} / {q3:.4f} s, as clocked "
        f"{r1:.4f} / {r2:.4f} / {r3:.4f} s; set-up as clocked "
        f"{outcome.raw_setup_s:.3f} s; notes {json.dumps(outcome.notes)}"
    )
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def print_metrics(workload: str, result: dict) -> None:
    for name, entry in result["metrics"].items():
        alias = ALIASES.get((name, workload))
        samples = entry.get("samples")
        print(
            f"  {name:<44} {entry['value']:>16.4f} {entry['unit']:<6}"
            + (f" n={samples}" if samples is not None else "")
            + (f"  ({alias})" if alias else "")
        )
    share = result["failed"] / result["attempted"]
    print(f"  {'failed_share':<44} {share:>16.4f} {'':<6} "
          f"n={result['attempted']}")


def contract_line(result: dict) -> str:
    """The last line of stdout: exactly the keys the contract names."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in result["metrics"].items()
        },
    })


def spawn(workload: str, args, seed: int, quiet: bool = False) -> dict:
    """Run one workload in its own process (its own peak RSS, its own
    preparation, so no result depends on what ran before it)."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--seconds", str(args.seconds),
        "--scale", repr(args.scale),
    ]
    if args.passes is not None:
        command += ["--passes", str(args.passes)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} exited {done.returncode}")
    *report, last = done.stdout.rstrip("\n").split("\n")
    if not quiet:
        print("\n".join(report))
    return json.loads(last)


def measure_set(args) -> dict[tuple[str, str], list[float]]:
    """``--runs`` runs of every workload, seeds ``--seed`` upwards."""
    values: dict[tuple[str, str], list[float]] = {}
    for run in range(args.runs):
        for workload in WORKLOAD_NAMES:
            result = spawn(workload, args, args.seed + run, quiet=True)
            if not result["correct"]:
                raise RuntimeError(
                    f"{workload} seed {args.seed + run}: "
                    f"{result['failed']} of {result['attempted']} operations failed"
                )
            for name, entry in result["metrics"].items():
                values.setdefault((name, workload), []).append(entry["value"])
    return values


def check_repeat(args) -> int:
    """Two sets of the same code, the way the driver judges the benchmark.

    Per (metric, workload): both sets' medians, their relative
    difference beside the metric's bound and, from four runs a set up,
    the wider of the two sets' quartile spreads as a share of the
    median.  Non-zero exit when a difference exceeds its bound, or a
    spread does (``setup_s``'s spread is reported, not judged).
    """
    bounds = {m["name"]: m["bound"] for m in harness.load_contract()["end_to_end"]}
    sets = []
    for which in (1, 2):
        print(f"set {which} of 2: {args.runs} run(s) of each workload ...", flush=True)
        sets.append(measure_set(args))
    over = 0
    print(f"{'metric':<14} {'workload':<15} {'set 1':>14} {'set 2':>14} "
          f"{'diff':>7} {'spread':>7} {'bound':>6}")
    for metric, workload in sorted(sets[0]):
        first, second = (harness.median(s[metric, workload]) for s in sets)
        diff = abs(second - first) / first
        spread = None
        if args.runs >= 4:
            spread = max(
                (q3 - q1) / q2
                for q1, q2, q3 in (harness.quartiles(s[metric, workload]) for s in sets)
            )
        bound = bounds[metric]
        bad = diff > bound or (
            spread is not None and metric != "setup_s" and spread > bound
        )
        over += bad
        print(
            f"{metric:<14} {workload:<15} {first:>14.4f} {second:>14.4f} "
            f"{diff:>7.3f} " + (f"{spread:>7.3f}" if spread is not None else f"{'-':>7}")
            + f" {bound:>6.2f}" + ("  OVER" if bad else "")
        )
    return 1 if over else 0


def main(argv: list[str] | None = None) -> int:
    harness.require_source()
    contract = harness.load_contract()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None)
    parser.add_argument("--seed", type=int, default=0,
                        help="dataset, fault-plan, probe and query-mix seed")
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"],
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="run the traced per-layer stages")
    parser.add_argument("--scale", type=float, default=harness.DEFAULT_SCALE,
                        help="population scale of every input")
    parser.add_argument("--passes", type=int, default=None,
                        help="fixed number of timed passes (smoke test)")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run two full sets and compare them")
    parser.add_argument("--runs", type=int, default=3,
                        help="runs of each workload per set for --check-repeat "
                             "(the driver uses 10)")
    args = parser.parse_args(argv)

    if args.check_repeat:
        return check_repeat(args)
    if args.workload is None and not args.trace:
        # Every workload, one process each; each prints its own metrics.
        results = {name: spawn(name, args, args.seed) for name in WORKLOAD_NAMES}
        harness.OUT.mkdir(exist_ok=True)
        (harness.OUT / "results.json").write_text(
            json.dumps(results, indent=2) + "\n", encoding="utf-8"
        )
        print(json.dumps(results))
        return 0
    result = run_workload(args)
    print_metrics(args.workload or "layers", result)
    print(contract_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
