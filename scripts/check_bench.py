#!/usr/bin/env python
"""Perf regression gate: fresh benchmark run vs the committed baseline.

Runs ``record_bench.py`` fresh (same dataset/scale/seed the committed
``BENCH_baseline.json`` was recorded under, unless overridden) and
compares every throughput figure -- scalar and columnar replay,
scalar and columnar streaming ingest, the online-probing stream
(``stream_online_probe``), the process fabric (``stream_fabric``),
and the live query service's ``queries_per_sec``
(``query_service``) -- against the baseline.
The check fails when any figure drops below
``baseline * (1 - tolerance)``; improvements and small wobbles pass
silently.  On top of the baseline comparison, rows are *ratcheted*
against other rows of the same fresh run: columnar replay and ingest
must each stay at least 5x their scalar counterparts, so the vectorised
fast paths cannot silently decay into per-record decoding, and the
online-probing stream must stay at least 0.1x the probe-free columnar
stream, so probe dispatch cannot decay into a per-probe loop.

Absolute throughput is machine-dependent, so the tolerance exists to
absorb runner noise, not to excuse regressions: CI uses a wide band to
stay green across heterogeneous runners, while a quiet dev box can run
with the default 20% band from the ROADMAP's perf-gating item.

Usage::

    PYTHONPATH=src python scripts/check_bench.py
        [--baseline BENCH_baseline.json] [--tolerance 0.2]
        [--dataset NAME] [--scale X] [--seed N] [--repeats N]
        [--fresh PATH]   # compare an existing run instead of benching
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

#: (section, metric) pairs gated against the baseline.
GATED = (
    ("replay", "records_per_sec"),
    ("replay_columnar", "records_per_sec"),
    ("stream", "records_per_sec"),
    ("stream_columnar", "records_per_sec"),
    ("stream_online_probe", "records_per_sec"),
    ("stream_fabric", "records_per_sec"),
    ("query_service", "queries_per_sec"),
)

#: (section, reference section, minimum ratio) ratchets: the fresh
#: run's throughput in the first must stay at least this many times
#: the second's.  Both figures come from the same run on the same
#: machine, so no tolerance band applies -- a columnar path that
#: degrades to scalar speed fails even when both rows beat the
#: baseline.
#:
#: ``stream_online_probe`` interleaves 864,000 heartbeat probes (rate 1
#: on port 80 of a /24 where 250 of 256 addresses are held, so nearly
#: every probe takes the index's full path) with the 123k-record
#: stream.  When the array pipeline landed (PR 12) nine runs on one
#: noisy box read 0.149-0.177x ``stream_columnar`` (0.156x in the run
#: whose row is the committed baseline), against 0.008x for the
#: per-probe loop it replaced.
RATCHETS = (
    ("replay_columnar", "replay", 5.0),
    ("stream_columnar", "stream", 5.0),
    ("stream_online_probe", "stream_columnar", 0.1),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline", default=str(REPO_ROOT / "BENCH_baseline.json")
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.2,
        help="allowed fractional drop before failing (0.2 = 20%%)",
    )
    parser.add_argument("--dataset", default=None,
                        help="override the baseline's benchmark dataset")
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--fresh", default=None,
        help="compare this record_bench output instead of running one",
    )
    args = parser.parse_args(argv)

    baseline_path = Path(args.baseline)
    try:
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"cannot read baseline {baseline_path}: {exc}", file=sys.stderr)
        return 2

    if args.fresh is not None:
        fresh = json.loads(Path(args.fresh).read_text(encoding="utf-8"))
    else:
        import record_bench

        bench_args = [
            "--dataset", args.dataset or baseline.get("dataset", "DTCPall"),
            "--scale", str(args.scale if args.scale is not None
                           else baseline.get("scale", 1.0)),
            "--seed", str(args.seed if args.seed is not None
                          else baseline.get("seed", 0)),
        ]
        if args.repeats is not None:
            bench_args += ["--repeats", str(args.repeats)]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "bench.json"
            status = record_bench.main(bench_args + ["--out", str(out)])
            if status != 0:
                print("record_bench failed; cannot gate", file=sys.stderr)
                return 2
            fresh = json.loads(out.read_text(encoding="utf-8"))

    failures = []
    for section, metric in GATED:
        base_value = baseline.get(section, {}).get(metric)
        fresh_value = fresh.get(section, {}).get(metric)
        if base_value is None:
            print(f"baseline has no {section}.{metric}; skipping")
            continue
        if fresh_value is None:
            failures.append(f"{section}.{metric}: missing from fresh run")
            continue
        floor = base_value * (1.0 - args.tolerance)
        delta_pct = 100.0 * (fresh_value - base_value) / base_value
        verdict = "ok" if fresh_value >= floor else "FAIL"
        unit = "q/s" if metric == "queries_per_sec" else "rec/s"
        print(f"{section}.{metric}: baseline {base_value:,.0f} {unit}, "
              f"fresh {fresh_value:,.0f} {unit} ({delta_pct:+.1f}%) "
              f"[floor {floor:,.0f}] {verdict}")
        if fresh_value < floor:
            failures.append(
                f"{section}.{metric} dropped {-delta_pct:.1f}% "
                f"(> {100.0 * args.tolerance:.0f}% tolerance)"
            )
    for fast_section, slow_section, minimum in RATCHETS:
        fast = fresh.get(fast_section, {}).get("records_per_sec")
        slow = fresh.get(slow_section, {}).get("records_per_sec")
        if fast is None or slow is None or not slow:
            failures.append(
                f"{fast_section} vs {slow_section}: missing from fresh run"
            )
            continue
        ratio = fast / slow
        verdict = "ok" if ratio >= minimum else "FAIL"
        print(f"{fast_section}: {ratio:.3g}x {slow_section} "
              f"[ratchet >= {minimum:g}x] {verdict}")
        if ratio < minimum:
            failures.append(
                f"{fast_section} is only {ratio:.3g}x {slow_section} "
                f"(ratchet requires >= {minimum:g}x)"
            )
    if failures:
        for failure in failures:
            print(f"perf regression: {failure}", file=sys.stderr)
        return 1
    print("bench gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
