"""Smoke test of the benchmark itself: ``pytest bench -q``.

Not in the tier-1 ``testpaths``.  Runs every workload and the traced
layer run once at a tiny scale with two fixed passes and checks the
shape of what they print, not the numbers.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE = ["--scale", "0.02", "--passes", "2", "--seed", "0"]


def run_bench(*extra: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *SMOKE, *extra],
        stdout=subprocess.PIPE, text=True, timeout=180, check=True,
    )
    return json.loads(done.stdout.rstrip("\n").rsplit("\n", 1)[-1])


def assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {entry["name"] for entry in declared}
    for entry in declared:
        measured = result["metrics"][entry["name"]]
        assert measured["unit"] == entry["unit"], entry["name"]
        assert math.isfinite(measured["value"]), entry["name"]


@pytest.mark.parametrize(
    "workload", [entry["name"] for entry in CONTRACT["workloads"]]
)
def test_workload_reports_every_end_to_end_metric(workload):
    started = time.monotonic()
    result = run_bench("--workload", workload, "--trace", "0")
    assert_metrics(result, CONTRACT["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # Three preparations of ~3 s dominate; well under the driver's 180 s.
    assert time.monotonic() - started < 120


def test_traced_run_reports_every_layer_and_nests_its_spans():
    result = run_bench("--workload", "stream_clean", "--trace", "1")
    assert_metrics(result, CONTRACT["per_layer"])
    lines = (BENCH / "out" / "spans-stream_clean.jsonl").read_text().splitlines()
    spans = [json.loads(line) for line in lines]
    assert [span["id"] for span in spans] == list(range(len(spans)))
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
            assert parent["pass"] == span["pass"]


def test_run_leaves_only_the_out_directory_behind():
    run_bench("--workload", "stream_clean")
    left = {path.name for path in (BENCH / "out").iterdir()}
    assert not {name for name in left if name.startswith("run-")}


def test_no_result_without_the_program(tmp_path):
    """In a directory holding only the benchmark: non-zero, no JSON."""
    for name in ("run.py", "harness.py", "workloads.py", "layers.py",
                 "serve_child.py"):
        (tmp_path / "bench").mkdir(exist_ok=True)
        (tmp_path / "bench" / name).write_bytes((BENCH / name).read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes(
        (BENCH.parent / "BENCHMARK.json").read_bytes()
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "stream_clean"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert done.returncode != 0
    assert done.stdout == ""
