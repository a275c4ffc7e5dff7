"""Seed-sweep robustness analysis.

A reproduction built on a synthetic population should say how much its
numbers wobble across realisations.  :func:`seed_sweeps` reruns
experiments over several master seeds and aggregates every metric into
a :class:`MetricSpread` (median / mean / standard deviation / extremes
over the seeds where it was finite).  The fidelity ledger
(:mod:`repro.experiments.fidelity`) judges the paper's shape targets
against these spreads; ``python -m repro.experiments.fidelity`` is the
command line.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.experiments import ABLATIONS, ALL_EXPERIMENTS
from repro.experiments.common import ExperimentResult, clear_caches
from repro.experiments.runner import run_experiment


@dataclass(frozen=True)
class MetricSpread:
    """Distribution of one metric over a seed sweep."""

    name: str
    values: tuple[float, ...]

    @property
    def finite(self) -> list[float]:
        """The values every statistic below is taken over."""
        return [v for v in self.values if math.isfinite(v)]

    @property
    def mean(self) -> float:
        finite = self.finite
        return sum(finite) / len(finite) if finite else float("nan")

    @property
    def median(self) -> float:
        finite = self.finite
        return statistics.median(finite) if finite else float("nan")

    @property
    def minimum(self) -> float:
        return min(self.finite, default=float("nan"))

    @property
    def maximum(self) -> float:
        return max(self.finite, default=float("nan"))


@dataclass
class SweepResult:
    """All metric spreads of one experiment across seeds."""

    experiment_id: str
    seeds: tuple[int, ...]
    scale: float
    spreads: dict[str, MetricSpread] = field(default_factory=dict)
    paper_values: dict[str, float] = field(default_factory=dict)


def seed_sweeps(
    experiment_names: Iterable[str],
    seeds: tuple[int, ...],
    scale: float = 1.0,
    run: Callable[[str, int, float], ExperimentResult] = run_experiment,
) -> dict[str, SweepResult]:
    """Run each experiment once per seed and aggregate its metrics.

    Seeds are the outer loop, so experiments sharing a dataset share
    its build and trace passes, and the in-process caches are dropped
    after every seed (five paper-scale seeds kept warm hold 1.5 GB).  A
    metric an experiment did not return at some seed reads NaN there.
    """
    names = tuple(experiment_names)
    for name in names:
        if name not in ALL_EXPERIMENTS + ABLATIONS:
            raise KeyError(
                f"unknown experiment {name!r}; known: "
                f"{ALL_EXPERIMENTS + ABLATIONS}"
            )
    if not seeds:
        raise ValueError("need at least one seed")
    results: dict[str, dict[int, ExperimentResult]] = {name: {} for name in names}
    for seed in seeds:
        for name in names:
            results[name][seed] = run(name, seed, scale)
        clear_caches()
    sweeps = {}
    for name, per_seed in results.items():
        metrics = sorted({m for result in per_seed.values() for m in result.metrics})
        sweeps[name] = SweepResult(
            experiment_id=name,
            seeds=tuple(seeds),
            scale=scale,
            spreads={
                metric: MetricSpread(
                    name=metric,
                    values=tuple(
                        per_seed[seed].metrics.get(metric, float("nan"))
                        for seed in seeds
                    ),
                )
                for metric in metrics
            },
            paper_values=dict(per_seed[seeds[-1]].paper_values),
        )
    return sweeps
