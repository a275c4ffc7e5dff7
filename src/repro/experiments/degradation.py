"""Degradation sweep: completeness under measurement failure.

The paper assumes a perfect observer; its own infrastructure was not
one (LANDER drops packets under load, the peering-link monitors went
down for maintenance, probe responses vanish into firewalls).  This
experiment quantifies how sensitive the completeness results are to
that gap: it sweeps a grid of capture-loss rates and outage fractions,
rebuilds the measurement under each :class:`~repro.faults.plan.FaultPlan`,
and reports how much of the baseline discovery each degraded observer
retains.

Axes
----
* ``loss_rate`` -- i.i.d. capture loss at the taps *and* per-probe
  transmission loss (SYN out, SYN-ACK/RST back) for the scanner, so
  both methods degrade along the same axis.
* ``outage_fraction`` -- scheduled monitor outage windows per peering
  link, and the same fraction of prober-machine downtime per sweep.

Every sweep point derives its fault seed from the master seed and its
own coordinates, so a fixed ``(seed, loss-rate)`` plan produces
identical output across runs and across ``--jobs 1`` vs ``--jobs N``
(the points are independent and individually deterministic).

Usage::

    python -m repro degradation [DATASET] --scale 0.1 \
        --loss-rates 0 0.05 0.2 --outage-fractions 0 0.25 --jobs 4

Not part of ``ALL_EXPERIMENTS``: the standard report must stay
byte-identical to a fault-free run, so the degradation study is its
own command rather than a new EXPERIMENTS.md section.
"""

from __future__ import annotations

import argparse
import functools
from dataclasses import dataclass, field

from repro.core.report import TextTable
from repro.experiments.common import percent
from repro.experiments.runner import ExperimentFailure, fork_each
from repro.faults.plan import FaultPlan
from repro.simkernel.rng import derive_seed

DEFAULT_DATASET = "DTCPall"
DEFAULT_LOSS_RATES = (0.0, 0.01, 0.05, 0.1, 0.2, 0.4)
DEFAULT_OUTAGE_FRACTIONS = (0.0, 0.1, 0.25)


@dataclass(frozen=True)
class DegradationPoint:
    """Discovery under one fault configuration."""

    loss_rate: float
    outage_fraction: float
    records_seen: int
    records_dropped: int
    passive_addresses: int
    active_addresses: int
    union_addresses: int

    @property
    def capture_drop_pct(self) -> float:
        return percent(self.records_dropped, self.records_seen)


@dataclass
class DegradationResult:
    """The whole sweep plus its fault-free baseline."""

    dataset: str
    seed: int
    scale: float
    baseline: DegradationPoint
    points: list[DegradationPoint] = field(default_factory=list)

    def retained_pct(self, point: DegradationPoint) -> tuple[float, float, float]:
        """(passive, active, union) retention vs the baseline, in %."""
        return (
            percent(point.passive_addresses, self.baseline.passive_addresses),
            percent(point.active_addresses, self.baseline.active_addresses),
            percent(point.union_addresses, self.baseline.union_addresses),
        )

    def series(self) -> dict[str, list[tuple[float, float]]]:
        """Retention curves keyed by method and outage fraction."""
        out: dict[str, list[tuple[float, float]]] = {}
        for point in self.points:
            passive, active, union = self.retained_pct(point)
            suffix = f"outage={point.outage_fraction:g}"
            out.setdefault(f"passive {suffix}", []).append(
                (point.loss_rate, passive)
            )
            out.setdefault(f"active {suffix}", []).append(
                (point.loss_rate, active)
            )
            out.setdefault(f"union {suffix}", []).append((point.loss_rate, union))
        return out


def _plan_for_point(
    seed: int, loss_rate: float, outage_fraction: float
) -> FaultPlan | None:
    """The sweep point's fault plan (None at the fault-free origin).

    The plan seed folds in the point's coordinates, so neighbouring
    points fail independently rather than replaying one loss pattern
    at different rates.
    """
    if loss_rate == 0.0 and outage_fraction == 0.0:
        return None
    return FaultPlan(
        seed=derive_seed(
            seed, f"degradation.{loss_rate!r}.{outage_fraction!r}"
        ),
        capture_loss_rate=loss_rate,
        outage_fraction=outage_fraction,
        probe_loss_rate=loss_rate,
        response_loss_rate=loss_rate,
        prober_downtime_fraction=outage_fraction,
    )


def measure_point(
    dataset_name: str,
    seed: int,
    scale: float,
    loss_rate: float,
    outage_fraction: float,
) -> DegradationPoint:
    """Build and measure one sweep point (self-contained; fork-safe)."""
    from repro.datasets.builder import build_dataset
    from repro.passive.monitor import PassiveServiceTable

    plan = _plan_for_point(seed, loss_rate, outage_fraction)
    dataset = build_dataset(dataset_name, seed=seed, scale=scale, faults=plan)
    table = PassiveServiceTable(
        is_campus=dataset.is_campus,
        tcp_ports=dataset.tcp_ports,
        udp_ports=dataset.udp_ports,
        links=frozenset(dataset.spec.monitored_links),
    )
    capture = plan.capture_filter(dataset.duration) if plan is not None else None
    kept = dataset.replay(table, faults=capture)
    if capture is not None:
        seen = capture.stats.seen
        dropped = capture.stats.dropped
    else:
        seen, dropped = kept, 0
    passive = table.server_addresses()
    active = dataset.active_addresses()
    return DegradationPoint(
        loss_rate=loss_rate,
        outage_fraction=outage_fraction,
        records_seen=seen,
        records_dropped=dropped,
        passive_addresses=len(passive),
        active_addresses=len(active),
        union_addresses=len(passive | active),
    )


def run_degradation(
    dataset: str = DEFAULT_DATASET,
    seed: int = 0,
    scale: float = 1.0,
    loss_rates: tuple[float, ...] = DEFAULT_LOSS_RATES,
    outage_fractions: tuple[float, ...] = DEFAULT_OUTAGE_FRACTIONS,
    jobs: int = 1,
) -> DegradationResult:
    """Sweep the fault grid; return every point plus the baseline.

    With ``jobs > 1`` each point runs in its own forked child
    (:func:`repro.experiments.runner.fork_each`); a point that raises or
    whose child dies fails the sweep with an error naming the point.
    Points are independent and individually deterministic, and results
    (and each child's metrics) merge in grid order, so the output is
    identical at any job count.
    """
    if not loss_rates:
        raise ValueError("need at least one loss rate")
    if not outage_fractions:
        raise ValueError("need at least one outage fraction")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    grid = [
        (loss, outage)
        for outage in outage_fractions
        for loss in loss_rates
    ]
    tasks = [(0.0, 0.0)] + grid  # the baseline is always measured
    if jobs == 1:
        measured = [
            measure_point(dataset, seed, scale, loss, outage)
            for loss, outage in tasks
        ]
    else:
        measured = [None] * len(tasks)

        def done(index: int, outcome) -> None:
            if isinstance(outcome, ExperimentFailure):
                loss, outage = tasks[index]
                raise RuntimeError(
                    f"degradation point (loss_rate={loss:g}, "
                    f"outage_fraction={outage:g}) failed: "
                    f"{outcome.error_type}\n{outcome.message}"
                )
            measured[index] = outcome

        fork_each(
            [(f"degradation-{index}", functools.partial(
                measure_point, dataset, seed, scale, loss, outage))
             for index, (loss, outage) in enumerate(tasks)],
            jobs, done,
        )
    return DegradationResult(
        dataset=dataset,
        seed=seed,
        scale=scale,
        baseline=measured[0],
        points=measured[1:],
    )


def degradation_report(result: DegradationResult) -> str:
    """Render the sweep as a Markdown table."""
    table = TextTable(
        title=(
            f"Degradation sweep: {result.dataset} "
            f"(seed {result.seed}, scale {result.scale:g}) -- "
            f"baseline {result.baseline.passive_addresses} passive / "
            f"{result.baseline.active_addresses} active / "
            f"{result.baseline.union_addresses} union servers"
        ),
        headers=[
            "Loss rate", "Outage", "Headers dropped",
            "Passive", "Active", "Union",
        ],
    )
    for point in result.points:
        passive, active, union = result.retained_pct(point)
        table.add_row(
            f"{point.loss_rate:g}",
            f"{point.outage_fraction:g}",
            f"{point.capture_drop_pct:.1f}%",
            f"{point.passive_addresses} ({passive:.1f}%)",
            f"{point.active_addresses} ({active:.1f}%)",
            f"{point.union_addresses} ({union:.1f}%)",
        )
    table.add_note(
        "Percentages are retention versus the fault-free baseline. "
        "Loss applies to captured headers and to probe/response "
        "transmissions; the outage fraction darkens each peering-link "
        "monitor and one scanning machine for the same share of time."
    )
    return table.render()


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the arguments of ``python -m repro degradation``."""
    from repro.cli import (
        add_dataset_arguments,
        add_out_argument,
        add_telemetry_argument,
    )

    add_dataset_arguments(parser, scale=1.0, default=DEFAULT_DATASET)
    parser.add_argument(
        "--loss-rates", type=float, nargs="+",
        default=list(DEFAULT_LOSS_RATES), metavar="RATE",
    )
    parser.add_argument(
        "--outage-fractions", type=float, nargs="+",
        default=list(DEFAULT_OUTAGE_FRACTIONS), metavar="FRACTION",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="measure each sweep point in its own forked child, N at a time",
    )
    add_out_argument(parser)
    add_telemetry_argument(parser)


def run_from_args(args: argparse.Namespace) -> int:
    """``python -m repro degradation``: sweep, print, export."""
    from repro.cli import UsageError, print_report
    from repro.telemetry import run_scope, span

    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1 (got {args.jobs})")
    with run_scope(
        "degradation", args.telemetry,
        dataset=args.dataset, seed=args.seed, scale=args.scale,
        arguments={
            "loss_rates": list(args.loss_rates),
            "outage_fractions": list(args.outage_fractions),
            "jobs": args.jobs,
        },
    ):
        with span("degradation"):
            result = run_degradation(
                dataset=args.dataset,
                seed=args.seed,
                scale=args.scale,
                loss_rates=tuple(args.loss_rates),
                outage_fractions=tuple(args.outage_fractions),
                jobs=args.jobs,
            )
        print_report(args, degradation_report(result))
    return 0
