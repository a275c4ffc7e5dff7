"""Online probing study: heartbeat vs periodic vs passive-only.

The paper's active side is an offline artifact -- twelve-hourly sweep
reports computed at build time.  The online prober
(:mod:`repro.probe`) moves that work into the stream: probes dispatch
inside the engine's event loop and their evidence lands the moment
each completes.  This experiment asks what that buys, across probe
budgets, on two axes:

* **Completeness** -- how much of the ground-truth server population
  each configuration discovers (passive alone, and the union with each
  probing policy).  Ground truth is a deliberate simulator peek
  (:meth:`~repro.campus.population.CampusPopulation.ground_truth_endpoints`);
  the paper can only compare methods against each other, we can grade
  them absolutely.
* **Evidence freshness** -- how stale each discovered address's most
  recent evidence (passive last-seen or probe last-open) is at stream
  end.  The Heartbeat policy's continuous low-rate probing exists
  precisely to bound this staleness; the 12-hour sweep bounds it at
  half a day plus sweep length; passive-only is unbounded.

Every row is one :class:`~repro.stream.StreamEngine` run over the same
prebuilt dataset with a different ``probe_policy``/``probe_rate``, so
the comparison is apples-to-apples: identical packet stream, identical
passive table, only the active side varies.  Deterministic in
``(dataset, seed, scale, days, rates)`` -- no wall clock anywhere.

Usage::

    python -m repro online_probing [DATASET] --scale 0.05 --days 4 \
        --rates 0.05 0.2 1.0

Not part of ``ALL_EXPERIMENTS``: like ``degradation`` this is an
extension study (its completeness is graded against a ground-truth
peek the paper-reproduction experiments must not use), so it is its
own command rather than a new EXPERIMENTS.md headline table.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field

from repro.core.report import TextTable
from repro.experiments.common import percent

DEFAULT_DATASET = "DTCP1-18d"
DEFAULT_SCALE = 0.05
DEFAULT_DAYS = 4.0
DEFAULT_RATES = (0.05, 0.2, 1.0)
POLICIES = ("heartbeat", "periodic")


@dataclass(frozen=True)
class ProbingPoint:
    """One run's discovery and freshness outcome."""

    policy: str  # "passive", "heartbeat", or "periodic"
    rate: float  # probes per simulated second (0 for passive)
    probes_issued: int
    sweeps: int
    passive_addresses: int
    active_addresses: int
    union_addresses: int
    completeness_pct: float  # union vs ground truth
    freshness_mean_hours: float  # mean evidence age at stream end
    freshness_max_hours: float


@dataclass
class ProbingResult:
    """The whole comparison: passive baseline plus the policy grid."""

    dataset: str
    seed: int
    scale: float
    days: float
    truth_addresses: int
    baseline: ProbingPoint
    points: list[ProbingPoint] = field(default_factory=list)

    def rows(self) -> list[ProbingPoint]:
        return [self.baseline, *self.points]


def _truth_addresses(dataset) -> set[int]:
    """Ground-truth server addresses for the dataset's protocol."""
    from repro.net.packet import PROTO_TCP, PROTO_UDP

    population = dataset.population
    if dataset.tcp_ports is None or dataset.tcp_ports:
        endpoints = population.ground_truth_endpoints(PROTO_TCP)
    else:
        endpoints = population.ground_truth_endpoints(PROTO_UDP)
    return {address for address, _ in endpoints}


def _evidence_ages_hours(
    end: float,
    union: set[int],
    passive_last_seen: dict[int, float],
    active_last_open: dict[int, float],
) -> list[float]:
    """Age at stream end of each discovered address's newest evidence."""
    from repro.simkernel.clock import hours

    ages = []
    for address in union:
        latest = max(
            passive_last_seen.get(address, float("-inf")),
            active_last_open.get(address, float("-inf")),
        )
        ages.append((end - latest) / hours(1))
    return ages


def measure_point(
    dataset,
    dataset_name: str,
    seed: int,
    scale: float,
    end: float,
    policy: str | None,
    rate: float,
    truth: set[int],
) -> ProbingPoint:
    """Run one stream configuration and grade its evidence."""
    from repro.stream import StreamConfig, StreamEngine

    config = StreamConfig(
        dataset=dataset_name,
        seed=seed,
        scale=scale,
        shards=2,
        end=end,
        probe_policy=policy,
        probe_rate=rate if policy is not None else 0.0,
    )
    result = StreamEngine(config, dataset=dataset).run()
    snapshot = result.snapshot
    passive_addresses = snapshot.server_addresses()
    passive_last_seen = {
        address: snapshot.passive_last_seen(address)
        for address in passive_addresses
    }
    probes = snapshot.probes
    if probes is not None:
        active_last_open = dict(probes.last_open)
        probes_issued = probes.issued
        sweeps = len(probes.sweeps)
    else:
        active_last_open = {}
        probes_issued = 0
        sweeps = 0
    union = passive_addresses | set(active_last_open)
    ages = _evidence_ages_hours(
        end, union, passive_last_seen, active_last_open
    )
    return ProbingPoint(
        policy=policy if policy is not None else "passive",
        rate=rate if policy is not None else 0.0,
        probes_issued=probes_issued,
        sweeps=sweeps,
        passive_addresses=len(passive_addresses),
        active_addresses=len(active_last_open),
        union_addresses=len(union),
        completeness_pct=percent(len(union), len(truth)),
        freshness_mean_hours=(sum(ages) / len(ages)) if ages else 0.0,
        freshness_max_hours=max(ages) if ages else 0.0,
    )


def run_online_probing(
    dataset_name: str = DEFAULT_DATASET,
    seed: int = 0,
    scale: float = DEFAULT_SCALE,
    days: float = DEFAULT_DAYS,
    rates: tuple[float, ...] = DEFAULT_RATES,
) -> ProbingResult:
    """The full comparison: one passive run plus policies x rates.

    The dataset builds once and every run replays the identical stream
    prefix over it; probe outcomes are pure functions of (address,
    port, time), so rows are independent and the whole result is
    deterministic in the arguments.
    """
    if not rates:
        raise ValueError("need at least one probe rate")
    if any(rate <= 0 for rate in rates):
        raise ValueError("probe rates must be positive (passive-only is "
                         "always measured as the baseline)")
    if days <= 0:
        raise ValueError(f"days must be positive, got {days}")
    from repro.datasets import build_dataset
    from repro.simkernel.clock import days as days_to_seconds

    dataset = build_dataset(dataset_name, seed=seed, scale=scale)
    end = min(days_to_seconds(days), dataset.duration)
    truth = _truth_addresses(dataset)
    baseline = measure_point(
        dataset, dataset_name, seed, scale, end, None, 0.0, truth
    )
    points = [
        measure_point(
            dataset, dataset_name, seed, scale, end, policy, rate, truth
        )
        for policy in POLICIES
        for rate in rates
    ]
    return ProbingResult(
        dataset=dataset_name,
        seed=seed,
        scale=scale,
        days=days,
        truth_addresses=len(truth),
        baseline=baseline,
        points=points,
    )


def online_probing_report(result: ProbingResult) -> str:
    """Render the comparison as a Markdown table."""
    table = TextTable(
        title=(
            f"Online probing: {result.dataset} (seed {result.seed}, "
            f"scale {result.scale:g}, first {result.days:g} days) -- "
            f"{result.truth_addresses} ground-truth server addresses"
        ),
        headers=[
            "Policy", "Rate", "Probes", "Sweeps",
            "Passive", "Active", "Union", "Complete",
            "Fresh mean", "Fresh max",
        ],
    )
    for point in result.rows():
        table.add_row(
            point.policy,
            f"{point.rate:g}/s" if point.rate else "-",
            f"{point.probes_issued:,}" if point.probes_issued else "-",
            str(point.sweeps) if point.sweeps else "-",
            str(point.passive_addresses),
            str(point.active_addresses),
            str(point.union_addresses),
            f"{point.completeness_pct:.1f}%",
            f"{point.freshness_mean_hours:.1f} h",
            f"{point.freshness_max_hours:.1f} h",
        )
    table.add_note(
        "Complete = union of passive and online-probe discovery versus "
        "the simulator's ground-truth server addresses (a deliberate "
        "peek the paper could not make).  Freshness is the age, at "
        "stream end, of each discovered address's newest evidence "
        "(passive last-seen or probe last-open): heartbeat's "
        "continuous probing bounds staleness at any rate, the periodic "
        "sweep bounds it at roughly the 12-hour period, passive-only "
        "is unbounded."
    )
    return table.render()


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the arguments of ``python -m repro online_probing``."""
    from repro.cli import add_dataset_arguments, add_out_argument

    add_dataset_arguments(parser, scale=DEFAULT_SCALE, default=DEFAULT_DATASET)
    parser.add_argument(
        "--days", type=float, default=DEFAULT_DAYS,
        help="measure only the first N simulated days (default %g)"
             % DEFAULT_DAYS,
    )
    parser.add_argument(
        "--rates", type=float, nargs="+",
        default=list(DEFAULT_RATES), metavar="PPS",
        help="probe budgets to sweep, in probes per simulated second",
    )
    add_out_argument(parser)


def run_from_args(args: argparse.Namespace) -> int:
    """``python -m repro online_probing``: compare, print."""
    from repro.cli import print_report

    result = run_online_probing(
        dataset_name=args.dataset,
        seed=args.seed,
        scale=args.scale,
        days=args.days,
        rates=tuple(args.rates),
    )
    print_report(args, online_probing_report(result))
    return 0
