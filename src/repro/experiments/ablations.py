"""Ablations of DESIGN.md's design decisions, as experiments.

Four studies the paper motivates but does not tabulate, each a
``(seed, scale) -> ExperimentResult`` over DTCP1-18d whose metrics feed
the ``ablation.*`` rows of :mod:`repro.experiments.fidelity`.  They are
addressed as ``"ablations.<function>"`` (see
:data:`repro.experiments.ABLATIONS`) and are not sections of
EXPERIMENTS.md.
"""

from __future__ import annotations

from repro.active.prober import HalfOpenScanner
from repro.experiments.common import (
    ExperimentResult,
    get_context,
    get_dataset,
    percent,
)
from repro.net.ports import SELECTED_TCP_PORTS
from repro.passive.monitor import PassiveServiceTable, ServiceSignal
from repro.passive.sampling import (
    CountBudgetSampler,
    FixedPeriodSampler,
    ProbabilisticSampler,
    SamplingTable,
)
from repro.simkernel.clock import hours

DATASET = "DTCP1-18d"

#: Scan-detector thresholds swept, as ``min_targets == min_rsts``; the
#: paper's rule is 100.
SCAN_THRESHOLDS = (25, 50, 100, 200, 400)


def host_discovery(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    """Host discovery before port scanning.

    The paper scanned every address with no host-discovery phase and
    notes the all-ports sweep "would be much faster if host scanning
    eliminated probes of unpopulated addresses" (Section 5.4).  The
    trade-off: probe-budget savings against servers lost to fully-dark
    firewalls that make live hosts look unpopulated (plus probe-time
    jitter on transient hosts).
    """
    dataset = get_dataset(DATASET, seed, scale)
    scanner = HalfOpenScanner(dataset.population)
    targets = dataset.probe_targets()
    sweep = dict(start=hours(1), duration=hours(1.75))
    exhaustive = scanner.scan(targets, SELECTED_TCP_PORTS, **sweep)
    fast, stats = scanner.scan_with_host_discovery(
        targets, SELECTED_TCP_PORTS, **sweep
    )
    exhaustive_found = len(exhaustive.open_addresses())
    fast_found = len(fast.open_addresses())
    return ExperimentResult(
        experiment_id="ablations.host_discovery",
        title="Ablation: host discovery before port scanning (Section 5.4)",
        body=(
            f"Exhaustive sweep {stats.probes_naive:,} probes -> "
            f"{exhaustive_found} servers; two-phase {stats.probes_sent:,} "
            f"probes ({stats.savings_pct:.0f}% saved) -> {fast_found} "
            f"servers ({exhaustive_found - fast_found} lost)."
        ),
        metrics={
            "probes_naive": float(stats.probes_naive),
            "probes_sent": float(stats.probes_sent),
            "savings_pct": stats.savings_pct,
            "servers_exhaustive": float(exhaustive_found),
            "servers_fast": float(fast_found),
        },
    )


def sampling(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    """The three sampling strategies at equal ~17 % average coverage.

    Section 5.3 evaluates fixed-period sampling (10 minutes of each
    hour here) and names probabilistic and count-budget sampling as
    future work.  Fixed-period wins: service evidence is bursty -- an
    external sweep delivers hundreds of SYN-ACKs in minutes -- so a
    contiguous kept window captures whole segments of a sweep, while
    per-packet thinning keeps a rarely-seen server's single SYN-ACK
    only with probability p.  Count-budget is worst: the popular
    servers' flood consumes its budget at the top of each hour, leaving
    it blind when a scan arrives mid-hour.
    """
    context = get_context(DATASET, seed, scale)
    dataset = context.dataset

    def fresh_table():
        return PassiveServiceTable(
            is_campus=dataset.is_campus, tcp_ports=dataset.tcp_ports
        )

    fixed = SamplingTable(fresh_table(), FixedPeriodSampler(sample_minutes=10))
    probabilistic = SamplingTable(
        fresh_table(), ProbabilisticSampler(probability=10 / 60, salt=seed)
    )
    # Budget chosen to keep ~17% of the average per-hour record volume.
    per_hour = context.records_replayed / (dataset.duration / 3600.0)
    budget = SamplingTable(
        fresh_table(),
        CountBudgetSampler(budget_per_period=max(1, int(per_hour / 6))),
    )
    dataset.replay(fixed, probabilistic, budget)
    metrics = {
        "baseline": float(len(context.table.server_addresses())),
        "fixed_period": float(len(fixed.table.server_addresses())),
        "probabilistic": float(len(probabilistic.table.server_addresses())),
        "count_budget": float(len(budget.table.server_addresses())),
        "budget_fraction": budget.observed_fraction,
    }
    return ExperimentResult(
        experiment_id="ablations.sampling",
        title="Ablation: sampling strategies at ~17% coverage (Section 5.3)",
        body="\n".join(
            f"- {name}: {metrics[name]:.0f} servers "
            f"({percent(metrics[name], metrics['baseline']):.0f}%)"
            for name in ("baseline", "fixed_period", "probabilistic",
                         "count_budget")
        ),
        metrics=metrics,
    )


def scan_thresholds(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    """Sensitivity of the external-scan detection thresholds.

    The paper flags sources contacting >=100 campus addresses with
    >=100 RST responses within 12 hours.  Loosening the thresholds can
    only add scanners, and since no legitimate client emits hundreds of
    RST-drawing SYNs the detector must flag no non-scanner at any of
    them.
    """
    context = get_context(DATASET, seed, scale)
    actual = context.dataset.mix.scan_plan.scanner_addresses()
    metrics: dict[str, float] = {"false_positives": 0.0}
    lines = []
    for threshold in SCAN_THRESHOLDS:
        flagged = context.detector.scanners_with(threshold, threshold)
        false_positives = len(flagged - actual)
        metrics[f"flagged_{threshold}"] = float(len(flagged))
        metrics["false_positives"] += false_positives
        lines.append(
            f"- targets, rsts >= {threshold}: {len(flagged)} flagged, "
            f"{false_positives} false positives"
        )
    return ExperimentResult(
        experiment_id="ablations.scan_thresholds",
        title="Ablation: scan-detection thresholds (Section 4.3)",
        body="\n".join(lines),
        metrics=metrics,
    )


def service_signal(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    """SYN-ACK evidence vs full-handshake confirmation.

    The paper takes any SYN-ACK from a campus host as service evidence.
    Counting a service only once the client's final ACK completes the
    handshake discards exactly the responses elicited by external
    half-open scans, which Section 4.3 shows passive monitoring depends
    on -- it forfeits every scan-revealed idle server.
    """
    dataset = get_dataset(DATASET, seed, scale)
    tables = {
        signal: PassiveServiceTable(
            is_campus=dataset.is_campus,
            tcp_ports=dataset.tcp_ports,
            signal=signal,
        )
        for signal in (ServiceSignal.SYNACK, ServiceSignal.HANDSHAKE)
    }
    dataset.replay(*tables.values())
    synack = tables[ServiceSignal.SYNACK].server_addresses()
    handshake = tables[ServiceSignal.HANDSHAKE].server_addresses()
    forfeited_pct = percent(len(synack) - len(handshake), len(synack))
    return ExperimentResult(
        experiment_id="ablations.service_signal",
        title="Ablation: SYN-ACK vs handshake-confirmed evidence (Section 4.3)",
        body=(
            f"SYN-ACK finds {len(synack)} servers; handshake-confirmed "
            f"finds {len(handshake)} ({forfeited_pct:.0f}% fewer -- the "
            "share of passive discovery owed to half-open external scans)."
        ),
        metrics={
            "synack_servers": float(len(synack)),
            "handshake_servers": float(len(handshake)),
            "forfeited_pct": forfeited_pct,
            "handshake_not_synack": float(len(handshake - synack)),
        },
    )
