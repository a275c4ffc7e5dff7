"""Figure 2: cumulative discovery over 18 days, all vs static addresses.

Four curves: passive and active discovery over all addresses and over
non-transient (static) addresses only.  The signature behaviours:
discovery over all addresses never levels off (address churn), while
static-only discovery nearly does; external scans produce visible
jumps in the passive curve.
"""

from __future__ import annotations

from repro.core.report import render_series
from repro.core.timeline import cumulative_curve, discovery_rate
from repro.experiments.common import ExperimentResult, get_context
from repro.simkernel.clock import days, hours


def run(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    context = get_context("DTCP1-18d", seed, scale)
    duration = context.dataset.duration
    space = context.dataset.population.topology.space

    passive = context.passive_address_timeline()
    active = context.active_address_timeline()
    static_passive = passive.restrict(
        a for a in passive.items() if not space.is_transient(a)
    )
    static_active = active.restrict(
        a for a in active.items() if not space.is_transient(a)
    )

    step = hours(6)
    series = {
        "passive (all hosts)": _to_days(cumulative_curve(passive, 0, duration, step)),
        "active (all hosts)": _to_days(cumulative_curve(active, 0, duration, step)),
        "passive (static only)": _to_days(
            cumulative_curve(static_passive, 0, duration, step)
        ),
        "active (static only)": _to_days(
            cumulative_curve(static_active, 0, duration, step)
        ),
    }
    last5_start = max(duration - days(5), 0.0)
    endpoints = context.passive_endpoint_timeline()
    last_quarter = passive.items() - passive.before(0.75 * duration).items()
    metrics = {
        "passive_total": float(len(passive)),
        "active_total": float(len(active)),
        "passive_static_total": float(len(static_passive)),
        "active_static_total": float(len(static_active)),
        "passive_all_last5d_per_hour": discovery_rate(passive, last5_start, duration),
        "passive_static_last5d_per_hour": discovery_rate(
            static_passive, last5_start, duration
        ),
        "active_first_scan_share": (
            len(context.dataset.scan_reports[0].open_addresses()) / len(active)
            if len(active)
            else 0.0
        ),
        # Churn keeps producing fresh transient-address discoveries in
        # the last quarter; the first major external sweep (day ~1.4)
        # is a visible step against an ordinary day (2.2-3.2).
        "passive_transient_last_quarter": float(
            sum(1 for a in last_quarter if space.is_transient(a))
        ),
        "passive_endpoints_first_sweep": float(
            endpoints.count_before(days(1.7)) - endpoints.count_before(days(1.3))
        ),
        "passive_endpoints_quiet_day": float(
            endpoints.count_before(days(3.2)) - endpoints.count_before(days(2.2))
        ),
    }
    body = render_series(
        "Figure 2 -- Cumulative server discovery over 18 days",
        series,
        x_label="days",
        y_label="server addresses discovered",
    )
    return ExperimentResult(
        experiment_id="figure02",
        title="Figure 2: Discovery over 18 days, all vs static (Sections 4.2.1, 4.2.3)",
        body=body,
        metrics=metrics,
        series=series,
        paper_values={
            # Paper: ~1 new server/hour over all hosts in the last five
            # days, ~1 per 3 hours over static hosts; 62% of active
            # discoveries come from the first scan.
            "passive_all_last5d_per_hour": 1.0,
            "passive_static_last5d_per_hour": 0.33,
            "active_first_scan_share": 0.62,
        },
    )


def _to_days(points: list[tuple[float, int]]) -> list[tuple[float, float]]:
    return [(t / 86400.0, float(v)) for t, v in points]
