"""Figure 1: weighted and unweighted cumulative discovery over 12 hours.

Six curves: passive and active discovery, each unweighted, flow-
weighted and client-weighted.  Weights are measured over the full
DTCP1-18d duration (the paper's methodology: "when we first discover a
server, we add the number of clients this IP address serves throughout
the study").
"""

from __future__ import annotations

from repro.core.completeness import (
    curve_time_to_percent,
    unit_weights,
    weighted_discovery_curve,
)
from repro.core.report import render_series
from repro.core.timeline import DiscoveryTimeline
from repro.experiments.common import ExperimentResult, get_context, percent
from repro.simkernel.clock import hours, minutes


def run(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    context = get_context("DTCP1-18d", seed, scale)
    window = min(hours(12), context.dataset.duration)

    passive = context.passive_address_timeline().before(window)
    first_scan = context.dataset.scan_reports[0]
    active = DiscoveryTimeline.from_events(
        (t, address) for t, address, _ in first_scan.opens
    )
    union = passive.items() | active.items()

    flow_weights = context.flow_weights_by_address()
    client_weights = context.client_weights_by_address()
    weightings = {
        "unweighted": unit_weights(union),
        "flow-weighted": flow_weights,
        "client-weighted": client_weights,
    }
    series: dict[str, list[tuple[float, float]]] = {}
    metrics: dict[str, float] = {}
    for method, timeline in (("passive", passive), ("active", active)):
        for label, weights in weightings.items():
            curve = weighted_discovery_curve(
                timeline, weights, 0.0, window, minutes(5), universe=union
            )
            series[f"{method} {label}"] = [(t / 3600.0, v) for t, v in curve]
            t99 = curve_time_to_percent(curve, 99.0)
            metrics[f"{method}_{label.replace('-', '_')}_t99_minutes"] = (
                t99 / 60.0 if t99 is not None else float("inf")
            )
    # Share of the whole trace's flow weight on servers already heard
    # this early (the denominator is every passive server, not the
    # 12-hour union the curves are drawn against).
    total_flows = sum(flow_weights.values())
    for early in (30, 60):
        heard = passive.before(minutes(early)).items()
        metrics[f"passive_flow_share_{early}min_pct"] = percent(
            sum(flow_weights.get(address, 0.0) for address in heard),
            total_flows,
        )
    body = render_series(
        "Figure 1 -- Cumulative server discovery over 12 hours",
        series,
        x_label="hours",
        y_label="% of union found",
    )
    return ExperimentResult(
        experiment_id="figure01",
        title="Figure 1: Weighted and unweighted discovery over 12 hours (Section 4.1.2)",
        body=body,
        metrics=metrics,
        series=series,
        paper_values={
            "passive_flow_weighted_t99_minutes": 5.0,
            "passive_client_weighted_t99_minutes": 14.0,
            "active_flow_weighted_t99_minutes": 60.0,
        },
        notes=[
            "Paper: passive finds 99% of flow-weighted servers in 5 "
            "minutes and client-weighted in 14; our simulated traffic "
            "volume is ~100x smaller, so the last percent of weight "
            "sits on relatively quieter servers and the 99% crossing "
            "lands tens of minutes in; the 95% crossings land within "
            "minutes as in the paper, and active still needs over an "
            "hour.",
        ],
    )
