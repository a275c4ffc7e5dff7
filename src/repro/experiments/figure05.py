"""Figure 5: discovery grouped by address-block transience.

The DTCP1-18d-trans subset: DHCP, PPP and VPN address blocks analysed
separately, each method's curve expressed as a percentage of that
block class's own passive-union-active ground truth.  The paper's
signatures: DHCP behaves like the general population, PPP *inverts*
(passive ahead of active), and VPN services are found actively but
almost never passively.
"""

from __future__ import annotations

from repro.core.report import render_series
from repro.core.timeline import cumulative_curve
from repro.experiments.common import ExperimentResult, get_context, percent
from repro.net.addr import AddressClass
from repro.simkernel.clock import hours

CLASSES = (AddressClass.DHCP, AddressClass.PPP, AddressClass.VPN)


def run(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    context = get_context("DTCP1-18d", seed, scale)
    duration = context.dataset.duration
    space = context.dataset.population.topology.space

    passive = context.passive_address_timeline()
    active = context.active_address_timeline()

    series: dict[str, list[tuple[float, float]]] = {}
    metrics: dict[str, float] = {}
    step = hours(12)
    for address_class in CLASSES:
        passive_cls = passive.restrict(
            a for a in passive.items() if space.class_of(a) is address_class
        )
        active_cls = active.restrict(
            a for a in active.items() if space.class_of(a) is address_class
        )
        union = len(passive_cls.items() | active_cls.items())
        for method, timeline in (("passive", passive_cls), ("active", active_cls)):
            name = f"{method} {address_class.value.upper()}"
            series[name] = [
                (t / 86400.0, percent(v, union))
                for t, v in cumulative_curve(timeline, 0, duration, step)
            ]
            metrics[f"{method}_{address_class.value}"] = float(len(timeline))
        metrics[f"union_{address_class.value}"] = float(union)

    body = render_series(
        "Figure 5 -- Discovery by transience of address block "
        "(percent of per-class union)",
        series,
        x_label="days",
        y_label="% of class union found",
    )
    vpn_passive = metrics.get("passive_vpn", 0.0)
    vpn_active = metrics.get("active_vpn", 0.0)
    ppp_passive = metrics.get("passive_ppp", 0.0)
    ppp_active = metrics.get("active_ppp", 0.0)
    metrics["ppp_passive_per_active"] = (
        ppp_passive / ppp_active if ppp_active else 0.0
    )
    return ExperimentResult(
        experiment_id="figure05",
        title="Figure 5: Transient hosts (Section 4.4.2)",
        body=body,
        metrics=metrics,
        series=series,
        paper_values={
            "passive_vpn": 10.0,
            "active_vpn": 100.0,
        },
        notes=[
            f"VPN: active found {vpn_active:.0f}, passive {vpn_passive:.0f} "
            "(paper: ~100 vs ~10 -- VPN services are reached via the "
            "hosts' non-VPN addresses).",
            f"PPP: passive {ppp_passive:.0f} vs active {ppp_active:.0f} "
            "(paper: passive finds ~15% more on short-lived PPP hosts).",
        ],
    )
