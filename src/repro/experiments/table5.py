"""Table 5: web-server root-page content breakdown.

For every web server discovered in DTCP1-18d by either method, fetch
its root page within a day of discovery, classify the page with the
signature database, and cross-tabulate content category against which
method(s) found the server.
"""

from __future__ import annotations

from repro.campus.webpages import PageCategory
from repro.core.report import TextTable
from repro.experiments.common import (
    ExperimentResult,
    endpoints_for_port,
    get_context,
    percent,
)
from repro.net.ports import PORT_HTTP
from repro.webclassify.classifier import PageClassifier
from repro.webclassify.fetcher import FetchOutcome, WebFetcher

#: Row label per classification bucket; NO_RESPONSE is a fetch outcome.
ROWS = (
    ("Custom content", PageCategory.CUSTOM),
    ("Default content", PageCategory.DEFAULT),
    ("Minimal content", PageCategory.MINIMAL),
    ("Config/status pages", PageCategory.CONFIG_STATUS),
    ("Database interface", PageCategory.DATABASE),
    ("Restricted content", PageCategory.RESTRICTED),
    ("No response", None),
)

PAPER = {
    "Custom content": dict(total=170, both=151, active_only=0, passive_only=19),
    "Default content": dict(total=493, both=469, active_only=22, passive_only=2),
    "Minimal content": dict(total=11, both=10, active_only=1, passive_only=0),
    "Config/status pages": dict(total=683, both=212, active_only=327, passive_only=144),
    "Database interface": dict(total=61, both=61, active_only=0, passive_only=0),
    "Restricted content": dict(total=17, both=17, active_only=0, passive_only=0),
    "No response": dict(total=685, both=508, active_only=147, passive_only=30),
}


def run(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    context = get_context("DTCP1-18d", seed, scale)
    dataset = context.dataset

    passive_web = endpoints_for_port(context.passive_endpoint_timeline(), PORT_HTTP)
    active_web = endpoints_for_port(context.active_endpoint_timeline(), PORT_HTTP)
    union_web = passive_web | active_web

    # Discovery time per address = earliest of either method.
    passive_times = {
        item[0]: t
        for item, t in context.table.first_seen.items()
        if item[1] == PORT_HTTP
    }
    active_times: dict[int, float] = {}
    for report in dataset.scan_reports:
        for t, address, port in report.opens:
            if port == PORT_HTTP and (
                address not in active_times or t < active_times[address]
            ):
                active_times[address] = t
    discovery_time = {}
    for address in union_web:
        candidates = [
            t
            for t in (passive_times.get(address), active_times.get(address))
            if t is not None
        ]
        discovery_time[address] = min(candidates)

    fetcher = WebFetcher(dataset.population, seed=seed)
    classifier = PageClassifier()
    buckets: dict[str, dict[str, int]] = {
        label: {"both": 0, "active_only": 0, "passive_only": 0} for label, _ in ROWS
    }
    # Sorted: one fetch stream, whose order must not follow batch cuts.
    for address in sorted(union_web):
        result = fetcher.fetch_after_discovery(address, discovery_time[address])
        if result.outcome is FetchOutcome.NO_RESPONSE:
            label = "No response"
        else:
            category = classifier.classify(result.page or "")
            label = next(name for name, cat in ROWS if cat is category)
        if address in passive_web and address in active_web:
            buckets[label]["both"] += 1
        elif address in active_web:
            buckets[label]["active_only"] += 1
        else:
            buckets[label]["passive_only"] += 1

    table = TextTable(
        title="Table 5 -- Content served by detected web servers",
        headers=[
            "Page type", "Total", "Both", "Active only", "Passive only",
            "Paper total", "Paper both", "Paper active-only", "Paper passive-only",
        ],
    )
    metrics: dict[str, float] = {}
    for label, _ in ROWS:
        b = buckets[label]
        total = b["both"] + b["active_only"] + b["passive_only"]
        p = PAPER[label]
        table.add_row(
            label, total, b["both"], b["active_only"], b["passive_only"],
            p["total"], p["both"], p["active_only"], p["passive_only"],
        )
        key = label.lower().replace(" ", "_").replace("/", "_")
        metrics[f"{key}_total"] = float(total)
        metrics[f"{key}_passive_only"] = float(b["passive_only"])
        metrics[f"{key}_active_only"] = float(b["active_only"])

    custom = buckets["Custom content"]
    custom_total = sum(custom.values())
    metrics["custom_passive_pct"] = percent(
        custom["both"] + custom["passive_only"], custom_total
    )
    table.add_note(
        "Custom-content servers are the pages passive monitoring finds "
        "essentially completely (the paper reports 100%); the big "
        "'no response' row is dominated by transient addresses that "
        "left the network before the fetch."
    )
    return ExperimentResult(
        experiment_id="table5",
        title="Table 5: Web root-page content breakdown (Section 4.4.1)",
        body=table.render(),
        metrics=metrics,
        paper_values={"custom_passive_pct": 100.0},
    )
