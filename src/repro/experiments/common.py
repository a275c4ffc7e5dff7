"""Shared experiment machinery.

Building a full-scale dataset takes seconds and replaying its trace
takes tens of seconds, so datasets and standard analyses are cached
per ``(name, seed, scale)`` within the process; the whole experiment
suite then costs a handful of trace passes rather than twenty.  The
passes themselves follow the paper's record-once/analyze-many shape:
``BuiltDataset.replay`` records the generated border traffic into the
on-disk trace cache on first use (see :mod:`repro.trace.cache`), so the
second passes here (scanner removal, sampling) stream the stored trace
instead of regenerating the traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.active.results import first_open_times, union_open_endpoints
from repro.core.timeline import DiscoveryTimeline
from repro.datasets import BuiltDataset, build_dataset
from repro.passive.monitor import PassiveServiceTable
from repro.passive.scandetect import ExternalScanDetector
from repro.passive.taps import MultiLinkMonitor
from repro.passive.windows import WindowActivityObserver

_DATASETS: dict[tuple[str, int, float], BuiltDataset] = {}
_CONTEXTS: dict[tuple[str, int, float], "AnalysisContext"] = {}


def clear_caches() -> None:
    """Drop all cached datasets and analyses (tests use this)."""
    _DATASETS.clear()
    _CONTEXTS.clear()
    _SCANLESS_TABLES.clear()
    _SAMPLED_TABLES.clear()


def get_dataset(name: str, seed: int = 0, scale: float = 1.0) -> BuiltDataset:
    """Build (or fetch the cached) dataset."""
    key = (name, seed, scale)
    if key not in _DATASETS:
        _DATASETS[key] = build_dataset(name, seed=seed, scale=scale)
    return _DATASETS[key]


@dataclass
class AnalysisContext:
    """One dataset plus the standard single-pass passive analyses.

    Attributes
    ----------
    dataset:
        The built dataset.
    table:
        Full-duration passive service table over the monitored links.
    detector:
        External-scan detector fed from the same pass.
    scan_window_activity:
        Per-address passive evidence inside each active-scan window
        (used by Table 4 and firewall confirmation).
    link_monitor:
        Per-link passive tables (Table 8).
    """

    dataset: BuiltDataset
    table: PassiveServiceTable
    detector: ExternalScanDetector
    scan_window_activity: WindowActivityObserver | None
    late_activity: WindowActivityObserver
    link_monitor: MultiLinkMonitor
    records_replayed: int = 0

    # ---- derived views ------------------------------------------------

    def passive_endpoint_timeline(self) -> DiscoveryTimeline:
        """(address, port, proto) endpoint first-seen times, passive."""
        return DiscoveryTimeline.from_mapping(self.table.first_seen)

    def passive_address_timeline(self) -> DiscoveryTimeline:
        """Address-level passive first-seen times."""
        return DiscoveryTimeline.from_events(self.table.address_discovery_events())

    def active_endpoint_timeline(self) -> DiscoveryTimeline:
        """Endpoint first-open times across all scans."""
        return DiscoveryTimeline.from_mapping(
            {
                (address, port): t
                for (address, port), t in first_open_times(
                    self.dataset.scan_reports
                ).items()
            }
        )

    def active_address_timeline(self) -> DiscoveryTimeline:
        return self.active_endpoint_timeline().addresses()

    def active_addresses(self) -> set[int]:
        """Addresses the TCP scans found open.

        Not ``dataset.active_addresses()``: that also counts the UDP
        sweep (DUDP only), which the experiments analyse separately.
        """
        return {a for a, _ in union_open_endpoints(self.dataset.scan_reports)}

    def passive_addresses(self) -> set[int]:
        return self.table.server_addresses()

    def union_addresses(self) -> set[int]:
        return self.active_addresses() | self.passive_addresses()

    def flow_weights_by_address(self) -> dict[int, float]:
        """Completed-flow counts per server address (Figure 1 weights)."""
        weights: dict[int, float] = {}
        for (address, _, _), count in self.table.flow_counts.items():
            weights[address] = weights.get(address, 0.0) + count
        return weights

    def client_weights_by_address(self) -> dict[int, float]:
        """Unique-client counts per server address."""
        merged: dict[int, set[int]] = {}
        for (address, _, _), clients in self.table.clients.items():
            merged.setdefault(address, set()).update(clients)
        return {address: float(len(s)) for address, s in merged.items()}


def get_context(name: str, seed: int = 0, scale: float = 1.0) -> AnalysisContext:
    """Build (or fetch) the standard analysis for a dataset.

    One pass over the trace feeds all standard observers.
    """
    key = (name, seed, scale)
    if key in _CONTEXTS:
        return _CONTEXTS[key]
    dataset = get_dataset(name, seed, scale)
    table = PassiveServiceTable(
        is_campus=dataset.is_campus,
        tcp_ports=dataset.tcp_ports,
        udp_ports=dataset.udp_ports,
        links=frozenset(dataset.spec.monitored_links),
    )
    detector = ExternalScanDetector(is_campus=dataset.is_campus)
    observers: list = [table, detector]
    windows = dataset.scan_windows()
    window_observer = None
    if windows:
        window_observer = WindowActivityObserver(
            windows=windows,
            is_campus=dataset.is_campus,
            tcp_ports=dataset.tcp_ports,
            udp_ports=dataset.udp_ports,
        )
        observers.append(window_observer)
    link_monitor = MultiLinkMonitor(
        links=dataset.spec.monitored_links,
        is_campus=dataset.is_campus,
        tcp_ports=dataset.tcp_ports,
        udp_ports=dataset.udp_ports,
    )
    observers.append(link_monitor)
    # "Any passive evidence after the first 12 hours" -- the bit the
    # Table 4 classification branches on.
    from repro.simkernel.clock import hours as _hours

    late_cutoff = min(_hours(12), dataset.duration / 2)
    late_activity = WindowActivityObserver(
        windows=[(late_cutoff, dataset.duration)],
        is_campus=dataset.is_campus,
        tcp_ports=dataset.tcp_ports,
        udp_ports=dataset.udp_ports,
    )
    observers.append(late_activity)
    records = dataset.replay(*observers)
    context = AnalysisContext(
        dataset=dataset,
        table=table,
        detector=detector,
        scan_window_activity=window_observer,
        late_activity=late_activity,
        link_monitor=link_monitor,
        records_replayed=records,
    )
    _CONTEXTS[key] = context
    return context


#: Key identifying one built dataset/context: ``(name, seed, scale)``.
#: Never key these caches by ``id(context)`` -- CPython reuses ids after
#: garbage collection, which would silently serve a stale table built
#: for a different context.
_ContextKey = tuple[str, int, float]

_SCANLESS_TABLES: dict[_ContextKey, PassiveServiceTable] = {}
_SAMPLED_TABLES: dict[
    tuple[_ContextKey, tuple[float, ...]], dict[float, PassiveServiceTable]
] = {}


def _context_key(context: AnalysisContext) -> _ContextKey:
    dataset = context.dataset
    return (dataset.spec.name, dataset.seed, dataset.scale)


def passive_table_without_scanners(
    context: AnalysisContext,
) -> PassiveServiceTable:
    """Second pass: passive table with detected scanners filtered out.

    Implements Section 4.3's removal: every conversation involving a
    source the detector flagged is ignored.  Cached per
    ``(name, seed, scale)``; the pass itself is served from the
    record-once trace cache rather than regenerated.
    """
    cache_key = _context_key(context)
    cached = _SCANLESS_TABLES.get(cache_key)
    if cached is not None:
        return cached
    dataset = context.dataset
    table = PassiveServiceTable(
        is_campus=dataset.is_campus,
        tcp_ports=dataset.tcp_ports,
        udp_ports=dataset.udp_ports,
        links=frozenset(dataset.spec.monitored_links),
        exclude_sources=frozenset(context.detector.scanners()),
    )
    dataset.replay(table)
    _SCANLESS_TABLES[cache_key] = table
    return table


def sampled_tables(
    context: AnalysisContext, sample_minutes: tuple[float, ...]
) -> dict[float, PassiveServiceTable]:
    """Second pass: passive tables under fixed-period samplers (cached)."""
    from repro.passive.sampling import FixedPeriodSampler, SamplingTable

    cache_key = (_context_key(context), tuple(sample_minutes))
    cached = _SAMPLED_TABLES.get(cache_key)
    if cached is not None:
        return cached
    dataset = context.dataset
    sampled = {
        minutes: SamplingTable(
            PassiveServiceTable(
                is_campus=dataset.is_campus,
                tcp_ports=dataset.tcp_ports,
                udp_ports=dataset.udp_ports,
                links=frozenset(dataset.spec.monitored_links),
            ),
            FixedPeriodSampler(sample_minutes=minutes),
        )
        for minutes in sample_minutes
    }
    dataset.replay(*sampled.values())
    tables = {minutes: wrapper.table for minutes, wrapper in sampled.items()}
    _SAMPLED_TABLES[cache_key] = tables
    return tables


def endpoints_for_port(
    timeline: DiscoveryTimeline, port: int
) -> set[int]:
    """Addresses whose (address, port[, proto]) endpoint was discovered.

    Delegates to the timeline's lazily built per-port index, so
    repeated per-port queries (Tables 5/6 ask for every watched port)
    cost one scan of the timeline rather than one per call.
    """
    return timeline.addresses_for_port(port)


@dataclass
class ExperimentResult:
    """Output of one experiment run.

    Attributes
    ----------
    experiment_id:
        ``"table2"`` / ``"figure04"`` style identifier.
    title:
        Human-readable name with the paper reference.
    body:
        Rendered Markdown (tables and/or series).
    metrics:
        Scalar results the fidelity ledger's rows are relations over.
    paper_values:
        The paper's corresponding numbers, for the comparison column.
    notes:
        Deviations and their causes.
    """

    experiment_id: str
    title: str
    body: str
    metrics: dict[str, float] = field(default_factory=dict)
    paper_values: Mapping[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: Named (x, y) series backing the figure, for CSV export and
    #: external plotting; empty for table experiments.
    series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)

    def render(self) -> str:
        out = [f"## {self.title}", "", self.body]
        if self.notes:
            out.append("")
            out.extend(f"- {note}" for note in self.notes)
        return "\n".join(out)


def percent(part: float, whole: float) -> float:
    """Percentage helper tolerating empty denominators."""
    return 100.0 * part / whole if whole else 0.0
