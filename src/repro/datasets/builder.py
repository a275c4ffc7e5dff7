"""Materialising datasets.

:func:`build_dataset` runs the whole production pipeline for one
registry entry: synthesise the population, realise the external scan
plan, take the active scans on the paper's 11:00/23:00 schedule, and
wrap the border traffic in a replayable stream.

Active scanning happens at build time (its results are part of the
dataset, as the paper's Nmap logs were); passive analysis happens at
replay time so any number of observers can share one pass.
"""

from __future__ import annotations

from contextlib import closing, suppress
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from repro.active.prober import HalfOpenScanner
from repro.active.results import (
    ScanReport,
    UdpScanReport,
    first_open_events,
)
from repro.active.schedule import scan_start_times
from repro.active.udp_scan import GenericUdpProber
from repro.campus.population import (
    CampusPopulation,
    attach_udp_population,
    synthesize_allports_population,
    synthesize_population,
)
from repro.campus.profiles import (
    allports_profile,
    break_profile,
    dudp_profile,
    semester_profile,
)
from repro.datasets.registry import DatasetSpec, get_spec
from repro.net.addr import AddressClass
from repro.net.packet import PacketRecord
from repro.net.ports import SELECTED_TCP_PORTS, SELECTED_UDP_PORTS
from repro.simkernel.clock import Calendar, hours
from repro.simkernel.rng import RngStreams, derive_seed
from repro.telemetry.metrics import registry as _telemetry_registry
from repro.trace.cache import default_trace_cache
from repro.trace.columnar import (
    DEFAULT_BATCH_RECORDS,
    ColumnarTraceWriter,
    RecordColumns,
    read_trace_columns,
    read_trace_records,
)
from repro.traffic.generator import (
    GENERATOR_VERSION,
    TrafficMix,
    border_column_batches,
    default_diurnal,
)
from repro.traffic.scans import build_scan_plan

#: Sweep length of one full active scan; the paper reports 90-120
#: minutes for the large datasets.
SCAN_SWEEP_SECONDS = hours(1.75)


@dataclass
class BuiltDataset:
    """A fully materialised dataset.

    Attributes
    ----------
    spec:
        The registry entry this build realises.
    population:
        The synthesised campus (ground truth; analyses must not peek).
    calendar:
        Maps dataset seconds to wall-clock time.
    mix:
        Border-traffic composition (scan plan, diurnal, noise).
    traffic_seed:
        Seed of the replayable packet stream.
    scan_reports:
        Active TCP scans, in schedule order.
    udp_report:
        The generic UDP sweep (DUDP only).
    scale:
        Population scale the build used (1.0 = the paper's counts).
    """

    spec: DatasetSpec
    population: CampusPopulation
    calendar: Calendar
    mix: TrafficMix
    traffic_seed: int
    scan_reports: list[ScanReport] = field(default_factory=list)
    udp_report: UdpScanReport | None = None
    scale: float = 1.0
    #: Master seed the build derived everything from (trace-cache key).
    seed: int = 0
    #: Fault plan the build was taken under (None = perfect observer).
    #: Active scans degrade at build time; passive capture loss is
    #: applied per replay via the ``faults=`` parameter.  The border
    #: *traffic* is never faulted -- faults model the measurement, not
    #: the network -- so the trace cache always stores ground truth.
    faults: "object | None" = None

    @property
    def duration(self) -> float:
        return self.spec.passive_seconds

    @property
    def tcp_ports(self) -> frozenset[int] | None:
        """Watched TCP ports; None means all (the DTCPall study)."""
        if self.spec.ports == "tcp-selected":
            return frozenset(SELECTED_TCP_PORTS)
        if self.spec.ports == "tcp-all":
            return None
        return frozenset()

    @property
    def udp_ports(self) -> frozenset[int]:
        if self.spec.ports == "udp-selected":
            return frozenset(SELECTED_UDP_PORTS)
        return frozenset()

    @cached_property
    def is_campus(self) -> Callable[[int], bool]:
        """Campus-membership predicate (``dataset.is_campus(addr)``).

        A cached closure rather than a bound method: observers call it
        up to three times per captured record, so the prefix match is
        bound into locals once instead of walking
        ``population.topology`` per call.
        """
        return self.population.topology.campus_predicate()

    @cached_property
    def active_events(self) -> tuple[tuple[float, int], ...]:
        """Every build-time open endpoint's first ``(time, address)``,
        sorted: :func:`~repro.active.results.first_open_events` of the
        scan reports, computed once (the scans finish with the build).
        Each stream run's watermark timeline is a fresh cursor over it.
        """
        return first_open_events(self.scan_reports, self.udp_report)

    @cached_property
    def _active_addresses(self) -> frozenset[int]:
        return frozenset(address for _, address in self.active_events)

    def active_addresses(self) -> frozenset[int]:
        """Addresses with an open port in any build-time sweep, TCP or UDP.

        The one answer to "which addresses did active probing find" for
        ``survey``, the stream engine's final report, its batch oracle
        and the degradation sweep.  Computed once per dataset, hence
        frozen.
        """
        return self._active_addresses

    @property
    def trace_cache_key(self) -> tuple[str, int, str, int]:
        """Content address of this build's border trace.

        ``(name, seed, scale, generator version)`` -- everything the
        generated stream is a pure function of.  The scale is keyed by
        ``repr`` so 0.1 and 0.10 alias but distinct floats never do.
        """
        return (self.spec.name, self.seed, repr(self.scale), GENERATOR_VERSION)

    def _full_pass(self, end: float | None) -> bool:
        return end is None or end >= self.duration

    def packet_stream(self, end: float | None = None) -> Iterator[PacketRecord]:
        """One pass over the border capture, record by record.

        The per-record view of :meth:`column_batches`
        (``RecordColumns.to_records`` a few thousand rows at a time):
        over the recording when a full-duration pass has one, else over
        the generator's batches.  Either way the records are identical.
        """
        cached, batches = self._open_pass(end, 0, DEFAULT_BATCH_RECORDS)
        if cached is not None:
            return read_trace_records(cached)
        return (record for columns in batches for record in columns.to_records())

    def column_batches(
        self,
        end: float | None = None,
        skip: int = 0,
        batch_records: int = DEFAULT_BATCH_RECORDS,
    ) -> Iterator[RecordColumns]:
        """The border capture from record *skip* on, as column batches.

        The one source every pass iterates (:meth:`replay`, the stream
        driver, the fabric's catch-up).  A full-duration pass with a
        recording in the trace cache reads it: zero-copy views, *skip*
        a seek.  Anything else (cache off or missed, or a partial pass)
        regenerates -- :func:`border_column_batches`, columns from the
        start, *batch_records* rows a batch; the rows before *skip* are
        generated and dropped.  Same records either way; iterating
        never writes the cache.  A partial pass is a prefix of the full
        one, but not a cut at *end*: it keeps every whole flow that
        began before *end*, so it may close with rows at or after *end*,
        and only regenerating knows where it stops.
        """
        return self._open_pass(end, skip, batch_records)[1]

    def _open_pass(self, end: float | None, skip: int, batch_records: int):
        """``(cache entry or None, batches)``: one pass's source."""
        cached = None
        if self._full_pass(end):
            cached = default_trace_cache().lookup(self.trace_cache_key)
        if cached is not None:
            return cached, read_trace_columns(cached, skip_records=skip)
        return None, border_column_batches(
            self.population,
            self.mix,
            seed=self.traffic_seed,
            start=0.0,
            end=self.duration if end is None else end,
            batch_records=batch_records,
            skip=skip,
        )

    def _recording(
        self, cache, batches: Iterator[RecordColumns], recorded: list
    ) -> Iterator[RecordColumns]:
        """Pass *batches* through, spilling them into *cache*.

        Upstream of the fault filter: the cache records ground truth.
        The entry commits when the batches run out (its path lands in
        *recorded*; the build's fault plan may then damage it).  An
        ``OSError`` from the recording side -- unwritable directory,
        full disk -- abandons the recording, not the pass; a pass
        closed early or failing otherwise leaves no entry or tmp file.
        """
        key = self.trace_cache_key
        pending = fileobj = writer = None
        with suppress(OSError):
            pending = cache.begin_write(key)
            fileobj = open(pending.tmp_path, "wb")
            writer = ColumnarTraceWriter(fileobj)
        try:
            for columns in batches:
                if writer is not None:
                    try:
                        writer.write_columns(columns)
                    except OSError:
                        writer = None
                yield columns
            if writer is not None:
                with suppress(OSError):
                    writer.close()
                    recorded.append(pending.commit())
        finally:
            if fileobj is not None and not recorded:
                with suppress(OSError):
                    fileobj.close()
                pending.abort()
        if recorded and self.faults is not None:
            self.faults.maybe_corrupt_trace(recorded[0], key)

    def replay(self, *observers, end: float | None = None, faults=None) -> int:
        """Feed one pass into *observers*; return the record count.

        Record-once/analyze-many: every pass is
        :func:`repro.passive.monitor.replay_columnar` over
        :meth:`column_batches`, and the first full-duration one also
        records the batches into the trace cache on their way (only
        ``replay`` does: cache tmp names are per-process, and a stream
        run can have two sources open).  Later passes stream the stored
        trace back; observer results are identical either way.

        *faults* (a fresh :class:`repro.faults.capture.CaptureFilter`,
        usually ``plan.capture_filter(dataset.duration)``) drops
        records between the source and the observers -- lossy capture
        over ground-truth traffic.  The cache always records the
        unfaulted stream, so one recording serves every loss rate, and
        the returned count is what the observers saw.
        """
        from repro.passive.monitor import replay_columnar
        from time import perf_counter

        cache = default_trace_cache()
        reg = _telemetry_registry()
        tap = None
        if reg.enabled:
            # Appended after the caller's observers, the tap sees the
            # records they see (including fault drops) without changing
            # what any of them receives.
            from repro.telemetry.tap import ReplayTap

            tap = ReplayTap()
            observers = tuple(observers) + (tap,)
        started = perf_counter()
        cached, batches = self._open_pass(end, 0, DEFAULT_BATCH_RECORDS)
        recorded: list = []
        if cached is None and cache.enabled and self._full_pass(end):
            batches = self._recording(cache, batches, recorded)
        # Closed here, not by the collector: an observer's exception
        # must abort a recording before it propagates.
        with closing(batches):
            count = replay_columnar(batches, *observers, faults=faults)
        elapsed = perf_counter() - started
        source = "cached" if cached else "recorded" if recorded else "generated"
        cache.stats.note_replay(count, elapsed)
        if tap is not None:
            tap.flush_into(reg)
            if faults is not None:
                drops = faults.stats
                reg.counter(
                    "repro_passive_dropped_total",
                    "Records the monitors failed to capture, by cause.",
                    cause="loss",
                ).inc(drops.dropped_loss)
                reg.counter(
                    "repro_passive_dropped_total",
                    "Records the monitors failed to capture, by cause.",
                    cause="outage",
                ).inc(drops.dropped_outage)
            reg.counter(
                "repro_replay_records_total",
                "Records delivered per replay pass, summed.",
            ).inc(count)
            reg.counter(
                "repro_replay_seconds_total",
                "Wall time spent inside replay passes.",
            ).inc(elapsed)
            reg.counter(
                "repro_replay_passes_total",
                "Replay passes by stream source.",
                source=source,
            ).inc()
            reg.histogram(
                "repro_replay_pass_seconds",
                "Distribution of whole-pass replay durations.",
            ).observe(elapsed)
            if elapsed > 0:
                reg.gauge(
                    "repro_replay_records_per_sec",
                    "Throughput of the most recent replay pass.",
                ).set(count / elapsed)
        return count

    def scan_windows(self) -> list[tuple[float, float]]:
        """(start, end) of every active scan, in order."""
        return [(report.start, report.end) for report in self.scan_reports]

    @cached_property
    def probe_target_array(self) -> np.ndarray:
        """The addresses the campus scanner probes, ascending.

        The paper "was not able to actively probe the wireless address
        range"; the target list reproduces that exclusion.  Computed
        once per dataset (read-only): every online prober built over
        the dataset indexes into the same array.
        """
        space = self.population.topology.space
        targets = np.concatenate([
            np.arange(block.first, block.last + 1, dtype=np.int64)
            for block in space.blocks
            if block.address_class is not AddressClass.WIRELESS
        ] or [np.empty(0, dtype=np.int64)])
        targets.setflags(write=False)
        return targets

    def probe_targets(self) -> list[int]:
        """:attr:`probe_target_array` as a list of ints."""
        return self.probe_target_array.tolist()


def _make_profile(spec: DatasetSpec, scale: float):
    factories = {
        "semester": semester_profile,
        "break": break_profile,
        "dudp": dudp_profile,
        "allports": lambda _scale: allports_profile(),
    }
    if spec.profile not in factories:
        raise ValueError(f"unknown profile {spec.profile!r} in spec {spec.name}")
    return factories[spec.profile](scale)


def build_dataset(
    name: str, seed: int = 0, scale: float = 1.0, faults=None
) -> BuiltDataset:
    """Build the named dataset.

    Parameters
    ----------
    name:
        Registry name (e.g. ``"DTCP1-18d"``).  Subset rows
        (DTCP1-12h, DTCP1-18d-trans) build their parent dataset; the
        experiments take the subset view.
    seed:
        Master seed; population, scan plan and traffic derive
        independent streams from it.
    scale:
        Population scale (1.0 reproduces the paper's counts).
    faults:
        Optional :class:`repro.faults.plan.FaultPlan`.  Degrades the
        *measurement* only: active scans taken at build time see probe
        loss and prober downtime, and committed trace-cache entries
        may be corrupted.  The population and border traffic are
        untouched, so a faulted build shares its trace-cache entry
        with the pristine build.  ``FaultPlan()`` (or ``None``)
        is byte-identical to an unfaulted build.
    """
    spec = get_spec(name)
    if faults is not None and faults.is_null:
        faults = None
    if spec.subset_of is not None:
        parent = get_spec(spec.subset_of)
        return build_dataset(parent.name, seed=seed, scale=scale, faults=faults)

    profile = _make_profile(spec, scale)
    duration = spec.passive_seconds
    population_seed = derive_seed(seed, f"population.{spec.name}")
    if spec.profile == "allports":
        population = synthesize_allports_population(population_seed, duration)
    else:
        population = synthesize_population(profile, population_seed, duration)
    if spec.ports == "udp-selected":
        attach_udp_population(
            population, derive_seed(seed, f"udp.{spec.name}"), scale=scale
        )

    calendar = Calendar(spec.start_date)
    plan_streams = RngStreams(derive_seed(seed, f"scanplan.{spec.name}"))
    scan_plan = build_scan_plan(profile.scan_climate, plan_streams, duration)
    mix = TrafficMix(
        scan_plan=scan_plan,
        diurnal=default_diurnal(calendar),
        academic_fraction=spec.academic_fraction,
        outbound_noise_flows_per_day=profile.outbound_noise_flows_per_day,
    )
    dataset = BuiltDataset(
        spec=spec,
        population=population,
        calendar=calendar,
        mix=mix,
        traffic_seed=derive_seed(seed, f"traffic.{spec.name}"),
        scale=scale,
        seed=seed,
        faults=faults,
    )
    _run_active_scans(dataset)
    return dataset


def _run_active_scans(dataset: BuiltDataset) -> None:
    """Take the dataset's active scans per its Table 1 schedule."""
    spec = dataset.spec
    if spec.ports == "udp-selected":
        prober = GenericUdpProber(dataset.population)
        dataset.udp_report = prober.scan(
            targets=dataset.probe_target_array,
            ports=list(dataset.udp_ports),
            start=hours(1),
            duration=SCAN_SWEEP_SECONDS,
        )
        return
    if spec.scan_interval_hours == 0:
        return  # passive-only dataset (DTCP1-90d)
    scanner = HalfOpenScanner(dataset.population, faults=dataset.faults)
    if spec.ports == "tcp-all":
        # DTCPall: one sweep of every port, taking nearly 24 hours.
        report = scanner.scan_open_ports_of_population(
            start=hours(0.5), duration=hours(23), scan_id=0
        )
        dataset.scan_reports = [report]
        return
    scan_window = (
        spec.scan_window_seconds
        if spec.scan_window_seconds is not None
        else dataset.duration
    )
    starts = scan_start_times(dataset.calendar, 0.0, min(scan_window, dataset.duration))
    if spec.scan_interval_hours is None:
        starts = starts[:1]
    targets = dataset.probe_target_array
    ports = sorted(dataset.tcp_ports or ())
    for scan_id, start in enumerate(starts):
        dataset.scan_reports.append(
            scanner.scan(
                targets,
                ports,
                start=start,
                duration=SCAN_SWEEP_SECONDS,
                scan_id=scan_id,
            )
        )
