"""The columnar generator against the scalar one it replaced.

``tests/traffic_reference.py`` is the definition of the border capture:
record objects through nested ``heapq.merge``.  The generator in
``repro.traffic`` builds the same capture as columns, a window at a
time, and rests on three claims, each held here:

(a) *the merge rule* -- ``heapq.merge`` over not-quite-sorted streams
    is a stable sort by each stream's running maximum;
(b) *bytes* -- ``border_column_batches`` equals
    ``RecordColumns.from_records`` of the reference stream, field for
    field, dtype included;
(c) *window invariance* -- where the windows are cut does not matter.
"""

from __future__ import annotations

import heapq
from math import inf

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.campus.churn import AddressLedger
from repro.campus.host import Host
from repro.campus.population import CampusPopulation
from repro.campus.service import ActivityPattern, Service
from repro.campus.topology import build_topology
from repro.datasets import build_dataset
from repro.net.addr import AddressClass, parse_ipv4
from repro.net.packet import PROTO_TCP, PROTO_UDP
from repro.simkernel.clock import Calendar, days, hours
from repro.telemetry import MetricRegistry, disable, set_registry
from repro.trace.columnar import COLUMN_FIELDS, RecordColumns
from repro.traffic._flows import FlowLog
from repro.traffic.generator import (
    TrafficMix,
    _border_windows,
    _concat,
    _Leaf,
    _merged_windows,
    border_column_batches,
    default_diurnal,
)
from repro.traffic.links import LINK_COMMERCIAL1, LINK_COMMERCIAL2
from repro.traffic.scans import ScanPlan, ScanSweep
from tests.traffic_reference import (
    border_packet_stream as reference_stream,
    source_streams,
)

# ---- (a) the merge rule -----------------------------------------------------

#: Few distinct values, so exact ties within and across streams are the
#: common case rather than the rare one.
_times = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0]) | st.floats(0.0, 3.0)
_stream = st.lists(_times, max_size=12)


def _tagged(leaves):
    """Each stream's items as ``(time, stream, position)``."""
    return [
        [(time, index, position) for position, time in enumerate(times)]
        for index, times in enumerate(leaves)
    ]


def _heapq_order(clients, sweeps, noise):
    """The reference's merge tree: sweeps merge first, then the three."""
    clients, *sweeps, noise = _tagged([clients, *sweeps, noise])
    by_time = lambda item: item[0]  # noqa: E731
    scans = heapq.merge(*sweeps, key=by_time)
    return list(heapq.merge(clients, scans, noise, key=by_time))


def _synthetic_columns(items) -> RecordColumns:
    """Rows carrying ``(time, stream, position)`` in time / src / dst."""
    zeros = np.zeros(len(items), "u1")
    return RecordColumns(
        time=np.array([item[0] for item in items], "<f8"),
        src=np.array([item[1] for item in items], "<u4"),
        dst=np.array([item[2] for item in items], "<u4"),
        sport=zeros.astype("<u2"), dport=zeros.astype("<u2"),
        proto=zeros, flags=zeros, link=zeros, icmp=zeros,
    )


class TestMergeRule:
    @given(_stream, st.lists(_stream, max_size=4), _stream)
    @settings(max_examples=300, deadline=None)
    def test_heapq_merge_is_a_stable_sort_by_running_max(
        self, clients, sweeps, noise
    ):
        """No campus, no generator: the claim about ``heapq.merge``
        itself, nested as the reference nests it."""
        leaves = _tagged([clients, *sweeps, noise])
        items = [item for leaf in leaves for item in leaf]
        keys = np.concatenate([
            np.maximum.accumulate(np.array([item[0] for item in leaf], float))
            for leaf in leaves
        ])
        order = np.argsort(keys, kind="stable").tolist()
        assert [items[i] for i in order] == _heapq_order(clients, sweeps, noise)

    @given(
        _stream, st.lists(_stream, max_size=4), _stream,
        st.lists(_times, max_size=8).map(sorted), st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_windowed_merge_of_leaves(self, clients, sweeps, noise, bounds, data):
        """The generator's own merge loop over synthetic leaves, each
        fed whole or in drawn pieces, cut at drawn bounds."""

        def feed_of(leaf):
            # A source may hand its rows over early, never late: a piece
            # goes out no later than the first bound above its first key.
            cuts = sorted(data.draw(st.sets(st.integers(0, len(leaf)))) | {len(leaf)})
            pieces, low, high = [], 0, -inf
            for cut in cuts:
                if cut > low:
                    high = max(high, leaf[low][0])
                    pieces.append((high, leaf[low:cut]))
                    low = cut

            def feed(bound):
                due = []
                while pieces and pieces[0][0] < bound:
                    due += pieces.pop(0)[1]
                return _synthetic_columns(due) if due else None

            return feed

        leaves = _tagged([clients, *sweeps, noise])
        windows = list(_merged_windows(
            [_Leaf("any", feed_of(leaf)) for leaf in leaves],
            (bound for bound in (*bounds, inf)),
        ))
        merged = _concat(windows) if windows else _synthetic_columns([])
        got = list(zip(
            merged.time.tolist(), merged.src.tolist(), merged.dst.tolist()
        ))
        assert got == _heapq_order(clients, sweeps, noise)


    @given(st.lists(st.lists(_times, max_size=30).map(sorted), min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_simultaneous_flows_keep_service_order(self, services):
        """The inner merge (flows of all services on flow time) is the
        flow log's stable sort: walks append in service order."""
        log = FlowLog()
        for service, times in enumerate(services):
            for position, time in enumerate(times):
                for put, value in zip(log.appenders, (
                    time, service, position, 1024, 80, PROTO_TCP, 0.05, 0, 3,
                )):
                    put(value)
        merged = heapq.merge(*_tagged(services), key=lambda item: item[0])
        packets = log.packets()
        syn = slice(None) if packets is None else packets.flags == 0x02
        got = [] if packets is None else list(zip(
            packets.time[syn].tolist(), packets.src[syn].tolist(),
            packets.dst[syn].tolist(),
        ))
        assert got == list(merged)


# ---- (b) bytes ----------------------------------------------------------------


def _gathered(batches) -> RecordColumns:
    batches = list(batches)
    return _concat(batches) if batches else RecordColumns.from_records([])


def assert_same_columns(got: RecordColumns, want: RecordColumns) -> None:
    for name, _ in COLUMN_FIELDS:
        ours, theirs = getattr(got, name), getattr(want, name)
        assert ours.dtype == theirs.dtype, name
        assert np.array_equal(ours, theirs), name


def assert_same_capture(
    population, mix, seed, start, end, batch_records=8192, skip=0
) -> int:
    """The generated batches are the reference stream; returns its length."""
    reference = list(reference_stream(population, mix, seed, start, end))
    batches = list(border_column_batches(
        population, mix, seed, start, end, batch_records, skip
    ))
    assert all(len(batch) == batch_records for batch in batches[:-1])
    assert all(0 < len(batch) <= batch_records for batch in batches[-1:])
    assert_same_columns(
        _gathered(batches), RecordColumns.from_records(reference[skip:])
    )
    return len(reference)


CAMPUS = parse_ipv4("128.125.64.0")


def _host(host_id, services, up=((0.0, days(1)),), address=None, transient=False):
    host = Host(
        host_id=host_id,
        category="test",
        address_class=AddressClass.DHCP if transient else AddressClass.STATIC,
        static_address=None if transient else address or CAMPUS + 10 + host_id,
        up_windows=list(up),
    )
    host.finalize()
    for port, proto, rate, pool in services:
        host.add_service(Service(
            host_id=host_id, port=port, proto=proto,
            activity=ActivityPattern(base_rate=rate, client_pool=pool),
        ))
    return host


def _population(hosts, tenures=()) -> CampusPopulation:
    ledger = AddressLedger()
    for address, host_id, start, end in tenures:
        ledger.record(address, host_id, start, end)
    ledger.finalize()
    return CampusPopulation(
        topology=build_topology(),
        hosts={host.host_id: host for host in hosts},
        ledger=ledger,
        duration=days(1),
        profile_name="test",
        seed=0,
    )


def _sweep(start, rate, coverage, port=80, scanner=0xC6000001, link=LINK_COMMERCIAL1):
    return ScanSweep(
        scanner=scanner, port=port, start=start, rate=rate,
        coverage=coverage, link=link,
    )


@pytest.fixture(scope="module")
def busy_population():
    """A few busy servers: at these rates flows overlap their own
    replies, so carried rows and running-max keys are the norm."""
    hosts = [
        _host(0, [(80, PROTO_TCP, 2.0, 7), (53, PROTO_UDP, 1.0, 3)]),
        _host(1, [(22, PROTO_TCP, 0.5, 2), (443, PROTO_TCP, 1.5, 5)],
              up=((5.0, 40.0), (60.0, 400.0))),
        _host(2, [(25, PROTO_TCP, 0.8, 4)]),
        # Holds an address for two sessions with a gap between them,
        # although it is "up" throughout: flows in the gap draw, then
        # find ``address_of`` None and are dropped.
        _host(3, [(80, PROTO_TCP, 1.0, 3)], transient=True),
    ]
    return _population(hosts, tenures=[
        (CAMPUS + 200, 3, 0.0, 30.0), (CAMPUS + 201, 3, 70.0, days(1)),
    ])


#: Three sweeps over ``busy_population``: overlapping, one at a rate
#: whose interval is exact in binary (ties with itself across replies),
#: one that ``start + arange(n) * interval`` would get wrong.
BUSY_SWEEPS = (
    _sweep(10.0, 64.0, 0.02),
    _sweep(12.0, 1 / 0.03, 0.01, port=22, scanner=0xC6000002, link=LINK_COMMERCIAL2),
    _sweep(30.0, 173.0, 0.05, port=443, scanner=0xC6000003),
)


def busy_mix(sweeps=BUSY_SWEEPS, noise=40_000.0) -> TrafficMix:
    return TrafficMix(
        scan_plan=ScanPlan(sweeps=tuple(sweeps)),
        diurnal=default_diurnal(Calendar()),
        academic_fraction=0.2,
        outbound_noise_flows_per_day=noise,
    )


#: The dataset-sized examples: a failing one is reported as drawn
#: (shrinking would regenerate the reference hundreds of times).
_NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


class TestBytes:
    def test_flows_without_an_address_draw_and_are_dropped(self, busy_population):
        mix = TrafficMix.quiet()
        capture = _gathered(border_column_batches(busy_population, mix, 3, 0.0, 120.0))
        lost = (capture.dst == CAMPUS + 200) | (capture.dst == CAMPUS + 201)
        assert lost.any()
        syn_times = capture.time[lost & (capture.flags == 2)]
        assert not ((30.0 <= syn_times) & (syn_times < 70.0)).any()
        assert_same_capture(busy_population, mix, 3, 0.0, 120.0)

    @pytest.mark.parametrize("mix", [
        pytest.param(TrafficMix.quiet(), id="quiet"),
        pytest.param(busy_mix(sweeps=()), id="no-scans"),
        pytest.param(busy_mix(noise=0.0), id="no-noise"),
    ])
    def test_partial_mixes(self, busy_population, mix):
        assert assert_same_capture(busy_population, mix, 5, 0.0, 90.0)

    def test_noise_only_and_scans_only(self):
        idle = _population([_host(0, [(80, PROTO_TCP, 0.0, 1)])])
        assert assert_same_capture(idle, busy_mix(sweeps=()), 5, 0.0, 60.0)
        assert assert_same_capture(idle, busy_mix(noise=0.0), 5, 0.0, 60.0)

    def test_partial_coverage_sweep_and_sweep_cut_by_end(self, busy_population):
        sparse = _sweep(0.0, 97.0, 0.013)
        full = _sweep(5.0, 150.0, 1.0, port=22)  # would run for minutes
        mix = busy_mix(sweeps=(sparse, full), noise=0.0)
        count = assert_same_capture(busy_population, mix, 9, 0.0, 25.0)
        assert 3000 < count < 5000
        # 1/64 s is exact in binary: the 33rd probe is due at 10.5 sharp,
        # which is not before the end.
        on_the_dot = busy_mix(sweeps=BUSY_SWEEPS[:1], noise=0.0)
        capture = _gathered(
            border_column_batches(busy_population, on_the_dot, 9, 10.0, 10.5)
        )
        assert (capture.src == BUSY_SWEEPS[0].scanner).sum() == 32
        assert_same_capture(busy_population, on_the_dot, 9, 10.0, 10.5)

    def test_sweeps_past_end_and_unsorted_plans(self, busy_population):
        sweeps = (_sweep(50.0, 80.0, 0.01), _sweep(500.0, 80.0, 0.01),
                  _sweep(20.0, 60.0, 0.01, port=22))
        assert_same_capture(
            busy_population, busy_mix(sweeps=sweeps), 2, 0.0, 100.0
        )

    @pytest.mark.parametrize("sizes", [dict(batch_records=0), dict(skip=-1)])
    def test_bad_batching_rejected(self, busy_population, sizes):
        with pytest.raises(ValueError):
            next(border_column_batches(
                busy_population, TrafficMix.quiet(), 1, 0.0, 10.0, **sizes
            ))

    @pytest.mark.parametrize("end", [0.0, -5.0])
    def test_empty_pass(self, busy_population, end):
        mix = busy_mix(sweeps=())
        assert list(border_column_batches(busy_population, mix, 1, 0.0, end)) == []
        assert assert_same_capture(busy_population, mix, 1, 0.0, end) == 0

    def test_sources_tied_to_the_bit(self, busy_population):
        """Ties between sources fall to merge order: clients, sweeps in
        plan order, noise.  A sweep is started at the exact instant a
        noise reply is due, another with a client flow's SYN-ACK, and
        two sweeps share a clock -- and since a window ends where a
        sweep starts, each tie also sits exactly on a window bound."""
        seed, end = 4, 60.0
        plain = busy_mix(sweeps=())
        sources = source_streams(busy_population, plain, seed, 0.0, end)
        client_reply = [r.time for r in sources["client"] if r.flags == 0x12][40]
        noise_reply = [r.time for r in sources["noise"] if r.flags == 0x12][10]
        sweeps = (
            _sweep(client_reply, 64.0, 0.003),
            _sweep(noise_reply, 64.0, 0.003, port=22, scanner=0xC6000002),
            _sweep(noise_reply, 64.0, 0.003, port=25, scanner=0xC6000003),
        )
        mix = busy_mix(sweeps=sweeps)
        reference = list(reference_stream(busy_population, mix, seed, 0.0, end))
        times = [r.time for r in reference]
        assert times.count(client_reply) == 2 and times.count(noise_reply) == 3
        assert_same_capture(busy_population, mix, seed, 0.0, end)

    @given(
        seed=st.integers(0, 2**32),
        end=st.floats(0.0, days(1.0)) | st.floats(days(1.4), days(2.2)),
        batch_records=st.integers(1, 20_000), skip=st.integers(0, 30_000),
    )
    @settings(max_examples=8, deadline=None, phases=_NO_SHRINK)
    def test_small_dataset(self, small_dtcp18, seed, end, batch_records, skip):
        assert_same_capture(
            small_dtcp18.population, small_dtcp18.mix, seed, 0.0, end,
            batch_records, skip,
        )

    @given(seed=st.integers(0, 2**32), end=st.floats(0.0, hours(6)))
    @settings(max_examples=8, deadline=None, phases=_NO_SHRINK)
    def test_udp_dataset(self, small_dudp, seed, end):
        count = assert_same_capture(
            small_dudp.population, small_dudp.mix, seed, 0.0, end
        )
        assert end < hours(1) or count

    @given(seed=st.integers(0, 2**32), end=st.floats(0.0, 120.0))
    @settings(max_examples=25, deadline=None)
    def test_busy_population(self, busy_population, seed, end):
        """Includes the transient host whose ``address_of`` is None
        mid-walk and sweeps cut by *end*."""
        assert_same_capture(busy_population, busy_mix(), seed, 0.0, end)

    @pytest.mark.parametrize("name,scale,fraction", [
        ("DTCP1", 0.01, 0.2),
        ("DTCP1-90d", 0.01, 0.2),
        ("DTCP1-18d-trans", 0.02, 1.0),
        ("DTCP1-12h", 0.02, 0.37),
        ("DTCPbreak", 0.02, 1.0),
    ])
    def test_registry_datasets(self, monkeypatch, name, scale, fraction):
        """Whole registry builds through ``column_batches`` (cache off),
        full length and truncated."""
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        built = build_dataset(name, seed=2, scale=scale)
        end = built.duration * fraction
        reference = list(reference_stream(
            built.population, built.mix, built.traffic_seed, 0.0, end
        ))
        assert reference
        assert_same_columns(
            _gathered(built.column_batches(end=end)),
            RecordColumns.from_records(reference),
        )


# ---- (c) window invariance ------------------------------------------------------


class TestWindowInvariance:
    END = 45.0

    @pytest.fixture(scope="class")
    def capture(self, busy_population):
        reference = list(reference_stream(
            busy_population, busy_mix(), 6, 0.0, self.END
        ))
        return RecordColumns.from_records(reference)

    def _windows(self, population, bounds):
        return list(_border_windows(
            population, busy_mix(), 6, 0.0, self.END, bounds=bounds
        ))

    @given(st.lists(st.floats(-5.0, 60.0), max_size=30).map(sorted))
    @settings(max_examples=40, deadline=None)
    def test_any_bounds(self, busy_population, capture, bounds):
        assert_same_columns(
            _gathered(self._windows(busy_population, bounds)), capture
        )

    @pytest.mark.parametrize("bounds", [
        pytest.param([], id="none"),
        pytest.param(list(range(0, 46)), id="every-second"),
        pytest.param([60.0, 70.0, inf], id="past-end"),
        pytest.param([10.0] * 3 + [10.5] * 2 + [30.0] * 4, id="repeated"),
    ])
    def test_named_bounds(self, busy_population, capture, bounds):
        windows = self._windows(busy_population, bounds)
        assert len(windows) <= len(bounds) + 1
        assert_same_columns(_gathered(windows), capture)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_bounds_on_packet_times(self, busy_population, capture, data):
        """Bounds that *are* packet times: a row at a bound belongs to
        the window after it, in every source."""
        instants = sorted(set(capture.time.tolist()))
        bounds = sorted(data.draw(
            st.lists(st.sampled_from(instants), min_size=1, max_size=25)
        ))
        assert_same_columns(
            _gathered(self._windows(busy_population, bounds)), capture
        )

    def test_paced_windows_stay_near_a_batch(self, small_dtcp18):
        """The real pacing over a real dataset: full sweeps (64k probes
        in minutes), the quiet between them and the small sweeps that
        ride in it all land in windows of a batch or so."""
        windows = _border_windows(
            small_dtcp18.population, small_dtcp18.mix,
            small_dtcp18.traffic_seed, 0.0, small_dtcp18.duration,
        )
        sizes = [len(window) for window in windows]
        assert sum(sizes) > 150_000
        assert max(sizes) < 3 * 8192
        assert len(sizes) < 4 * sum(sizes) / 8192


# ---- telemetry parity -----------------------------------------------------------


class TestTrafficCounters:
    @pytest.fixture()
    def reg(self):
        reg = MetricRegistry()
        set_registry(reg)
        yield reg
        disable()

    @staticmethod
    def _records(reg) -> dict:
        return {
            category: reg.value("repro_traffic_records_total", category=category)
            for category in ("client", "scan", "noise")
        }

    def test_counters_are_the_reference_sources_counts(self, reg, busy_population):
        mix, seed, end = busy_mix(), 8, 50.0
        total = sum(
            len(batch)
            for batch in border_column_batches(busy_population, mix, seed, 0.0, end)
        )
        per_source = {
            category: sum(1 for _ in stream)
            for category, stream in source_streams(
                busy_population, mix, seed, 0.0, end
            ).items()
        }
        assert self._records(reg) == per_source
        assert sum(per_source.values()) == total
        flows = sum(
            1 for r in source_streams(busy_population, mix, seed, 0.0, end)["client"]
            if r.flags in (0x02, 0x00) and r.dst >> 16 == CAMPUS >> 16
        )
        assert reg.value("repro_traffic_flows_total", category="client") == flows

    def test_absent_sources_have_no_series(self, reg, busy_population):
        list(border_column_batches(
            busy_population, TrafficMix.quiet(), 8, 0.0, 20.0
        ))
        counts = self._records(reg)
        assert counts["client"] > 0
        assert counts["scan"] is None and counts["noise"] is None

    def test_a_pass_closed_after_one_batch_still_flushes(self, reg, small_dtcp18):
        batches = small_dtcp18.column_batches(end=small_dtcp18.duration / 2)
        first = next(batches)
        assert self._records(reg) == dict.fromkeys(("client", "scan", "noise"))
        batches.close()
        counts = self._records(reg)
        generated = sum(counts.values())
        # What was generated is the windows it took to fill one batch.
        assert len(first) <= generated < 4 * len(first)
        assert reg.value("repro_traffic_flows_total", category="client") > 0
