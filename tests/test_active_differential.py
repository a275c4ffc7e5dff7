"""Differential tests: the array build-time sweeps against the scalar loops.

``HalfOpenScanner.scan`` and ``GenericUdpProber.scan`` resolve a sweep
as one outcome grid per scanning machine over the population's
``ProbeResponseIndex``; :mod:`tests.active_reference` keeps the
probe-at-a-time loops they replaced.  The two must produce the same
report -- open order and float open times, counters, every address
set, down to the pickled bytes, since scan reports are part of a built
dataset -- and, under a fault plan, leave the fault model in the same
state: the same retransmit and timeout tallies and the same position
in every machine's random stream.

The golden digests at the bottom were recorded from the scalar
implementation (commit 3229830) and pin whole ``build_dataset`` runs.
"""

from __future__ import annotations

import hashlib
import pickle
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.active import prober
from repro.active.prober import HalfOpenScanner
from repro.active.udp_scan import GenericUdpProber
from repro.datasets import build_dataset
from repro.faults import FaultPlan
from repro.net.ports import SELECTED_TCP_PORTS, SELECTED_UDP_PORTS
from repro.simkernel.clock import days, hours
from repro.simkernel.rng import derive_seed
from tests.active_reference import ReferenceScanner, ReferenceUdpProber
from tests.test_probe_differential import edge_campus

PROPERTY = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

#: Addresses of :func:`edge_campus`; 999 and 3000 are never held.
EDGE_ADDRESSES = [999, 1000, 1001, 1002, 1003, 2000, 3000]
EDGE_PORTS = [22, 53, 80, 27015, 9999]


def machine_states(faults) -> dict:
    """Where each scanning machine's random stream stands."""
    return {
        machine: state.rng.getstate()
        for machine, state in faults._machines.items()
    }


def assert_same_tcp_sweep(
    population, machines, plan, targets, ports, start, duration, as_array=False
):
    scalar, scalar_faults = ReferenceScanner(
        population, faults=plan, machines=machines
    )._sweep(targets, ports, start, duration, scan_id=3)
    handed = np.asarray(targets, dtype=np.int64) if as_array else targets
    with mock.patch.object(prober, "MACHINES", machines):
        swept, faults = HalfOpenScanner(population, faults=plan)._sweep(
            handed, ports, start, duration, scan_id=3
        )
    assert swept.opens == scalar.opens
    assert swept == scalar
    assert pickle.dumps(swept) == pickle.dumps(scalar)
    if scalar_faults is None:
        assert faults is None
    else:
        assert (faults.retransmits, faults.timeouts) == (
            scalar_faults.retransmits, scalar_faults.timeouts
        )
        assert machine_states(faults) == machine_states(scalar_faults)
    return swept


@st.composite
def fault_plans(draw):
    """None, or a plan with any mix of the three probe faults."""
    if draw(st.booleans()):
        return None
    rate = st.sampled_from([0.0, 0.05, 0.3, 1.0])
    return FaultPlan(
        seed=draw(st.integers(0, 5)),
        probe_loss_rate=draw(rate),
        response_loss_rate=draw(rate),
        probe_retries=draw(st.integers(0, 2)),
        prober_downtime_fraction=draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])),
    )


@st.composite
def target_lists(draw, dataset):
    """Probe targets with gaps, duplicates, strangers and, maybe, no order.

    A strided slice of the dataset's target list (mostly addresses
    nobody ever held) plus a slice of the held ones, so every example
    has a few hundred probes that reach a host.
    """
    pool = dataset.probe_targets()
    held = sorted(dataset.population.ledger.addresses_ever_used() & set(pool))
    stride = draw(st.integers(5, 60))
    targets = pool[draw(st.integers(0, stride - 1))::stride]
    targets += held[draw(st.integers(0, 3))::draw(st.integers(1, 4))]
    targets += draw(st.lists(st.sampled_from(targets), max_size=5))
    targets += draw(st.lists(st.sampled_from([1, 77, 2**31 + 5]), max_size=3))
    if draw(st.booleans()):
        random.Random(draw(st.integers(0, 9))).shuffle(targets)
    return targets


# ---- TCP -------------------------------------------------------------------


@PROPERTY
@given(data=st.data())
def test_tcp_sweep_matches_scalar_reference(small_dtcp18, data):
    draw = data.draw
    targets = draw(target_lists(small_dtcp18))
    ports = draw(st.lists(st.sampled_from(SELECTED_TCP_PORTS), min_size=1, max_size=4))
    duration = draw(st.sampled_from([600.0, 4321.5, hours(1.75)]))
    report = assert_same_tcp_sweep(
        small_dtcp18.population, draw(st.integers(1, 3)), draw(fault_plans()),
        targets, ports,
        start=draw(st.floats(0.0, days(17))), duration=duration,
        as_array=draw(st.booleans()),
    )
    assert report.counts.total == len(targets) * len(ports)


@PROPERTY
@given(data=st.data())
def test_tcp_sweep_matches_scalar_reference_at_interval_edges(data):
    """Probe instants that land exactly on tenure and up-window edges."""
    draw = data.draw
    targets = draw(st.lists(st.sampled_from(EDGE_ADDRESSES), min_size=1, max_size=24))
    ports = draw(st.lists(st.sampled_from(EDGE_PORTS), min_size=1, max_size=5))
    machines = draw(st.integers(1, 3))
    # Every edge of the campus is a multiple of 2.5 s, and so is every
    # probe instant of all but the last machine's chunk.
    step = draw(st.sampled_from([2.5, 5.0]))
    per_machine = -(-len(targets) // machines)
    assert_same_tcp_sweep(
        edge_campus(), machines, draw(fault_plans()), targets, ports,
        start=draw(st.sampled_from([0.0, 5.0, 20.0, 42.5])),
        duration=step * per_machine,
    )


class PinnedDowntime:
    """A fault plan whose machine 0 goes down over exactly ``window``."""

    is_null = False

    def __init__(self, plan: FaultPlan, window: tuple[float, float]) -> None:
        self.plan, self.window = plan, window

    def probe_faults(self, scan_id, start, duration):
        faults = self.plan.probe_faults(scan_id, start, duration)
        state = faults._machine(0)
        state.down_start, state.down_end = self.window
        return faults


def test_downtime_window_is_half_open_at_probe_instants():
    """A probe at ``down_start`` is never sent; one at ``down_end`` is."""
    plan = PinnedDowntime(
        FaultPlan(seed=1, prober_downtime_fraction=0.5), window=(30.0, 45.0)
    )
    # Probes at 20, 25, ..., 55.  Address 1000 answers on port 80 from
    # 20 to 50, and is probed exactly at 30 and exactly at 45.
    targets = [1001, 1002, 1000, 1003, 2000, 1000, 1001, 1003]
    report = assert_same_tcp_sweep(
        edge_campus(), 1, plan, targets, [22, 80],
        start=20.0, duration=5.0 * len(targets),
    )
    assert [when for when, address, _ in report.opens if address == 1000] == [45.0]


# ---- UDP -------------------------------------------------------------------


@PROPERTY
@given(data=st.data())
def test_udp_sweep_matches_scalar_reference(small_dudp, data):
    draw = data.draw
    targets = draw(target_lists(small_dudp))
    ports = draw(st.lists(st.sampled_from(SELECTED_UDP_PORTS), min_size=1, max_size=4))
    args = (
        ports, draw(st.floats(0.0, hours(20))),
        draw(st.sampled_from([600.0, 4321.5, hours(1.75)])),
    )
    scalar = ReferenceUdpProber(small_dudp.population).scan(targets, *args)
    handed = np.asarray(targets) if draw(st.booleans()) else targets
    swept = GenericUdpProber(small_dudp.population).scan(handed, *args)
    assert swept == scalar
    assert pickle.dumps(swept) == pickle.dumps(scalar)


@PROPERTY
@given(data=st.data())
def test_udp_sweep_matches_scalar_reference_at_interval_edges(data):
    draw = data.draw
    targets = draw(st.lists(st.sampled_from(EDGE_ADDRESSES), min_size=1, max_size=24))
    ports = draw(st.lists(st.sampled_from(EDGE_PORTS), min_size=1, max_size=5))
    args = (
        ports, draw(st.sampled_from([0.0, 5.0, 20.0, 42.5])),
        draw(st.sampled_from([2.5, 5.0])) * len(targets),
    )
    population = edge_campus()
    scalar = ReferenceUdpProber(population).scan(targets, *args)
    swept = GenericUdpProber(population).scan(targets, *args)
    assert swept == scalar
    assert pickle.dumps(swept) == pickle.dumps(scalar)


# ---- the tenure table ------------------------------------------------------


def tenure_edge_grid(population, strangers=()):
    """(address, time) at every tenure edge and either side of it."""
    ledger = population.ledger
    grid = []
    for address in sorted(ledger.addresses_ever_used()):
        for tenure in ledger.tenures_of_address(address):
            for edge in (tenure.start, tenure.end):
                for t in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)):
                    grid.append((address, float(t)))
    grid += [(address, 50.0) for address in strangers]
    return grid


def test_occupied_matches_ledger_at_every_tenure_edge(small_dtcp18):
    for population, strangers in (
        (edge_campus(), (999, 3000)),
        (small_dtcp18.population, (1, 2**31 + 5)),
    ):
        grid = tenure_edge_grid(population, strangers)
        address, when = (np.asarray(column) for column in zip(*grid))
        index = population.probe_index
        occupied = index.occupied(index.slots(address), when)
        expected = [population.ledger.occupant(a, t) is not None for a, t in grid]
        assert occupied.tolist() == expected
        assert True in expected and False in expected


# ---- argument handling -----------------------------------------------------


def test_scans_take_numpy_targets_and_reject_empty_ones(small_dtcp18, small_dudp):
    scanner = HalfOpenScanner(small_dtcp18.population)
    targets = small_dtcp18.probe_target_array[::50]
    report = scanner.scan(targets, (80, 22), start=hours(1), duration=600.0)
    assert report == scanner.scan(targets.tolist(), (80, 22), hours(1), 600.0)
    assert all(type(address) is int for _, address, _ in report.opens)
    prober = GenericUdpProber(small_dudp.population)
    udp_targets = small_dudp.probe_target_array[::50]
    assert prober.scan(udp_targets, (53,), hours(1), 600.0) == prober.scan(
        udp_targets.tolist(), (53,), hours(1), 600.0
    )
    empty = np.empty(0, dtype=np.int64)
    for scan in (scanner.scan, prober.scan):
        with pytest.raises(ValueError, match="empty target list"):
            scan(empty, (80,), 0.0, 600.0)
    with pytest.raises(ValueError, match="empty target list"):
        scanner.scan_with_host_discovery(empty, (80,), 0.0, 600.0)


# ---- whole builds ----------------------------------------------------------

LOSSY = FaultPlan(
    seed=derive_seed(3, "faultplan"),
    probe_loss_rate=0.05, response_loss_rate=0.05, prober_downtime_fraction=0.1,
)

#: sha256 of ``pickle.dumps((scan_reports, udp_report))`` at scale 0.1,
#: as built by the per-address scanners.
GOLDEN = {
    ("DTCP1-18d", 0, None): "ed4f786906d9bac333b88c9a28a8bb8e7ce9c6b29c002c2959bfc87b8aebe547",
    ("DTCP1-18d", 1, None): "dbd7f9c5e251dedb982d32da95598a0802b027fdee589d2c04d11b9ce33204e1",
    ("DUDP", 0, None): "4ef327a38233758202aabfa43d150ffbc523b907361b09c08dbc528c21893d33",
    ("DUDP", 1, None): "da31a74d17e9501418a680570ed4107fe3420f3103d7fb994aaef28faf61b2fe",
    ("DTCPall", 0, None): "ebff9fc8a2bd34d8c1a53823126a632d3e0a14770272fa189ea97a580f06087d",
    ("DTCPall", 1, None): "a1fd8a81f3b60d7f82af812cfcadbc6013b2dd02199dd2fec4aab1ea71ce6e8f",
    # Passive-only: the digest is of ``([], None)`` and pins "no scans
    # taken", so one seed says it all.
    ("DTCP1-90d", 0, None): "f1840e230d1ca95c2a5e8704f6af431945b7e94f559ce15573bada286e5acad5",
    ("DTCP1-18d", 0, LOSSY): "bb1f6c23238550007d0a0fab2f01e1932dff5734f55f528c6ed0892c7af90b51",
}


@pytest.mark.parametrize(
    "name,seed,plan", list(GOLDEN),
    ids=[f"{name}-{seed}{'-lossy' if plan else ''}" for name, seed, plan in GOLDEN],
)
def test_built_scan_reports_match_golden_digest(name, seed, plan):
    dataset = build_dataset(name, seed=seed, scale=0.1, faults=plan)
    built = pickle.dumps((dataset.scan_reports, dataset.udp_report))
    assert hashlib.sha256(built).hexdigest() == GOLDEN[name, seed, plan]
