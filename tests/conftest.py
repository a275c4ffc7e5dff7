"""Shared fixtures.

Full-scale datasets take tens of seconds to build and replay, so the
test suite works against small-scale builds (the population synthesiser
and all analyses are scale-parametric).  Expensive builds are session
scoped and shared; anything mutating must copy.
"""

from __future__ import annotations

import functools
import os
import tempfile

import pytest

# Exercise the record-once trace cache on every dataset replay, but in
# a throwaway directory: the suite must not read or pollute the user's
# ~/.cache/repro.  Respect an explicit override (e.g. CI's warm run).
os.environ.setdefault(
    "REPRO_TRACE_CACHE", tempfile.mkdtemp(prefix="repro-trace-cache-")
)

from hypothesis import HealthCheck, settings

from repro.campus.population import synthesize_population
from repro.campus.profiles import semester_profile
from repro.datasets import build_dataset
from repro.experiments import fidelity
from repro.experiments.runner import run_experiment
from repro.simkernel.clock import days, hours
from repro.stream import fabric, ingest, membership

#: Scale used by most dataset-level tests.
SMALL_SCALE = 0.04

#: The stream run machine's deeper pass (CI runs
#: ``tests/test_stream_run_machine.py --hypothesis-profile=deep``):
#: many more runs, each stepped much further before its teardown.
settings.register_profile(
    "deep",
    max_examples=60,
    stateful_step_count=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: The stream runtime's timing constants, by the keyword a test sets
#: one with (:func:`timings`).  Each is read where it is used, so a
#: patch reaches tables and ingestors already built, and a fabric
#: worker forked afterwards inherits it.
_TIMINGS = {
    "heartbeat_interval": (membership, "HEARTBEAT_SECONDS"),
    "miss_budget": (membership, "MISS_BUDGET"),
    "join_timeout": (membership, "JOIN_TIMEOUT_SECONDS"),
    "max_restarts": (fabric, "MAX_RESTARTS"),
    "restart_backoff": (fabric, "RESTART_BACKOFF_SECONDS"),
    "restart_backoff_max": (fabric, "RESTART_BACKOFF_MAX_SECONDS"),
    "put_timeout": (fabric, "PUT_TIMEOUT_SECONDS"),
    "stall_timeout": (fabric, "STALL_TIMEOUT_SECONDS"),
    "queue_chunks": (ingest, "MAX_QUEUE_CHUNKS"),
    "ingest_put_timeout": (ingest, "PUT_TIMEOUT_SECONDS"),
    "ingest_stall_timeout": (ingest, "STALL_TIMEOUT_SECONDS"),
}

#: Supervision tuned for tests: fast heartbeats so injected stalls and
#: dropped heartbeats are detected in fractions of a second, and a
#: short restart backoff.
FAST_FABRIC = dict(
    heartbeat_interval=0.05,
    miss_budget=4,
    restart_backoff=0.01,
    restart_backoff_max=0.05,
)


@pytest.fixture
def timings(monkeypatch):
    """``timings(**values)``: set stream-runtime timing constants (the
    keywords of :data:`_TIMINGS`) for one test; returns the setter."""

    def set_timings(**values) -> None:
        for name, value in values.items():
            module, constant = _TIMINGS[name]
            monkeypatch.setattr(module, constant, value)

    return set_timings


@pytest.fixture
def fast_fabric(timings):
    """:data:`FAST_FABRIC` for one test; returns :func:`timings`'
    setter for whatever else the test changes."""
    timings(**FAST_FABRIC)
    return timings


@pytest.fixture(scope="session")
def small_population():
    """A small semester population over 18 days."""
    profile = semester_profile(scale=SMALL_SCALE)
    return synthesize_population(profile, seed=1234, duration=days(18))


@pytest.fixture(scope="session")
def small_dtcp18(request):
    """A small-scale DTCP1-18d build (population + scans + trace)."""
    return build_dataset("DTCP1-18d", seed=7, scale=SMALL_SCALE)


@pytest.fixture(scope="module")
def record_sample(small_dtcp18):
    """A couple of thousand real border records (one partial pass)."""
    from itertools import islice

    return list(islice(small_dtcp18.packet_stream(end=hours(12)), 4000))


@pytest.fixture(scope="session")
def small_dtcp18_passive(small_dtcp18):
    """The small build plus one standard passive replay."""
    from repro.passive.monitor import PassiveServiceTable

    table = PassiveServiceTable(
        is_campus=small_dtcp18.is_campus, tcp_ports=small_dtcp18.tcp_ports
    )
    small_dtcp18.replay(table)
    return small_dtcp18, table


@pytest.fixture(scope="session")
def small_dudp():
    """A small-scale DUDP build."""
    return build_dataset("DUDP", seed=9, scale=0.05)


@pytest.fixture(scope="session")
def allports_dataset():
    """The DTCPall build (a /24, cheap even at full scale)."""
    return build_dataset("DTCPall", seed=5, scale=1.0)


@pytest.fixture(scope="session")
def cached_run():
    """``run_experiment`` memoised for the session, so the harness
    tests, the ledger's well-formedness check and the tier-1 gate share
    one run of each ``(experiment, seed, scale)``."""
    return functools.cache(run_experiment)


@pytest.fixture(scope="session")
def ledger_at(cached_run):
    """``ledger_at(scale, seed)``: the fidelity ledger's verdicts by row
    id for every row that scale admits, evaluated once per session."""

    @functools.cache
    def at(scale: float, seed: int) -> dict[str, fidelity.RowVerdict]:
        verdicts = fidelity.evaluate((seed,), scale, run=cached_run)
        return {verdict.row.id: verdict for verdict in verdicts}

    return at


@pytest.fixture(scope="session")
def ledger_holds(ledger_at):
    """``ledger_holds(scale, seed, *row_ids)``: assert the named ledger
    rows hold there.  A row the scale does not admit is a ``KeyError``:
    the tests that keep a pre-ledger node id alive name their rows."""

    def holds(scale: float, seed: int, *row_ids: str) -> None:
        verdicts = ledger_at(scale, seed)
        for row_id in row_ids:
            assert verdicts[row_id].verdict != "fail", verdicts[row_id].describe()

    return holds
