"""Tests for the query subsystem's data layer (:mod:`repro.query`).

Covers the snapshot structures (copy-on-publish payloads, dict-union
merge, last-seen fallback, filtered service listings), liveness
inference over synthetic evidence, the pure request router, the
report/query equivalence invariant (the final report's passive counts
and an exhaustive ``/services`` query come from one snapshot), and the
``checkpoint prune`` CLI wrapper.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.net.addr import parse_ipv4
from repro.net.packet import PROTO_TCP, PROTO_UDP
from repro.query import (
    ActiveView,
    DEFAULT_HORIZON,
    DiscoverySnapshot,
    QueryState,
    handle_request,
    infer_liveness,
    merge_snapshot_payloads,
    snapshot_states,
)
from repro.query.http import parse_since
from repro.simkernel.clock import hours
from repro.stream import StreamConfig, StreamEngine, batch_survey_report

#: Must match the session-scoped ``small_dtcp18`` fixture's build.
SMALL = dict(dataset="DTCP1-18d", seed=7, scale=0.04)

A1 = parse_ipv4("128.125.1.10")
A2 = parse_ipv4("128.125.2.20")
A3 = parse_ipv4("128.125.3.30")


def make_snapshot(**overrides) -> DiscoverySnapshot:
    fields = dict(
        version=1,
        now=hours(100),
        records=1000,
        first_seen={
            (A1, 80, PROTO_TCP): hours(1),
            (A1, 443, PROTO_TCP): hours(2),
            (A2, 53, PROTO_UDP): hours(3),
        },
        last_seen={(A1, 80, PROTO_TCP): hours(99)},
        flows={(A1, 80, PROTO_TCP): 7},
        clients={(A1, 80, PROTO_TCP): 3},
    )
    fields.update(overrides)
    return DiscoverySnapshot(**fields)


class TestSnapshot:
    def test_last_seen_falls_back_to_first_seen(self):
        snapshot = make_snapshot()
        assert snapshot.last_seen_of((A1, 80, PROTO_TCP)) == hours(99)
        assert snapshot.last_seen_of((A1, 443, PROTO_TCP)) == hours(2)

    def test_server_addresses_and_endpoints(self):
        snapshot = make_snapshot()
        assert snapshot.server_addresses() == {A1, A2}
        assert len(snapshot.endpoints()) == 3

    def test_service_row_shape(self):
        row = make_snapshot().service_row((A1, 80, PROTO_TCP))
        assert row == {
            "address": "128.125.1.10",
            "port": 80,
            "proto": "tcp",
            "evidence": "syn-ack",
            "first_seen": hours(1),
            "last_seen": hours(99),
            "flows": 7,
            "clients": 3,
        }

    def test_services_filters(self):
        snapshot = make_snapshot()
        assert len(snapshot.services()) == 3
        assert len(snapshot.services(proto=PROTO_TCP)) == 2
        assert [row["port"] for row in snapshot.services(port=53)] == [53]
        # since: only the endpoint refreshed at h99 is within 12h of h100.
        recent = snapshot.services(since=hours(12))
        assert [(row["address"], row["port"]) for row in recent] == [
            ("128.125.1.10", 80)
        ]

    def test_services_sorted_stably(self):
        rows = make_snapshot().services()
        keys = [(row["address"], row["port"], row["proto"]) for row in rows]
        assert keys == sorted(keys)

    def test_merge_payloads_is_disjoint_union(self):
        one = {
            "records": 10,
            "first_seen": {(A1, 80, PROTO_TCP): 1.0},
            "last_seen": {(A1, 80, PROTO_TCP): 5.0},
            "flows": {(A1, 80, PROTO_TCP): 2},
            "clients": {(A1, 80, PROTO_TCP): 1},
        }
        two = {
            "records": 20,
            "first_seen": {(A2, 53, PROTO_UDP): 2.0},
            "last_seen": {},
            "flows": {(A2, 53, PROTO_UDP): 4},
            "clients": {(A2, 53, PROTO_UDP): 2},
        }
        merged = merge_snapshot_payloads([one, two], now=6.0, records=30)
        assert merged.server_addresses() == {A1, A2}
        assert merged.records == 30
        assert merged.flows[(A2, 53, PROTO_UDP)] == 4

    def test_with_version_does_not_mutate(self):
        snapshot = make_snapshot()
        stamped = snapshot.with_version(9)
        assert stamped.version == 9 and snapshot.version == 1
        assert stamped.first_seen is snapshot.first_seen


class TestQueryState:
    def test_publish_stamps_monotone_versions(self):
        state = QueryState()
        assert state.snapshot().version == 0
        first = state.publish(make_snapshot(version=0))
        second = state.publish(make_snapshot(version=0))
        assert (first.version, second.version) == (1, 2)
        assert state.snapshot() is second

    def test_health_reflects_ingest_status(self):
        state = QueryState()
        assert state.health()["ingest"] == "starting"
        state.publish(make_snapshot())
        assert state.health()["ingest"] == "running"
        state.mark_failed("boom")
        health = state.health()
        assert health["ok"] is False and health["error"] == "boom"


class TestLiveness:
    def view(self, sweeps=()):
        return ActiveView(sweeps=tuple(sweeps))

    def test_alive_on_recent_passive_evidence(self):
        snapshot = make_snapshot()  # A1:80 last seen h99, now h100
        verdict = infer_liveness(A1, snapshot, self.view())
        assert verdict["verdict"] == "alive"
        assert verdict["last_passive_seen"] == hours(99)

    def test_stale_without_probing(self):
        # Last evidence h3, now h100, no sweep since: absence only.
        verdict = infer_liveness(A2, make_snapshot(), self.view())
        assert verdict["verdict"] == "stale"

    def test_likely_down_on_negative_evidence(self):
        # A sweep completed at h50 (after A2's h3 evidence, before now)
        # without finding A2 open: positive negative evidence.
        view = self.view(sweeps=[(hours(50), frozenset({A1}))])
        verdict = infer_liveness(A2, make_snapshot(), view)
        assert verdict["verdict"] == "likely-down"
        assert verdict["probed_since_last_evidence"] is True

    def test_alive_on_recent_active_evidence_only(self):
        # A3 has no passive services but a sweep found it within 12h.
        view = self.view(sweeps=[(hours(95), frozenset({A3}))])
        verdict = infer_liveness(A3, make_snapshot(), view)
        assert verdict["verdict"] == "alive"
        assert verdict["last_passive_seen"] is None
        assert verdict["last_active_seen"] == hours(95)

    def test_never_seen(self):
        verdict = infer_liveness(A3, make_snapshot(), self.view())
        assert verdict["verdict"] == "never-seen"
        assert verdict["seconds_since_evidence"] is None

    def test_future_sweeps_are_invisible_mid_stream(self):
        # A sweep completing after the snapshot's stream time must not
        # count -- the mid-stream consistency rule.
        view = self.view(sweeps=[(hours(200), frozenset({A3}))])
        verdict = infer_liveness(A3, make_snapshot(), view)
        assert verdict["verdict"] == "never-seen"
        assert verdict["sweeps_completed"] == 0

    def test_default_horizon_is_the_sweep_cadence(self):
        assert DEFAULT_HORIZON == hours(12)


class TestParseSince:
    def test_units(self):
        assert parse_since("3600") == 3600.0
        assert parse_since("12h") == hours(12)
        assert parse_since("30m") == 1800.0
        assert parse_since("2d") == 172800.0
        assert parse_since("90s") == 90.0


def routed(state, target):
    status, content_type, body = handle_request(state, "GET", target)
    if content_type.startswith("application/json"):
        return status, json.loads(body)
    return status, body.decode()


class TestHandleRequest:
    @pytest.fixture()
    def state(self):
        state = QueryState()
        state.publish(make_snapshot(version=0))
        return state

    def test_host_endpoint(self, state):
        status, body = routed(state, "/host/128.125.1.10")
        assert status == 200
        assert body["address"] == "128.125.1.10"
        assert [row["port"] for row in body["services"]] == [80, 443]
        assert body["snapshot"]["version"] == 1

    def test_host_unknown_is_404(self, state):
        status, body = routed(state, "/host/10.0.0.1")
        assert status == 404 and "error" in body

    def test_bad_address_is_400(self, state):
        status, body = routed(state, "/host/999.1.2.3")
        assert status == 400
        status, body = routed(state, "/liveness/not-an-ip")
        assert status == 400

    def test_services_filters_and_limit(self, state):
        status, body = routed(state, "/services?proto=tcp&since=200h")
        assert status == 200 and len(body["services"]) == 2
        status, body = routed(state, "/services?limit=1")
        assert status == 200 and len(body["services"]) == 1
        status, body = routed(state, "/services?proto=gopher")
        assert status == 400
        status, body = routed(state, "/services?port=web")
        assert status == 400
        status, body = routed(state, "/services?since=-5")
        assert status == 400
        # A NaN cutoff fails every comparison: it would list every row.
        status, body = routed(state, "/services?since=nan")
        assert status == 400
        status, body = routed(state, "/services?since=nanh")
        assert status == 400
        status, body = routed(state, "/services?since=inf")
        assert status == 200 and len(body["services"]) == 3

    def test_liveness_endpoint(self, state):
        status, body = routed(state, "/liveness/128.125.1.10")
        assert status == 200 and body["verdict"] == "alive"

    def test_watermarks_and_healthz(self, state):
        status, body = routed(state, "/watermarks")
        assert status == 200 and body["watermarks"] == []
        status, body = routed(state, "/healthz")
        assert status == 200 and body["ok"] is True

    def test_unknown_path_is_404_and_post_is_405(self, state):
        status, _ = routed(state, "/nope")
        assert status == 404
        status, _, _ = handle_request(state, "POST", "/services")
        assert status == 405

    def test_healthz_failed_ingest_is_503(self, state):
        state.mark_failed("exploded")
        status, body = routed(state, "/healthz")
        assert status == 503 and body["ok"] is False


class TestReportQueryEquivalence:
    """Satellite 1: the report and the query path cannot disagree."""

    @pytest.fixture(scope="class")
    def result(self, small_dtcp18):
        config = StreamConfig(**SMALL, shards=3)
        return config, StreamEngine(config, dataset=small_dtcp18).run()

    def test_stream_report_matches_batch_oracle(self, result, small_dtcp18):
        config, run = result
        assert run.report == batch_survey_report(config, dataset=small_dtcp18)

    def test_report_counts_equal_exhaustive_services_query(self, result):
        _, run = result
        rows = run.snapshot.services()
        # The report's "Passive" row is |passive addresses|; /services
        # with no filters enumerates every endpoint of those addresses.
        addresses = {row["address"] for row in rows}
        assert len(addresses) == run.summary.passive_total
        assert len(rows) == len(run.table.endpoints())

    def test_snapshot_matches_merged_table(self, result):
        _, run = result
        assert run.snapshot.server_addresses() == run.table.server_addresses()
        assert dict(run.snapshot.first_seen) == dict(run.table.first_seen)
        # The streaming last-seen timeline is carried through unchanged.
        assert dict(run.snapshot.last_seen) == dict(run.table.last_seen)

    def test_snapshot_payloads_round_trip_consistently(self, result, small_dtcp18):
        # Re-merging per-shard payloads (the fabric's aggregation path)
        # equals the in-process merge: one union, two transports.
        config, run = result
        engine = StreamEngine(config, dataset=small_dtcp18)
        fresh = engine.run()
        rebuilt = snapshot_states(
            [], now=fresh.snapshot.now, records=fresh.snapshot.records
        )
        assert rebuilt.server_addresses() == set()
        assert fresh.snapshot.first_seen == run.snapshot.first_seen


class TestCheckpointPruneCommand:
    def seed_store(self, root, generations):
        from repro.stream import ShardCheckpointStore

        # A large retention window so seeding does not self-prune.
        store = ShardCheckpointStore(root, keep_generations=100)
        identity = {"dataset": "x", "seed": 0, "scale": 1.0, "shards": 1,
                    "fault_digest": None}
        for generation in generations:
            store.save_shard(0, generation, identity, {"index": 0})
            store.save_manifest(generation, identity, {
                "records_read": 0, "records_delivered": 0, "now": 0.0,
                "emitted_index": 0, "watermarks": [], "faults": None,
            })
        return store

    def test_prune_keeps_newest_n(self, tmp_path, capsys):
        root = tmp_path / "store"
        self.seed_store(root, [1, 2, 3, 4])
        assert main(["checkpoint", "prune", str(root), "--keep", "2"]) == 0
        out = capsys.readouterr().out
        assert "kept 2 generation(s) (newest 4)" in out
        assert "removed" in out
        from repro.stream import ShardCheckpointStore

        assert ShardCheckpointStore(root).generations() == [4, 3]

    def test_prune_empty_store(self, tmp_path, capsys):
        root = tmp_path / "empty"
        root.mkdir()
        assert main(["checkpoint", "prune", str(root)]) == 0
        assert "nothing to prune" in capsys.readouterr().out

    def test_prune_missing_directory_fails(self, tmp_path, capsys):
        assert main(["checkpoint", "prune", str(tmp_path / "absent")]) == 1
        assert "does not exist" in capsys.readouterr().err
