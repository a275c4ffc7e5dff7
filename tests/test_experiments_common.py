"""Tests for the experiment-layer shared machinery."""

import pytest

from repro.core.timeline import DiscoveryTimeline
from repro.experiments.common import (
    _SAMPLED_TABLES,
    _SCANLESS_TABLES,
    ExperimentResult,
    clear_caches,
    endpoints_for_port,
    get_context,
    get_dataset,
    passive_table_without_scanners,
    percent,
    sampled_tables,
)

SCALE = 0.03
SEED = 77


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestCaches:
    def test_dataset_cached(self):
        a = get_dataset("DTCPall", SEED, 1.0)
        b = get_dataset("DTCPall", SEED, 1.0)
        assert a is b

    def test_seed_keys_cache(self):
        a = get_dataset("DTCPall", SEED, 1.0)
        b = get_dataset("DTCPall", SEED + 1, 1.0)
        assert a is not b

    def test_context_cached_and_complete(self):
        context = get_context("DTCPall", SEED, 1.0)
        assert context is get_context("DTCPall", SEED, 1.0)
        assert context.records_replayed > 0
        assert context.table.first_seen
        assert context.link_monitor.total_servers()

    def test_clear_caches(self):
        first = get_context("DTCPall", SEED, 1.0)
        clear_caches()
        assert first is not get_context("DTCPall", SEED, 1.0)


class TestSecondPassCacheKeys:
    """Regression: these caches were once keyed by ``id(context)``.

    CPython reuses object ids after garbage collection, so an id key can
    silently serve a table built for a *different* context.  The caches
    must key by the context's identity-defining inputs instead.
    """

    def test_scanless_keyed_by_name_seed_scale(self):
        context_a = get_context("DTCPall", SEED, 1.0)
        context_b = get_context("DTCPall", SEED + 1, 1.0)
        table_a = passive_table_without_scanners(context_a)
        table_b = passive_table_without_scanners(context_b)
        assert table_a is not table_b
        assert table_a is passive_table_without_scanners(context_a)
        assert set(_SCANLESS_TABLES) == {
            ("DTCPall", SEED, 1.0),
            ("DTCPall", SEED + 1, 1.0),
        }

    def test_scanless_survives_context_identity_change(self):
        """An equal-key rebuild of the context still hits the cache."""
        table = passive_table_without_scanners(get_context("DTCPall", SEED, 1.0))
        # Drop only the context cache; the second-pass caches keep their
        # entries, keyed by (name, seed, scale), not object identity.
        from repro.experiments import common

        common._CONTEXTS.clear()
        rebuilt = get_context("DTCPall", SEED, 1.0)
        assert passive_table_without_scanners(rebuilt) is table

    def test_sampled_keyed_by_inputs_and_periods(self):
        context = get_context("DTCPall", SEED, 1.0)
        minutes = (1.0, 10.0)
        tables = sampled_tables(context, minutes)
        assert set(tables) == {1.0, 10.0}
        assert sampled_tables(context, minutes) is tables
        assert sampled_tables(context, (5.0,)) is not tables
        assert (("DTCPall", SEED, 1.0), minutes) in _SAMPLED_TABLES

    def test_clear_caches_empties_second_pass_caches(self):
        context = get_context("DTCPall", SEED, 1.0)
        passive_table_without_scanners(context)
        sampled_tables(context, (1.0,))
        clear_caches()
        assert not _SCANLESS_TABLES
        assert not _SAMPLED_TABLES


class TestContextViews:
    def test_timelines_consistent(self):
        context = get_context("DTCPall", SEED, 1.0)
        endpoint_count = len(context.passive_endpoint_timeline())
        address_count = len(context.passive_address_timeline())
        assert 0 < address_count <= endpoint_count
        assert context.passive_addresses() == context.passive_address_timeline().items()

    def test_active_views(self):
        context = get_context("DTCPall", SEED, 1.0)
        endpoints = context.active_endpoint_timeline()
        addresses = context.active_address_timeline()
        assert {a for a, _ in endpoints.items()} == addresses.items()
        assert context.active_addresses() == addresses.items()

    def test_weights(self):
        context = get_context("DTCPall", SEED, 1.0)
        flows = context.flow_weights_by_address()
        clients = context.client_weights_by_address()
        assert flows and clients
        assert set(clients) == set(flows)
        assert all(v > 0 for v in flows.values())

    def test_union(self):
        context = get_context("DTCPall", SEED, 1.0)
        union = context.union_addresses()
        assert union >= context.passive_addresses()
        assert union >= context.active_addresses()


class TestDrawOrder:
    def test_table5_does_not_depend_on_first_seen_insertion_order(self):
        """Table 5 draws one fetch stream across the web servers, so the
        draws must follow the servers, not the passive table's insertion
        history -- which follows the pass's batch cuts (a cold cache
        folds generated windows, a warm one 65,536-record chunks)."""
        from dataclasses import replace

        from repro.experiments import common, table5

        key = ("DTCP1-18d", SEED, 0.1)
        context = get_context(*key)
        expected = table5.run(seed=SEED, scale=0.1).metrics
        first_seen = context.table.first_seen
        common._CONTEXTS[key] = replace(
            context,
            table=replace(
                context.table, first_seen=dict(reversed(first_seen.items()))
            ),
        )
        assert table5.run(seed=SEED, scale=0.1).metrics == expected


class TestHelpers:
    def test_percent(self):
        assert percent(1, 4) == 25.0
        assert percent(5, 0) == 0.0

    def test_endpoints_for_port(self):
        timeline = DiscoveryTimeline.from_mapping(
            {(1, 80, 6): 0.0, (2, 22, 6): 1.0, (3, 80): 2.0}
        )
        assert endpoints_for_port(timeline, 80) == {1, 3}
        assert endpoints_for_port(timeline, 443) == set()


class TestExperimentResult:
    def test_render_includes_notes(self):
        result = ExperimentResult(
            experiment_id="x",
            title="X marks the spot",
            body="body text",
            notes=["a caveat"],
        )
        rendered = result.render()
        assert "## X marks the spot" in rendered
        assert "- a caveat" in rendered
        assert "body text" in rendered
