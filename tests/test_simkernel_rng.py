"""Tests for repro.simkernel.rng."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.simkernel.rng import (
    RngStreams,
    derive_seed,
    weighted_choice,
    zipf_weights,
)
from tests.simkernel_reference import exponential_interarrivals, fork, pareto_rate


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_varies_with_name(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_varies_with_master(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_64_bit(self):
        assert 0 <= derive_seed(99, "stream") < 2**64


class TestRngStreams:
    def test_same_name_same_object(self):
        streams = RngStreams(7)
        assert streams.stream("x") is streams.stream("x")

    def test_streams_are_independent(self):
        streams = RngStreams(7)
        a = streams.stream("a")
        # Draw from one stream; the other must be unaffected.
        fresh = RngStreams(7).stream("b").random()
        a.random()
        assert streams.stream("b").random() == fresh

    def test_reproducible_across_instances(self):
        first = RngStreams(42).stream("s").random()
        second = RngStreams(42).stream("s").random()
        assert first == second

    def test_fork_differs_from_parent(self):
        streams = RngStreams(42)
        child = fork(streams, "sub")
        assert child.master_seed != streams.master_seed
        assert child.stream("s").random() != streams.stream("s").random()


class TestExponentialInterarrivals:
    def test_zero_rate_yields_nothing(self):
        rng = random.Random(0)
        assert list(exponential_interarrivals(rng, 0.0, 0, 100)) == []

    def test_times_in_range_and_sorted(self):
        rng = random.Random(0)
        times = list(exponential_interarrivals(rng, 0.5, 10.0, 50.0))
        assert all(10.0 <= t < 50.0 for t in times)
        assert times == sorted(times)

    def test_mean_count_near_rate_times_duration(self):
        rng = random.Random(1)
        times = list(exponential_interarrivals(rng, 2.0, 0.0, 1000.0))
        assert 1800 <= len(times) <= 2200


class TestZipfWeights:
    def test_empty(self):
        assert zipf_weights(0) == []

    def test_sums_to_one(self):
        weights = zipf_weights(37, 1.2)
        assert math.isclose(sum(weights), 1.0, rel_tol=1e-12)

    def test_decreasing(self):
        weights = zipf_weights(10, 0.9)
        assert all(a > b for a, b in zip(weights, weights[1:]))

    @given(st.integers(min_value=1, max_value=500),
           st.floats(min_value=0.1, max_value=3.0))
    def test_property_normalised_and_positive(self, n, exponent):
        weights = zipf_weights(n, exponent)
        assert len(weights) == n
        assert all(w > 0 for w in weights)
        assert math.isclose(sum(weights), 1.0, rel_tol=1e-9)


class TestParetoRate:
    def test_positive(self):
        rng = random.Random(3)
        for _ in range(100):
            assert pareto_rate(rng, scale=0.1) >= 0.1 * 0.999

    def test_heavy_tail_exceeds_scale(self):
        rng = random.Random(3)
        draws = [pareto_rate(rng, 1.0, alpha=1.2) for _ in range(2000)]
        assert max(draws) > 10.0  # occasional large values


class TestWeightedChoice:
    def test_single_item(self):
        rng = random.Random(0)
        assert weighted_choice(rng, ["x"], [1.0]) == "x"

    def test_zero_weight_never_chosen(self):
        rng = random.Random(0)
        picks = {weighted_choice(rng, ["a", "b"], [0.0, 1.0]) for _ in range(200)}
        assert picks == {"b"}

    def test_respects_weights_statistically(self):
        rng = random.Random(1)
        picks = [weighted_choice(rng, ["a", "b"], [3.0, 1.0]) for _ in range(4000)]
        share = picks.count("a") / len(picks)
        assert 0.70 <= share <= 0.80

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            weighted_choice(random.Random(0), ["a"], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(ValueError):
            weighted_choice(random.Random(0), [], [])

    def test_nonpositive_total(self):
        with pytest.raises(ValueError):
            weighted_choice(random.Random(0), ["a", "b"], [0.0, 0.0])

    @given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=20),
           st.integers(min_value=0, max_value=2**31))
    def test_property_always_returns_member(self, weights, seed):
        rng = random.Random(seed)
        items = list(range(len(weights)))
        assert weighted_choice(rng, items, weights) in items
