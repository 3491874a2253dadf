"""Tests for the content-addressed TPO cache."""

import numpy as np
import pytest

from repro.service.cache import TPOCache, instance_key
from repro.tpo.builders import GridBuilder
from repro.workloads.synthetic import uniform_intervals


def make_instance(seed=1, n=8, k=3):
    distributions = uniform_intervals(n, width=0.3, rng=seed)
    builder = GridBuilder(resolution=256)
    return distributions, (lambda: builder.build(distributions, k))


class TestInstanceKey:
    def test_key_is_order_insensitive(self):
        a = instance_key({"n": 5, "workload": "uniform"})
        b = instance_key({"workload": "uniform", "n": 5})
        assert a == b

    def test_key_distinguishes_content(self):
        assert instance_key({"n": 5}) != instance_key({"n": 6})

    def test_key_is_stable_hex(self):
        key = instance_key({"n": 5})
        assert len(key) == 32
        int(key, 16)  # valid hex


class TestTPOCache:
    def test_second_lookup_hits_and_shares_the_space(self):
        cache = TPOCache(capacity=4)
        distributions, build = make_instance()
        first = cache.get_space("k1", distributions, build)
        second = cache.get_space("k1", distributions, build)
        assert second is first  # shared immutable initial space
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_roundtrip_preserves_the_built_space(self):
        # The cache round-trips trees through tpo.serialize; the cached
        # space must equal a direct build.
        distributions, build = make_instance()
        direct = build().to_space()
        cached = TPOCache(capacity=2).get_space("k", distributions, build)
        np.testing.assert_array_equal(cached.paths, direct.paths)
        np.testing.assert_allclose(
            cached.probabilities, direct.probabilities, atol=1e-12
        )

    def test_lru_eviction_beyond_capacity(self):
        cache = TPOCache(capacity=2)
        distributions, build = make_instance()
        cache.get_space("a", distributions, build)
        cache.get_space("b", distributions, build)
        cache.get_space("a", distributions, build)  # refresh a
        cache.get_space("c", distributions, build)  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1

    def test_capacity_zero_disables_storage(self):
        cache = TPOCache(capacity=0)
        distributions, build = make_instance()
        cache.get_space("a", distributions, build)
        cache.get_space("a", distributions, build)
        assert cache.hits == 0 and cache.misses == 2
        assert len(cache) == 0

    def test_capacity_zero_is_pure_pass_through(self):
        # Regression: a disabled cache must never churn the eviction
        # counter (insert-then-immediately-evict) nor store the entry.
        cache = TPOCache(capacity=0)
        assert cache.enabled is False
        distributions, build = make_instance()
        space = build().to_space()
        assert cache.lookup("a") is None
        cache.insert("a", space)
        assert cache.lookup("a") is None
        assert len(cache) == 0
        assert cache.evictions == 0
        stats = cache.stats()
        assert stats["enabled"] is False
        assert stats["capacity"] == 0

    def test_enabled_reported_in_stats(self):
        assert TPOCache(capacity=2).stats()["enabled"] is True
        assert TPOCache(capacity=2).enabled is True

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            TPOCache(capacity=-1)

    def test_clear_keeps_counters(self):
        cache = TPOCache(capacity=2)
        distributions, build = make_instance()
        cache.get_space("a", distributions, build)
        cache.clear()
        assert len(cache) == 0
        assert cache.misses == 1

    def test_default_tier_round_trips_through_npz_bytes(self):
        # With no cold backend the tree still passes through the npz
        # bytes a cold tier would store, and comes back unchanged.
        from repro.tpo.serialize import tree_from_npz_bytes, tree_to_npz_bytes

        distributions, build = make_instance()
        cache = TPOCache(capacity=2)
        space = cache.get_space("k", distributions, build)
        direct = build().to_space()
        via_npz = tree_from_npz_bytes(
            tree_to_npz_bytes(build()), distributions
        ).to_space()
        for expected in (direct, via_npz):
            assert np.array_equal(space.paths, expected.paths)
            assert np.array_equal(
                space.probabilities, expected.probabilities
            )
        cold = cache.stats()["cold"]
        assert (cold["backend"], cold["puts"], cold["entries"]) == (
            "none",
            1,
            0,
        )
        assert cache.builds == 1
