"""Tests for the cold-tier backends and the two-tier (hot over cold)
configuration of the TPO cache."""

import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.service.cache import TPOCache
from repro.service.store import ColdTier, DiskNpzColdTier, MemoryColdTier
from repro.tpo.builders import GridBuilder
from repro.workloads.synthetic import uniform_intervals


def make_instance(seed=1, n=8, k=3):
    distributions = uniform_intervals(n, width=0.3, rng=seed)
    builder = GridBuilder(resolution=256)
    return distributions, (lambda: builder.build(distributions, k))


def cold_tiers(tmp_path):
    return [MemoryColdTier(), DiskNpzColdTier(tmp_path / "cold")]


def sibling(tier):
    """A second process's view of ``tier``: a fresh handle on the same
    directory for disk, the same object for the in-process backend."""
    if isinstance(tier, DiskNpzColdTier):
        return DiskNpzColdTier(tier.root)
    return tier


def assert_same_tree(restored, tree):
    """Exact level tables and beam-loss bookkeeping."""
    assert restored.built_depth == tree.built_depth
    for level, other in zip(restored.levels, tree.levels, strict=True):
        assert np.array_equal(level.tuple_ids, other.tuple_ids)
        assert np.array_equal(level.parent_idx, other.parent_idx)
        assert np.array_equal(level.probs, other.probs)
    assert restored.lost_mass == tree.lost_mass
    assert restored.level_lost == tree.level_lost


class TestColdTiers:
    def test_roundtrip_parity_every_backend(self, tmp_path):
        distributions, build = make_instance()
        beam = GridBuilder(resolution=256, beam_width=2).build(
            distributions, 3
        )
        assert beam.lost_mass > 0.0
        for name, tree in (("exact", build()), ("beam", beam)):
            for tier in [ColdTier(), *cold_tiers(tmp_path / name)]:
                assert tier.get("k1", distributions) is None
                assert_same_tree(tier.put("k1", tree), tree)
                if tier.name == "none":
                    continue  # stores nothing: put only round-trips
                again = tier.get("k1", distributions)
                assert again is not None
                assert_same_tree(again, tree)
                assert tier.entry_count() == 1
                assert tier.stored_bytes() > 0

    def test_stored_bytes_survives_a_put_mid_snapshot(self, interleaver):
        """``/v1/stats`` sums payload sizes on the loop thread while the
        executor publishes a payload; the snapshot must not break."""
        _, build = make_instance()
        tree = build()
        tier = MemoryColdTier()
        tier.put("k1", tree)
        size = tier.stored_bytes()
        interleaver.install(tier, "_payloads", lambda: tier.put("k2", tree))
        assert tier.stored_bytes() == size
        interleaver.join()
        assert tier.entry_count() == 2
        assert tier.stored_bytes() == 2 * size

    def test_counters_and_stats_shape(self, tmp_path):
        distributions, build = make_instance()
        tree = build()
        for tier in cold_tiers(tmp_path):
            tier.get("k1", distributions)
            tier.put("k1", tree)
            tier.get("k1", distributions)
            stats = tier.stats()
            assert stats["hits"] == 1
            assert stats["misses"] == 1
            assert stats["puts"] == 1
            assert stats["torn"] == 0
            assert stats["hit_rate"] == 0.5
            assert set(stats) >= {
                "backend",
                "entries",
                "bytes",
                "hits",
                "misses",
                "torn",
                "puts",
                "hit_rate",
            }

    def test_torn_disk_payload_is_a_miss_and_discarded(self, tmp_path):
        distributions, build = make_instance()
        tier = DiskNpzColdTier(tmp_path / "cold")
        tier.put("k1", build())
        artifact = tmp_path / "cold" / "k1.npz"
        artifact.write_bytes(artifact.read_bytes()[:64])
        assert tier.get("k1", distributions) is None
        assert tier.torn == 1
        assert not artifact.exists()  # damaged payload dropped
        # The next put repairs the entry.
        tier.put("k1", build())
        assert tier.get("k1", distributions) is not None

    def test_invalid_keys_rejected(self, tmp_path):
        tier = DiskNpzColdTier(tmp_path / "cold")
        with pytest.raises(ValueError):
            tier.put("../escape", object())
        with pytest.raises(ValueError):
            tier.get("a/b", [])

    def test_disk_single_flight_lock(self, tmp_path):
        tier = DiskNpzColdTier(tmp_path / "cold", lock_timeout=30.0)
        assert tier.begin_build("k1") is True
        assert tier.begin_build("k1") is False  # someone else holds it
        tier.end_build("k1")
        assert tier.begin_build("k1") is True
        tier.end_build("k1")

    def test_disk_stale_lock_is_stolen(self, tmp_path):
        tier = DiskNpzColdTier(tmp_path / "cold", lock_timeout=0.05)
        assert tier.begin_build("k1") is True
        time.sleep(0.1)  # the "builder" dies without end_build
        assert tier.begin_build("k1") is True
        tier.end_build("k1")

    def test_disk_wait_for_returns_published_artifact(self, tmp_path):
        distributions, build = make_instance()
        tier = DiskNpzColdTier(tmp_path / "cold", poll_interval=0.01)
        assert tier.begin_build("k1") is True
        tier.put("k1", build())
        tier.end_build("k1")
        waited = tier.wait_for("k1", distributions, timeout=1.0)
        assert waited is not None

    def test_disk_wait_for_gives_up_without_artifact(self, tmp_path):
        distributions, _ = make_instance()
        tier = DiskNpzColdTier(tmp_path / "cold", poll_interval=0.01)
        assert tier.wait_for("k1", distributions, timeout=0.05) is None

    def test_disk_wait_for_counts_one_lookup(self, tmp_path):
        """A wait is one lookup however often it polls: a fruitless wait
        is one miss, and a served one is one hit (not a miss per poll)."""
        distributions, build = make_instance()
        tier = DiskNpzColdTier(tmp_path / "cold", poll_interval=0.01)
        assert tier.begin_build("k1") is True  # a builder that never ends
        assert tier.wait_for("k1", distributions, timeout=0.1) is None
        assert (tier.hits, tier.misses) == (0, 1)

        publisher = threading.Timer(0.1, lambda: tier.put("k1", build()))
        publisher.start()
        try:
            waited = tier.wait_for("k1", distributions, timeout=5.0)
        finally:
            publisher.join()
        assert waited is not None
        assert (tier.hits, tier.misses) == (1, 1)
        assert tier.stats()["hit_rate"] == 0.5
        tier.end_build("k1")

    def test_disk_wait_for_discards_torn_payload(self, tmp_path):
        distributions, build = make_instance()
        tier = DiskNpzColdTier(tmp_path / "cold", poll_interval=0.01)
        tier.put("k1", build())
        artifact = tmp_path / "cold" / "k1.npz"
        artifact.write_bytes(artifact.read_bytes()[:64])
        assert tier.begin_build("k1") is True
        assert tier.wait_for("k1", distributions, timeout=0.05) is None
        assert tier.torn == 1
        assert not artifact.exists()
        assert (tier.hits, tier.misses) == (0, 1)
        tier.end_build("k1")


def _worker_reads_shared_tree(config):
    """Cross-process read of a disk cold tier (module-level for pickling)."""
    distributions, _ = make_instance()
    tier = DiskNpzColdTier(config["path"])
    tree = tier.get("k1", distributions)
    return None if tree is None else tree.to_space().paths.tolist()


class TestCrossProcess:
    def test_disk_tier_shared_across_processes(self, tmp_path):
        distributions, build = make_instance()
        tier = DiskNpzColdTier(tmp_path / "cold")
        expected = tier.put("k1", build()).to_space().paths.tolist()
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        with context.Pool(1) as pool:
            seen = pool.map(
                _worker_reads_shared_tree,
                [{"path": str(tmp_path / "cold")}],
            )[0]
        assert seen == expected


class TestTwoTierStore:
    """``TPOCache`` over each cold-tier backend."""

    def test_build_then_hot_then_cold(self, tmp_path):
        distributions, build = make_instance()
        for cold in cold_tiers(tmp_path):
            store = TPOCache(capacity=1, cold=cold)
            first = store.get_space("k1", distributions, build)
            assert store.builds == 1
            # Hot hit: the exact shared object comes back.
            assert store.get_space("k1", distributions, build) is first
            assert store.hits == 1
            # Evict from hot, hit cold.
            other_dists, other_build = make_instance(seed=2)
            store.get_space("k2", other_dists, other_build)
            cold_served = store.get_space("k1", distributions, build)
            assert store.cold_hits == 1
            assert store.builds == 2  # only k1 and k2, never a rebuild of k1
            np.testing.assert_array_equal(cold_served.paths, first.paths)

    def test_space_matches_direct_build(self, tmp_path):
        distributions, build = make_instance()
        direct = build().to_space()
        for cold in cold_tiers(tmp_path):
            store = TPOCache(cold=cold)
            space = store.get_space("k1", distributions, build)
            np.testing.assert_array_equal(space.paths, direct.paths)
            np.testing.assert_allclose(
                space.probabilities, direct.probabilities, atol=1e-12
            )

    def test_second_store_shares_the_cold_tier(self, tmp_path):
        distributions, build = make_instance()
        for cold in cold_tiers(tmp_path):
            a = TPOCache(cold=cold)
            a.get_space("k1", distributions, build)
            b = TPOCache(cold=sibling(cold))
            b.get_space("k1", distributions, build)
            assert a.builds == 1
            assert b.builds == 0
            assert b.cold_hits == 1
            assert b.cold_hit_rate == 1.0

    def test_stats_shape(self, tmp_path):
        distributions, build = make_instance()
        for cold in cold_tiers(tmp_path):
            store = TPOCache(capacity=4, cold=cold)
            store.get_space("k1", distributions, build)
            store.get_space("k1", distributions, build)
            stats = store.stats()
            assert stats["builds"] == 1
            assert stats["hits"] == 1
            assert stats["misses"] == 1
            assert stats["cold"]["backend"] == cold.name
            assert stats["cold"]["puts"] == 1
            # One shape with or without a cold tier.
            assert set(stats) == set(TPOCache().stats())

    def test_hit_rate_counts_both_tiers(self, tmp_path):
        distributions, build = make_instance()
        for cold in cold_tiers(tmp_path):
            store = TPOCache(capacity=1, cold=cold)
            store.get_space("k1", distributions, build)  # build
            store.get_space("k1", distributions, build)  # hot
            assert store.hit_rate == 0.5
            assert store.cold_hit_rate == 0.0

    def test_clear_drops_hot_but_not_cold(self, tmp_path):
        distributions, build = make_instance()
        for cold in cold_tiers(tmp_path):
            store = TPOCache(cold=cold)
            store.get_space("k1", distributions, build)
            store.clear()
            store.get_space("k1", distributions, build)
            assert store.builds == 1
            assert store.cold_hits == 1

    def test_fallback_build_when_elected_builder_stalls(self, tmp_path):
        distributions, build = make_instance()
        tier = DiskNpzColdTier(
            tmp_path, lock_timeout=60.0, poll_interval=0.01
        )
        # Simulate a builder elsewhere that never publishes.
        assert tier.begin_build("k1") is True
        store = TPOCache(cold=tier, build_wait=0.05)
        space = store.get_space("k1", distributions, build)
        assert space is not None
        assert store.builds == 1  # fell back to a local build
        tier.end_build("k1")

    def test_lookup_served_by_waiting_counts_one_cold_hit(self, tmp_path):
        """A lookup that waits for another worker's build is one cold
        lookup: one hit, no miss for the empty probe before the wait."""
        distributions, build = make_instance()
        builder_tier = DiskNpzColdTier(tmp_path, poll_interval=0.01)
        assert builder_tier.begin_build("k1") is True  # the elected builder

        def publish():
            builder_tier.put("k1", build())
            builder_tier.end_build("k1")

        publisher = threading.Timer(0.2, publish)
        publisher.start()
        try:
            store = TPOCache(cold=sibling(builder_tier), build_wait=5.0)
            store.get_space("k1", distributions, build)
        finally:
            publisher.join()
        assert (store.builds, store.cold_waited) == (0, 1)
        cold = store.stats()["cold"]
        assert (cold["hits"], cold["misses"], cold["hit_rate"]) == (1, 0, 1.0)

    def test_every_lookup_path_counts_one_cold_lookup(self, tmp_path):
        distributions, build = make_instance()
        for cold in cold_tiers(tmp_path):
            store = TPOCache(capacity=0, cold=cold)
            store.get_space("k1", distributions, build)  # miss, then build
            store.get_space("k1", distributions, build)  # cold hit
            assert (cold.hits, cold.misses) == (1, 1)

    def test_manager_accepts_two_tier_store(self, tmp_path):
        from repro.service.manager import SessionManager

        store = TPOCache(cold=DiskNpzColdTier(tmp_path))
        manager = SessionManager(
            cache=store, builder=GridBuilder(resolution=256)
        )
        sid = manager.create_session(
            {
                "workload": "uniform",
                "n": 6,
                "k": 2,
                "seed": 7,
                "params": {"width": 0.3},
            }
        )
        assert manager.next_question(sid) is not None
        assert manager.stats()["cache"]["cold"]["backend"] == "disk-npz"
        assert manager.stats()["cache"]["builds"] == 1
