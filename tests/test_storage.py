"""Unit tests for tiers, the KV store, and the checkpoint router."""

import pytest

from repro.common.errors import StorageCapacityError
from repro.common.units import GiB, KiB, MiB, mb
from repro.storage.kvstore import KeyValueStore
from repro.storage.router import CheckpointStorageRouter
from repro.storage.tiers import DEFAULT_TIERS, StorageTier, TierRegistry


class TestStorageTier:
    def test_read_write_time_scale_with_size(self):
        tier = DEFAULT_TIERS[0]
        assert tier.read_time(mb(100)) > tier.read_time(mb(1))
        assert tier.write_time(mb(100)) > tier.write_time(mb(1))

    def test_latency_floor(self):
        tier = DEFAULT_TIERS[0]
        assert tier.read_time(0) == tier.read_latency_s
        assert tier.write_time(0) == tier.write_latency_s

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"read_bandwidth": 0.0},
            {"read_bandwidth": -1.0},
            {"write_bandwidth": 0.0},
            {"write_bandwidth": -2.0 * GiB},
            {"read_latency_s": -0.001},
            {"write_latency_s": -0.001},
            {"capacity_bytes": -1.0},
        ],
    )
    def test_invalid_tiers_rejected(self, kwargs):
        valid = dict(
            name="t",
            read_latency_s=0.001,
            write_latency_s=0.001,
            read_bandwidth=1.0 * GiB,
            write_bandwidth=1.0 * GiB,
            shared=True,
            survives_node_failure=True,
        )
        valid.update(kwargs)
        with pytest.raises(ValueError):
            StorageTier(**valid)

    def test_zero_capacity_tier_is_valid_but_full(self):
        tier = StorageTier(
            name="t",
            read_latency_s=0.0,
            write_latency_s=0.0,
            read_bandwidth=1.0 * GiB,
            write_bandwidth=1.0 * GiB,
            shared=False,
            survives_node_failure=False,
            capacity_bytes=0.0,
        )
        registry = TierRegistry((DEFAULT_TIERS[0], tier))
        assert registry.free_bytes("t") == 0.0

    def test_default_hierarchy_ordering(self):
        # KV first; shared tiers survive node failures.
        names = [t.name for t in DEFAULT_TIERS]
        assert names[0] == "kv"
        for tier in DEFAULT_TIERS:
            if tier.shared:
                assert tier.survives_node_failure


class TestTierRegistry:
    def test_duplicate_names_rejected(self):
        tier = DEFAULT_TIERS[0]
        with pytest.raises(ValueError):
            TierRegistry((tier, tier))

    def test_unknown_tier_raises_with_suggestions(self):
        registry = TierRegistry()
        with pytest.raises(KeyError, match="nfs"):
            registry.get("bogus")

    def test_allocate_and_release(self):
        registry = TierRegistry(
            (
                DEFAULT_TIERS[0],
                StorageTier(
                    name="small",
                    read_latency_s=0,
                    write_latency_s=0,
                    read_bandwidth=GiB,
                    write_bandwidth=GiB,
                    shared=True,
                    survives_node_failure=True,
                    capacity_bytes=mb(10),
                ),
            )
        )
        registry.allocate("small", mb(8))
        with pytest.raises(StorageCapacityError):
            registry.allocate("small", mb(4))
        registry.release("small", mb(8))
        registry.allocate("small", mb(4))

    def test_release_never_goes_negative(self):
        registry = TierRegistry()
        registry.release("nfs", mb(100))
        assert registry.used_bytes["nfs"] == 0.0

    def test_fastest_spill_tier_skips_kv(self):
        registry = TierRegistry()
        tier = registry.fastest_spill_tier(mb(100))
        assert tier.name != "kv"

    def test_fastest_spill_tier_shared_only(self):
        registry = TierRegistry()
        tier = registry.fastest_spill_tier(mb(100), require_shared=True)
        assert tier.shared

    def test_negative_allocation_rejected(self):
        with pytest.raises(ValueError):
            TierRegistry().allocate("nfs", -1.0)


class TestKeyValueStore:
    def test_put_get_roundtrip(self):
        kv = KeyValueStore()
        kv.put("k", {"v": 1}, size_bytes=100, now=5.0)
        entry = kv.get("k")
        assert entry is not None
        assert entry.value == {"v": 1}
        assert entry.written_at == 5.0

    def test_per_key_limit_enforced(self):
        kv = KeyValueStore(db_limit_bytes=1 * MiB)
        with pytest.raises(StorageCapacityError):
            kv.put("big", None, size_bytes=2 * MiB)

    def test_capacity_enforced(self):
        kv = KeyValueStore(db_limit_bytes=MiB, capacity_bytes=2.5 * MiB)
        kv.put("a", None, size_bytes=MiB)
        kv.put("b", None, size_bytes=MiB)
        with pytest.raises(StorageCapacityError):
            kv.put("c", None, size_bytes=MiB)

    def test_overwrite_accounts_delta(self):
        kv = KeyValueStore()
        kv.put("k", None, size_bytes=100)
        kv.put("k", None, size_bytes=300)
        assert kv.used_bytes == 300

    def test_versions_monotonic(self):
        kv = KeyValueStore()
        v1 = kv.put("a", None, size_bytes=1).version
        v2 = kv.put("b", None, size_bytes=1).version
        v3 = kv.put("a", None, size_bytes=1).version
        assert v1 < v2 < v3

    def test_delete(self):
        kv = KeyValueStore()
        kv.put("k", None, size_bytes=50)
        assert kv.delete("k")
        assert not kv.delete("k")
        assert kv.used_bytes == 0.0

    def test_prefix_query_sorted_by_version(self):
        kv = KeyValueStore()
        kv.put("ckpt/f1/2", None, size_bytes=1)
        kv.put("ckpt/f1/1", None, size_bytes=1)
        kv.put("ckpt/f2/1", None, size_bytes=1)
        keys = kv.keys_with_prefix("ckpt/f1/")
        assert keys == ["ckpt/f1/2", "ckpt/f1/1"]  # insertion (version) order

    def test_replicated_store_survives_node_failure(self):
        kv = KeyValueStore(replicated=True, persistent=False)
        kv.put("k", None, size_bytes=10, home_node="node-00")
        assert kv.on_node_failure("node-00") == []
        assert "k" in kv

    def test_unreplicated_volatile_store_loses_local_keys(self):
        kv = KeyValueStore(replicated=False, persistent=False)
        kv.put("local", None, size_bytes=10, home_node="node-00")
        kv.put("other", None, size_bytes=10, home_node="node-01")
        lost = kv.on_node_failure("node-00")
        assert lost == ["local"]
        assert "other" in kv

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            KeyValueStore().put("k", None, size_bytes=-1)

    def test_version_index_matches_sort_oracle_under_churn(self):
        """Prefix queries walk the insertion-ordered entries and must
        return exactly what a per-lookup sort over the live entries
        would, through interleaved puts, overwrites, deletes, and
        clears."""
        import random

        rng = random.Random(0x5EED)
        kv = KeyValueStore()

        def oracle(prefix):
            live = [
                e for k, e in kv._entries.items() if k.startswith(prefix)
            ]
            live.sort(key=lambda e: e.version)
            return [e.key for e in live]

        keys = [f"ckpt/f{i % 7}/{i % 5}" for i in range(35)]
        for step in range(400):
            op = rng.random()
            key = rng.choice(keys)
            if op < 0.6:
                kv.put(key, None, size_bytes=rng.uniform(1, 100))
            elif op < 0.85:
                kv.delete(key)
            elif op < 0.95 and step % 50 == 7:
                kv.clear()
            for prefix in ("ckpt/f1/", "ckpt/f3", "ckpt/", "nope/"):
                assert kv.keys_with_prefix(prefix) == oracle(prefix)
                assert [
                    e.key for e in kv.entries_with_prefix(prefix)
                ] == oracle(prefix)
        # The entries still iterate in strictly increasing version.
        versions = [e.version for e in kv._entries.values()]
        assert all(a < b for a, b in zip(versions, versions[1:]))


class TestCheckpointStorageRouter:
    def make(self, **kwargs):
        kv = KeyValueStore(db_limit_bytes=64 * MiB)
        return CheckpointStorageRouter(kv, TierRegistry(), **kwargs), kv

    def test_small_payload_goes_inline(self):
        router, kv = self.make()
        ref, write_time = router.write("k", b"x", size_bytes=1 * MiB)
        assert ref.inline
        assert write_time > 0
        assert "k" in kv

    def test_large_payload_spills_with_location_record(self):
        router, kv = self.make()
        ref, _ = router.write("big", None, size_bytes=200 * MiB)
        assert not ref.inline
        # The KV store holds only the {name, location} record.
        entry = kv.get("big")
        assert entry.value == {"ckpt_name": "big", "ckpt_loc": ref.tier_name}
        assert entry.size_bytes < MiB

    def test_custom_endpoint_overrides_hierarchy(self):
        router, _ = self.make(custom_endpoint="s3")
        ref, _ = router.write("k", None, size_bytes=1 * KiB)
        assert ref.tier_name == "s3"

    def test_invalid_custom_endpoint_rejected_eagerly(self):
        kv = KeyValueStore()
        with pytest.raises(KeyError):
            CheckpointStorageRouter(kv, TierRegistry(), custom_endpoint="bogus")

    def test_shared_spill_requirement(self):
        router, _ = self.make(require_shared_spill=True)
        ref, _ = router.write("k", None, size_bytes=200 * MiB)
        tier = router.tiers.get(ref.tier_name)
        assert tier.shared

    def test_read_time_positive_and_tier_dependent(self):
        router, _ = self.make()
        small, _ = router.write("s", None, size_bytes=1 * MiB)
        big, _ = router.write("b", None, size_bytes=200 * MiB)
        assert router.read_time(small) > 0
        assert router.read_time(big) > router.read_time(small)

    def test_delete_releases_spill_capacity(self):
        router, _ = self.make()
        ref, _ = router.write("big", None, size_bytes=200 * MiB)
        used_before = router.tiers.used_bytes[ref.tier_name]
        router.delete(ref)
        assert router.tiers.used_bytes[ref.tier_name] < used_before
        assert not router.is_available(ref)

    def test_node_failure_drops_node_local_spills(self):
        router, _ = self.make()
        ref, _ = router.write(
            "big", None, size_bytes=200 * MiB, node_id="node-00"
        )
        tier = router.tiers.get(ref.tier_name)
        if tier.survives_node_failure:
            pytest.skip("default spill landed on a durable tier")
        lost = router.on_node_failure("node-00")
        assert "big" in lost
        assert not router.is_available(ref)

    def test_node_failure_preserves_shared_spills(self):
        router, _ = self.make(require_shared_spill=True)
        ref, _ = router.write(
            "big", None, size_bytes=200 * MiB, node_id="node-00"
        )
        assert router.on_node_failure("node-00") == []
        assert router.is_available(ref)
