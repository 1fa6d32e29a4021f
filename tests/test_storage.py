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

    def test_fastest_spill_tier_skips_kv(self):
        registry = TierRegistry()
        tier = registry.fastest_spill_tier()
        assert tier.name != "kv"

    def test_fastest_spill_tier_shared_only(self):
        registry = TierRegistry()
        tier = registry.fastest_spill_tier(require_shared=True)
        assert tier.shared

class TestKeyValueStore:
    def test_put_get_roundtrip(self):
        kv = KeyValueStore()
        kv.put("k", {"v": 1}, size_bytes=100)
        entry = kv.get("k")
        assert entry is not None
        assert entry.value == {"v": 1}
        assert entry.size_bytes == 100

    def test_per_key_limit_enforced(self):
        kv = KeyValueStore(db_limit_bytes=1 * MiB)
        with pytest.raises(StorageCapacityError):
            kv.put("big", None, size_bytes=2 * MiB)

    def test_overwrite_accounts_delta(self):
        kv = KeyValueStore()
        kv.put("k", None, size_bytes=100)
        kv.put("k", None, size_bytes=300)
        assert kv.used_bytes == 300

    def test_delete(self):
        kv = KeyValueStore()
        kv.put("k", None, size_bytes=50)
        assert kv.delete("k")
        assert not kv.delete("k")
        assert kv.used_bytes == 0.0

    def test_replicated_store_survives_node_failure(self):
        kv = KeyValueStore()
        router = CheckpointStorageRouter(kv, TierRegistry())
        ref, _ = router.write("k", None, size_bytes=10, node_id="node-00")
        assert ref.inline
        assert router.on_node_failure("node-00") == []
        assert "k" in kv

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            KeyValueStore().put("k", None, size_bytes=-1)


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

    def test_kv_custom_endpoint_rejected_eagerly(self):
        # The KV store caps each entry at db_limit: as an endpoint it would
        # accept the route of a bigger checkpoint and fail at the write.
        with pytest.raises(ValueError):
            CheckpointStorageRouter(
                KeyValueStore(), TierRegistry(), custom_endpoint="kv"
            )

    def test_custom_endpoint_validated_on_assignment(self):
        router, _ = self.make()
        with pytest.raises(ValueError):
            router.custom_endpoint = "kv"
        with pytest.raises(KeyError):
            router.custom_endpoint = "bogus"
        assert router.custom_endpoint is None
        router.custom_endpoint = "s3"
        ref, _ = router.write("k", None, size_bytes=1 * KiB)
        assert ref.tier_name == "s3"

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

    def test_delete_drops_spilled_payload(self):
        router, kv = self.make()
        ref, _ = router.write("big", None, size_bytes=200 * MiB)
        router.delete(ref)
        assert not router.is_available(ref)
        assert "big" not in kv

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
