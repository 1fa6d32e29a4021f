"""Property-based tests for the KV store and checkpoint router."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.common.errors import StorageCapacityError
from repro.common.units import MiB
from repro.storage.kvstore import KeyValueStore
from repro.storage.router import CheckpointStorageRouter
from repro.storage.tiers import TierRegistry

keys = st.text(
    alphabet="abcdefghij/", min_size=1, max_size=8
)
sizes = st.floats(min_value=0.0, max_value=512 * MiB, allow_nan=False)


@st.composite
def kv_ops(draw):
    """A random sequence of put/delete operations."""
    n = draw(st.integers(min_value=1, max_value=40))
    ops = []
    for _ in range(n):
        op = draw(st.sampled_from(["put", "delete"]))
        ops.append((op, draw(keys), draw(sizes)))
    return ops


class TestKVStoreInvariants:
    @given(ops=kv_ops())
    @settings(max_examples=60, deadline=None)
    def test_used_bytes_matches_live_entries(self, ops):
        kv = KeyValueStore(db_limit_bytes=64 * MiB)
        shadow: dict[str, float] = {}
        for op, key, size in ops:
            if op == "put":
                try:
                    kv.put(key, None, size_bytes=size)
                    shadow[key] = size
                except StorageCapacityError:
                    assert size > kv.db_limit_bytes
            else:
                kv.delete(key)
                shadow.pop(key, None)
        assert kv.used_bytes == pytest.approx(sum(shadow.values()), abs=1e-3)
        assert len(kv) == len(shadow)
        for key, size in shadow.items():
            entry = kv.get(key)
            assert entry is not None and entry.size_bytes == size

    @given(
        sizes_list=st.lists(
            st.floats(min_value=1.0, max_value=256 * MiB, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_router_conservation(self, sizes_list):
        """Every write lands either inline or on exactly one spill tier,
        and deleting everything empties the KV store and drops every
        payload."""
        kv = KeyValueStore(db_limit_bytes=64 * MiB)
        router = CheckpointStorageRouter(kv, TierRegistry())
        refs = []
        for i, size in enumerate(sizes_list):
            ref, write_time = router.write(f"k{i}", None, size_bytes=size)
            assert write_time > 0
            assert router.is_available(ref)
            if size <= kv.db_limit_bytes:
                assert ref.inline
            else:
                assert not ref.inline
            refs.append(ref)
        for ref in refs:
            router.delete(ref)
            assert not router.is_available(ref)
        assert kv.used_bytes == 0.0

    @given(
        size=st.floats(min_value=1.0, max_value=512 * MiB, allow_nan=False)
    )
    @settings(max_examples=60, deadline=None)
    def test_write_then_read_time_positive_monotone(self, size):
        kv = KeyValueStore(db_limit_bytes=64 * MiB)
        router = CheckpointStorageRouter(kv, TierRegistry())
        ref, _ = router.write("k", None, size_bytes=size)
        small_ref, _ = router.write("s", None, size_bytes=1.0)
        assert router.read_time(ref) >= router.read_time(small_ref) > 0
