"""Oracle tests for the per-state bookkeeping fast paths.

Each fast path is checked against the plain code it replaced: the
namespaced id counters, an uncached ``RetentionPolicy.target_n`` and a
full ``can_host`` placement scan.
"""

import itertools
import random
import threading

import pytest

from repro.checkpoint.module import DEPTH_MEMO_ENTRIES, CheckpointingModule
from repro.checkpoint.policy import CheckpointPolicy, RetentionPolicy
from repro.cluster.cluster import Cluster
from repro.cluster.heterogeneity import HeterogeneityModel, NodeProfile
from repro.common.types import RuntimeKind
from repro.common.units import KiB, MiB, gb, mb
from repro.core.ids import IdGenerator
from repro.executor.context import CheckpointContext
from repro.faas.container import Container
from repro.faas.runtimes import RuntimeRegistry
from repro.storage.kvstore import KeyValueStore
from repro.storage.router import CheckpointStorageRouter
from repro.storage.tiers import TierRegistry


class _NamespacedIds:
    """The former generator: one counter per f-string namespace."""

    def __init__(self):
        self._counters = {}

    def _next(self, namespace):
        counter = self._counters.setdefault(namespace, itertools.count())
        return next(counter)

    def checkpoint_id(self, function_id):
        n = self._next(f"ckpt:{function_id}")
        return f"ckpt-{function_id.removeprefix('fn-')}-{n:04d}"

    def attempt_id(self, function_id):
        n = self._next(f"att:{function_id}")
        return f"att-{function_id.removeprefix('fn-')}-{n:02d}"


class TestIdSequences:
    def test_interleaved_functions_match_namespaced_format(self):
        rng = random.Random(20)
        ids, oracle = IdGenerator(), _NamespacedIds()
        functions = [
            ids.function_id(f"job-{j:04d}", i) for j in range(3) for i in range(5)
        ] + ["custom-fn"]
        for _ in range(3000):
            function_id = rng.choice(functions)
            kind = rng.choice(("checkpoint_id", "attempt_id"))
            assert getattr(ids, kind)(function_id) == getattr(oracle, kind)(
                function_id
            )

    def test_job_and_replica_counters_are_independent(self):
        ids = IdGenerator()
        assert ids.checkpoint_id("fn-0000-0000") == "ckpt-0000-0000-0000"
        assert ids.job_id() == "job-0000"
        assert ids.attempt_id("fn-0000-0000") == "att-0000-0000-00"
        assert ids.replica_id() == "rep-00000"
        assert ids.checkpoint_id("fn-0000-0000") == "ckpt-0000-0000-0001"


class TestRetentionCache:
    @pytest.mark.parametrize(
        "retention",
        [
            RetentionPolicy(),
            RetentionPolicy(initial_n=4, min_n=1, max_n=5),
            RetentionPolicy(dynamic=False),
        ],
    )
    def test_cached_depth_equals_target_n_over_a_grid(self, retention):
        kv = KeyValueStore()
        module = CheckpointingModule(
            CheckpointStorageRouter(kv, TierRegistry()),
            IdGenerator(),
            policy=CheckpointPolicy(retention=retention),
        )
        sizes = (0.0, KiB, MiB, 8 * MiB, 8 * MiB + 1, 64 * MiB, 65 * MiB)
        periods = (0.01, 0.5, 1.0, 5.0, 20.0, 20.5, 300.0)
        limits = (MiB, 64 * MiB)
        for _ in range(2):  # cold, then cached
            for limit in limits:
                kv.db_limit_bytes = limit
                for size in sizes:
                    for period in periods:
                        assert module._retention_depth(
                            size, period
                        ) == retention.target_n(
                            checkpoint_size_bytes=size,
                            state_period_s=period,
                            db_limit_bytes=limit,
                        )


    def test_memo_stays_bounded_under_distinct_sizes(self):
        # The real executor passes each payload's pickled length.
        module = CheckpointingModule(
            CheckpointStorageRouter(KeyValueStore(), TierRegistry()),
            IdGenerator(),
        )
        ctx = CheckpointContext("fn-0", module, threading.Lock())
        for i in range(1_000):
            ctx.save(i, b"x" * i)
        assert module.checkpoints_taken == 1_000
        assert 0 < len(module._target_n) <= DEPTH_MEMO_ENTRIES


class TestPlacementBound:
    def _cluster(self):
        profiles = (
            NodeProfile("small", speed_factor=1.0, memory_bytes=gb(2),
                        container_slots=2, failure_weight=1.0),
            NodeProfile("large", speed_factor=1.5, memory_bytes=gb(4),
                        container_slots=3, failure_weight=1.0),
        )
        return Cluster(6, heterogeneity=HeterogeneityModel(profiles))

    def test_candidates_match_a_full_scan_under_churn(self):
        rng = random.Random(0xB0B)
        cluster = self._cluster()
        runtime = RuntimeRegistry().get(RuntimeKind.PYTHON)
        resident: list[Container] = []
        empty_answers = saturated = 0
        for step in range(4000):
            op = rng.random()
            node = rng.choice(cluster.nodes)
            if op < 0.6:
                memory = rng.choice((mb(256), mb(512), gb(1), gb(3)))
                hosts = [n for n in cluster.nodes if n.can_host(memory)]
                if hosts:
                    host = rng.choice(hosts)
                    container = Container(
                        f"c{step}", runtime, host, memory_bytes=memory
                    )
                    host.attach(container)
                    resident.append(container)
            elif op < 0.85 and resident:
                container = resident.pop(rng.randrange(len(resident)))
                container.node.detach(container)
                container.node.detach(container)  # idempotent
            elif op < 0.9:
                node.cordoned = not node.cordoned
            elif op < 0.95:
                node.provisioned = not node.provisioned
            elif op < 0.97:
                cluster.fail_node(node.node_id, at_time=float(step))
                resident = [c for c in resident if c.node.alive]
            elif op < 0.98:
                node.fail(float(step))  # direct, and possibly repeated
                resident = [c for c in resident if c.node.alive]
            if not any(n.alive for n in cluster.nodes):
                cluster = self._cluster()
                resident = []
            assert cluster.free_slot_bound == sum(
                n.slots_free for n in cluster.nodes if n.alive
            )
            saturated += cluster.free_slot_bound == 0
            for memory in (mb(256), gb(1), gb(3), gb(8)):
                expected = [n for n in cluster.nodes if n.can_host(memory)]
                got = cluster.hosting_candidates(memory)
                assert got == expected
                empty_answers += not got
        assert empty_answers > saturated > 0
