"""End-to-end tests of the five real workloads under failure injection.

The central invariant: for every workload, the result computed through
Canary recovery after injected kills is IDENTICAL to the failure-free
result — fault tolerance never changes answers — while recomputation
(work_units) shrinks versus retry.
"""

import pytest

from repro.executor.local import FaultPlan, LocalExecutor
from repro.workloads.census import (
    GROUPS,
    diversity_index,
    national_index,
    synthesize_census,
)
from repro.workloads.compression import make_compression, synthesize_file
from repro.workloads.dl import make_dl_training
from repro.workloads.graph_bfs import make_bfs
from repro.workloads.spark_mining import make_diversity_job
from repro.workloads.webservice import (
    QueryEngine,
    build_store_database,
    make_web_service,
)


def run_clean(fn):
    return LocalExecutor(strategy="canary").run_function("f", fn)


def run_killed(fn, kills, strategy="canary"):
    executor = LocalExecutor(
        strategy=strategy, fault_plan=FaultPlan({"f": kills})
    )
    return executor.run_function("f", fn)


class TestDLTraining:
    def test_losses_decrease(self):
        result = run_clean(make_dl_training(epochs=8)).value
        assert result.losses[-1] < result.losses[0]
        assert result.epochs_run == 8

    def test_recovery_preserves_trajectory(self):
        clean = run_clean(make_dl_training(epochs=6, seed=3)).value
        faulty = run_killed(make_dl_training(epochs=6, seed=3), [2, 4]).value
        assert faulty.losses == clean.losses
        assert faulty.weights_digest == clean.weights_digest

    def test_canary_recomputes_fewer_epochs_than_retry(self):
        canary = run_killed(make_dl_training(epochs=6), [4]).value
        retry = run_killed(make_dl_training(epochs=6), [4], "retry").value
        # work_units counts the *final attempt's* computed epochs.  The kill
        # lands at the save of epoch 4, so its checkpoint was not yet taken:
        # Canary restores epoch 3 and recomputes epochs 4-5 only.
        assert canary.work_units == 2
        # Retry's final attempt recomputes all 6 epochs.
        assert retry.work_units == 6
        assert canary.work_units < retry.work_units

    def test_invalid_epochs(self):
        with pytest.raises(ValueError):
            make_dl_training(epochs=0)


class TestCompression:
    def test_compression_actually_compresses(self):
        result = run_clean(make_compression(num_files=3)).value
        assert 0 < result.ratio < 1.0
        assert len(result.compressed_sizes) == 3

    def test_synthetic_files_deterministic(self):
        assert synthesize_file(2, 1024, seed=1) == synthesize_file(2, 1024, seed=1)
        assert synthesize_file(2, 1024, seed=1) != synthesize_file(3, 1024, seed=1)

    def test_recovery_preserves_output(self):
        clean = run_clean(make_compression(num_files=4, seed=2)).value
        faulty = run_killed(make_compression(num_files=4, seed=2), [1, 3]).value
        assert faulty.compressed_sizes == clean.compressed_sizes

    def test_per_file_checkpoint_cadence(self):
        executor = LocalExecutor(strategy="canary")
        executor.run_function("f", make_compression(num_files=4))
        # One checkpoint per file, dropped at completion.
        assert executor.checkpointer.checkpoints_taken == 4


class TestGraphBFS:
    def test_visits_every_vertex(self):
        result = run_clean(make_bfs(num_vertices=1023)).value
        assert result.visited == 1023
        assert result.max_depth == 9  # complete binary tree of 1023 nodes

    def test_recovery_preserves_traversal_order(self):
        kwargs = dict(num_vertices=4096, checkpoint_every=512)
        clean = run_clean(make_bfs(**kwargs)).value
        faulty = run_killed(make_bfs(**kwargs), [2, 5]).value
        assert faulty.order_checksum == clean.order_checksum
        assert faulty.visited == clean.visited

    def test_canary_skips_completed_chunks(self):
        kwargs = dict(num_vertices=4096, checkpoint_every=512)
        canary = run_killed(make_bfs(**kwargs), [5]).value
        retry = run_killed(make_bfs(**kwargs), [5], "retry").value
        assert canary.work_units < retry.work_units


class TestCensus:
    def test_diversity_bounds(self):
        rows = synthesize_census(num_counties=50, seed=1)
        for row in rows:
            index = diversity_index(row.populations)
            assert 0.0 <= index < 1.0

    def test_uniform_population_is_most_diverse(self):
        uniform = diversity_index([100] * len(GROUPS))
        skewed = diversity_index([1000, 1, 1, 1, 1, 1, 1])
        assert uniform > skewed
        assert uniform == pytest.approx(1 - 1 / len(GROUPS))

    def test_empty_population(self):
        assert diversity_index([0, 0, 0]) == 0.0
        assert national_index([]) == 0.0

    def test_deterministic(self):
        a = synthesize_census(num_counties=10, seed=4)
        b = synthesize_census(num_counties=10, seed=4)
        assert a == b


class TestSparkMining:
    def test_national_index_matches_direct_computation(self):
        result = run_clean(make_diversity_job(num_counties=64, seed=7)).value
        rows = synthesize_census(num_counties=64, seed=7)
        assert result.national_index == pytest.approx(national_index(rows))
        assert len(result.local_indices) == 64

    def test_recovery_preserves_indices(self):
        job = dict(num_counties=64, partitions=8, seed=7)
        clean = run_clean(make_diversity_job(**job)).value
        faulty = run_killed(make_diversity_job(**job), [3, 6]).value
        assert faulty.local_indices == clean.local_indices
        assert faulty.national_index == clean.national_index

    def test_partition_checkpoint_cadence(self):
        executor = LocalExecutor(strategy="canary")
        executor.run_function("f", make_diversity_job(partitions=6))
        assert executor.checkpointer.checkpoints_taken == 6


class TestWebService:
    def test_query_engine_basics(self):
        engine = QueryEngine()
        engine.create_table("t", [{"a": 1}, {"a": 2}, {"a": 3}])
        assert engine.count("t") == 3
        assert engine.count("t", lambda r: r["a"] > 1) == 2
        assert engine.sum("t", "a") == 6.0
        assert engine.select("t", limit=1) == [{"a": 1}]
        with pytest.raises(KeyError):
            engine.select("ghost")
        with pytest.raises(ValueError):
            engine.create_table("t", [])

    def test_store_database_shape(self):
        engine = build_store_database(seed=0)
        assert engine.tables() == ["customers", "orders"]
        assert engine.count("customers") == 100

    def test_recovery_preserves_responses(self):
        job = dict(requests=10, seed=5)
        clean = run_clean(make_web_service(**job)).value
        faulty = run_killed(make_web_service(**job), [2, 7]).value
        assert faulty.responses_digest == clean.responses_digest

    def test_resumed_run_serves_fewer_requests(self):
        job = dict(requests=10, seed=5)
        canary = run_killed(make_web_service(**job), [6]).value
        retry = run_killed(make_web_service(**job), [6], "retry").value
        assert canary.work_units < retry.work_units
