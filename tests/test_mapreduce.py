"""Tests for the real MapReduce workload (the §I motivating example)."""

import pytest

from repro.executor.local import FaultPlan
from repro.workloads.mapreduce import (
    exact_wordcount,
    make_mapper,
    make_reducer,
    run_wordcount,
    synthesize_documents,
)


class TestCorpus:
    def test_deterministic(self):
        assert synthesize_documents(seed=1) == synthesize_documents(seed=1)
        assert synthesize_documents(seed=1) != synthesize_documents(seed=2)

    def test_shape(self):
        docs = synthesize_documents(num_docs=10, words_per_doc=50)
        assert len(docs) == 10
        assert all(len(d) == 50 for d in docs)

    def test_invalid(self):
        with pytest.raises(ValueError):
            synthesize_documents(num_docs=0)


class TestWordcount:
    def test_matches_exact_count(self):
        docs = synthesize_documents(num_docs=24, seed=5)
        result = run_wordcount(num_mappers=4, documents=docs)
        assert result.counts == exact_wordcount(docs)
        assert result.total_kills == 0

    def test_failures_do_not_change_counts(self):
        docs = synthesize_documents(num_docs=24, seed=5)
        # 6 docs per mapper at chunk_size 4 -> 2 chunks (states 0 and 1).
        plan = FaultPlan(
            {"mapper-1": [1], "mapper-3": [0, 1], "reducer-0": [2]}
        )
        result = run_wordcount(
            num_mappers=4, documents=docs, fault_plan=plan
        )
        assert result.counts == exact_wordcount(docs)
        assert result.total_kills == 4
        assert result.mapper_attempts["mapper-1"] == 2
        assert result.mapper_attempts["mapper-3"] == 3
        assert result.reducer_attempts == 2

    def test_retry_strategy_also_correct(self):
        docs = synthesize_documents(num_docs=16, seed=7)
        plan = FaultPlan({"mapper-0": [1], "reducer-0": [1]})
        result = run_wordcount(
            num_mappers=2, documents=docs, strategy="retry", fault_plan=plan
        )
        assert result.counts == exact_wordcount(docs)

    def test_single_mapper(self):
        docs = synthesize_documents(num_docs=6, seed=1)
        result = run_wordcount(num_mappers=1, documents=docs)
        assert result.counts == exact_wordcount(docs)

    def test_invalid_mapper_count(self):
        with pytest.raises(ValueError):
            run_wordcount(num_mappers=0)

    def test_mapper_checkpoints_per_chunk(self):
        docs = synthesize_documents(num_docs=8, seed=2)
        from repro.executor.local import LocalExecutor

        executor = LocalExecutor(strategy="canary")
        executor.run_function("m", make_mapper(docs, chunk_size=2))
        assert executor.checkpointer.checkpoints_taken == 4  # 8 docs / 2 per chunk

    def test_reducer_resumes_mid_fold(self):
        intermediate = [{"a": 1}, {"a": 2, "b": 1}, {"b": 3}]
        from repro.executor.local import LocalExecutor

        executor = LocalExecutor(
            strategy="canary", fault_plan=FaultPlan({"r": [1]})
        )
        result = executor.run_function("r", make_reducer(intermediate))
        assert result.value == {"a": 3, "b": 4}
        assert result.attempts == 2
