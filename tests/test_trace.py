"""Tests for the span tracing layer: determinism, exports, stats, CLI."""

import hashlib
import json

import pytest

from repro.cli import main
from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import run_cells
from repro.experiments.runner import run_scenario, run_traced
from repro.network.config import NetworkModelConfig
from repro.trace import (
    NULL_TRACER,
    SPAN_KINDS,
    NullTracer,
    Tracer,
    aggregate_spans,
    chrome_trace_bytes,
    format_stats_table,
    jsonl_bytes,
    validate_chrome_trace,
    wallclock_tracer,
)
from repro.trace.export import spans_from_jsonl


def small_scenario(**overrides) -> ScenarioConfig:
    base = dict(
        workload="graph-bfs",
        strategy="canary",
        error_rate=0.25,
        num_functions=12,
        num_nodes=4,
        node_failure_count=1,
        network=NetworkModelConfig(),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestTracerCore:
    def test_begin_finish_parenting(self):
        tracer = Tracer(clock=lambda: 5.0)
        parent = tracer.begin("invoke", "fn-0", function="fn-0")
        child = tracer.begin("exec", parent=parent, t=6.0, attempt=1)
        tracer.finish(child, t=8.0, outcome="completed")
        tracer.finish(parent, t=9.0)
        assert child.parent_id == parent.span_id
        assert parent.parent_id is None
        assert child.duration == 2.0
        assert child.attrs["outcome"] == "completed"
        assert parent.start == 5.0 and parent.end == 9.0

    def test_backdated_span_takes_the_id_of_its_recording_time(self):
        now = [0.0]
        tracer = Tracer(clock=lambda: now[0])
        first = tracer.begin("exec", "a")
        now[0] = 2.0
        later = tracer.begin("exec", "b", parent=first)
        tracer.instant("checkpoint_write", "c", parent=first, t=1.0,
                       duration=0.5, recorded_at=1.0)
        child = tracer.begin("restore", "d", parent=later)
        spans = tracer.spans()
        assert [(s.name, s.span_id) for s in spans] == [
            ("a", 1), ("c", 2), ("b", 3), ("d", 4),
        ]
        assert later.parent_id == first.span_id == 1
        assert child.parent_id == later.span_id == 3
        assert tracer.spans() == spans

    def test_finish_is_idempotent(self):
        tracer = Tracer(clock=lambda: 1.0)
        span = tracer.begin("exec")
        tracer.finish(span, t=2.0)
        tracer.finish(span, t=99.0, outcome="late")
        assert span.end == 2.0
        assert "outcome" not in span.attrs

    def test_instant(self):
        tracer = Tracer()
        span = tracer.instant("checkpoint_write", t=3.0, duration=0.5, tier="mem")
        assert (span.start, span.end) == (3.0, 3.5)

    def test_close_open_marks_spans(self):
        tracer = Tracer(clock=lambda: 0.0)
        span = tracer.begin("recovery", t=1.0)
        closed = tracer.close_open(t=10.0, reason="end-of-run")
        assert closed == 1
        assert span.end == 10.0
        assert span.attrs["open_at_exit"] is True
        assert span.attrs["close_reason"] == "end-of-run"

    def test_no_clock_raises(self):
        with pytest.raises(RuntimeError, match="no clock"):
            Tracer().begin("exec")

    def test_set_clock_does_not_override(self):
        tracer = Tracer(clock=lambda: 7.0)
        tracer.set_clock(lambda: 0.0)
        assert tracer.begin("exec").start == 7.0

    def test_null_tracer_records_nothing(self):
        span = NULL_TRACER.begin("invoke", function="f")
        NULL_TRACER.finish(span)
        NULL_TRACER.instant("flush")
        assert NULL_TRACER.close_open(0.0) == 0
        assert NULL_TRACER.spans() == ()
        assert not NULL_TRACER.enabled
        # Child-of-null parenting stays rootless in a real tracer.
        assert Tracer(clock=lambda: 0.0).begin("exec", parent=span).parent_id is None


class TestTracedRunDeterminism:
    def test_tracing_does_not_perturb_the_run(self):
        scenario = small_scenario()
        assert run_scenario(scenario, seed=42) == run_traced(scenario, seed=42).summary

    def test_same_seed_byte_identical_exports(self):
        scenario = small_scenario()
        first = run_traced(scenario, seed=42).spans
        second = run_traced(scenario, seed=42).spans
        assert chrome_trace_bytes(first) == chrome_trace_bytes(second)
        assert jsonl_bytes(first) == jsonl_bytes(second)

    def test_serial_matches_parallel_fanout(self):
        scenario = small_scenario(node_failure_count=0, num_functions=6)
        cells = [(scenario, seed) for seed in range(3)]
        serial = [run_traced(s, seed) for s, seed in cells]
        fanned = run_cells(cells, jobs=4, runner=run_traced)
        for a, b in zip(serial, fanned):
            assert a.summary == b.summary
            assert chrome_trace_bytes(a.spans) == chrome_trace_bytes(b.spans)

    def test_all_spans_finished_and_kinds_known(self):
        traced = run_traced(small_scenario(), seed=42)
        assert traced.spans, "traced run recorded no spans"
        assert all(s.finished for s in traced.spans)
        assert not any(s.attrs.get("open_at_exit") for s in traced.spans)
        assert {s.kind for s in traced.spans} <= set(SPAN_KINDS)
        # A fault-injected run exercises the recovery path spans.
        kinds = {s.kind for s in traced.spans}
        assert {"invoke", "exec", "cold_start", "checkpoint_write",
                "network_flow", "recovery", "restore"} <= kinds


class TestExport:
    def test_chrome_trace_validates_and_round_trips(self, tmp_path):
        traced = run_traced(small_scenario(), seed=42)
        blob = chrome_trace_bytes(traced.spans)
        doc = json.loads(blob)
        assert isinstance(doc["traceEvents"], list)
        count = validate_chrome_trace(blob)
        assert count == len(doc["traceEvents"])
        path = tmp_path / "trace.json"
        path.write_bytes(blob)
        assert validate_chrome_trace(path) == count

    def test_chrome_events_cover_finished_spans(self):
        traced = run_traced(small_scenario(), seed=42)
        doc = json.loads(chrome_trace_bytes(traced.spans))
        x_events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(x_events) == sum(1 for s in traced.spans if s.finished)
        assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in x_events)

    def test_validate_rejects_garbage(self):
        with pytest.raises(ValueError):
            validate_chrome_trace(b'{"traceEvents": [{"ph": "X"}]}')
        with pytest.raises(ValueError):
            validate_chrome_trace(b'[1, 2, 3]')

    def test_jsonl_round_trip(self):
        spans = run_traced(small_scenario(), seed=42).spans
        parsed = spans_from_jsonl(jsonl_bytes(spans))
        assert [
            (s.span_id, s.parent_id, s.kind, s.name, s.start, s.end, s.attrs)
            for s in parsed
        ] == [
            (s.span_id, s.parent_id, s.kind, s.name, s.start, s.end, s.attrs)
            for s in sorted(spans, key=lambda s: (s.start, s.span_id))
        ]


class TestTracedOutputPins:
    """sha256 of the span JSONL, pinned so no span is dropped or reordered.

    The first scenario is the CI trace-smoke run (fabric checkpoint
    writes); the second checkpoints through the synchronous path with an
    asynchronous flush lag, so both ``checkpoint_write`` and ``flush``
    instants are covered.
    """

    PINS = {
        "trace-smoke": (
            small_scenario(),
            "196f39ebe5b10e660fff23ae59d8b6c997d781f24569ce097c0e9acf6ee65e74",
        ),
        "flush-lag": (
            small_scenario(network=None, checkpoint_flush_lag_s=2.0),
            "b7f2d8267a58b5797dd2531589fd021edb49573271bffc561cb2fd15e2c41039",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_span_jsonl_digest(self, name):
        scenario, expected = self.PINS[name]
        spans = run_traced(scenario, seed=42).spans
        assert hashlib.sha256(jsonl_bytes(spans)).hexdigest() == expected


class TestStats:
    def test_aggregate_counts_and_percentiles(self):
        tracer = Tracer(clock=lambda: 0.0)
        for i in range(10):
            tracer.instant("exec", t=0.0, duration=float(i + 1))
        tracer.begin("recovery", t=0.0)  # unfinished: excluded
        stats = aggregate_spans(tracer.spans())
        assert list(stats) == ["exec"]
        exec_stats = stats["exec"]
        assert exec_stats.count == 10
        assert exec_stats.total_s == 55.0
        assert exec_stats.mean_s == 5.5
        assert exec_stats.p50_s == 5.5
        assert exec_stats.max_s == 10.0

    def test_format_table(self):
        traced = run_traced(small_scenario(), seed=42)
        table = format_stats_table(aggregate_spans(traced.spans))
        assert "span kind" in table
        assert "invoke" in table and "p99" in table


class TestWallclockExecutorTracing:
    def test_local_executor_records_spans(self):
        from repro.executor.local import FaultPlan, LocalExecutor

        tracer = wallclock_tracer()
        executor = LocalExecutor(
            strategy="canary",
            fault_plan=FaultPlan({"f1": [2]}),
            tracer=tracer,
        )

        def fn(ctx):
            acc = []
            restored = ctx.restore()
            start = 0
            if restored is not None:
                start = restored[0] + 1
                acc = list(restored[1])
            for i in range(start, 4):
                acc.append(i)
                ctx.save(i, acc)
            return acc

        result = executor.run_function("f1", fn)
        assert result.kills == 1
        spans = tracer.spans()
        invokes = [s for s in spans if s.kind == "invoke"]
        execs = [s for s in spans if s.kind == "exec"]
        assert len(invokes) == 1 and len(execs) == 2
        assert all(s.finished for s in spans)
        assert execs[0].attrs["outcome"] == "killed"
        assert execs[1].attrs["outcome"] == "completed"
        assert all(e.parent_id == invokes[0].span_id for e in execs)
        assert invokes[0].attrs["attempts"] == 2

    def test_default_executor_untraced(self):
        from repro.executor.local import LocalExecutor

        executor = LocalExecutor()
        assert isinstance(executor.tracer, NullTracer)
        assert not executor.tracer.enabled


class TestTraceCLI:
    def test_trace_subcommand(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        rc = main([
            "trace", "--workload", "graph-bfs", "--error-rate", "0.2",
            "--functions", "6", "--nodes", "4", "--seed", "3",
            "--out", str(out), "--jsonl", str(jsonl),
        ])
        assert rc == 0
        assert validate_chrome_trace(out) > 0
        assert spans_from_jsonl(jsonl.read_bytes())
        printed = capsys.readouterr().out
        assert "span kind" in printed
        assert "chrome://tracing" in printed
