"""Metrics: per-function traces, failure/recovery records, summaries."""

from repro.metrics.availability import availability, total_function_time
from repro.metrics.collector import (
    FailureEvent,
    FunctionTrace,
    MetricsCollector,
)
from repro.metrics.engine import (
    EngineStats,
    collect_engine_stats,
    format_engine_stats,
)
from repro.metrics.summary import RunSummary, summarize

__all__ = [
    "EngineStats",
    "FailureEvent",
    "FunctionTrace",
    "MetricsCollector",
    "RunSummary",
    "availability",
    "collect_engine_stats",
    "format_engine_stats",
    "summarize",
    "total_function_time",
]
