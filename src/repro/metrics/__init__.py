"""Metrics: the failure/recovery log, availability, engine stats, summaries."""

from repro.metrics.availability import availability, total_function_time
from repro.metrics.collector import FailureEvent, MetricsCollector
from repro.metrics.engine import (
    EngineStats,
    collect_engine_stats,
    format_engine_stats,
)
from repro.metrics.summary import RunSummary

__all__ = [
    "EngineStats",
    "FailureEvent",
    "MetricsCollector",
    "RunSummary",
    "availability",
    "collect_engine_stats",
    "format_engine_stats",
    "total_function_time",
]
