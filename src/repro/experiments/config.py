"""Experiment constants, plus :class:`ScenarioConfig` re-exported from core."""

from __future__ import annotations

from repro.core.scenario import ScenarioConfig

__all__ = ["DEFAULT_SEEDS", "ERROR_RATE_SWEEP", "ScenarioConfig"]

#: Error-rate sweep used throughout §V ("vary the error rate from 1% to 50%").
ERROR_RATE_SWEEP: tuple[float, ...] = (0.01, 0.05, 0.10, 0.15, 0.25, 0.50)

#: The paper averages each experiment over 10 runs.
DEFAULT_SEEDS: tuple[int, ...] = tuple(range(10))
