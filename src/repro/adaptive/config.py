"""Configuration for the S40 adaptive fault-tolerance controller."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AdaptiveConfig:
    """On-switch for the feedback controller: a scenario with
    ``adaptive=AdaptiveConfig()`` runs it, ``adaptive=None`` does not.

    The controller's tuning constants live beside their only reader in
    :mod:`repro.adaptive.controller`.
    """
