"""Exception hierarchy.

``ReproError`` is the root for everything raised by this package so callers
can catch reproduction-specific failures without swallowing programming
errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Root of the reproduction's exception hierarchy."""


class CanaryError(ReproError):
    """Errors raised by the Canary control plane."""


class RequestValidationError(CanaryError):
    """Job request rejected by the Request Validator Module (§IV-C-2)."""


class PlacementError(ReproError):
    """No node satisfies a container/replica placement request."""


class StorageCapacityError(ReproError):
    """A payload exceeds the KV per-key limit, or no spill tier qualifies."""
