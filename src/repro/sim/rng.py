"""Deterministic named random streams.

Every stochastic decision in the reproduction (which functions fail, when
they fail, placement jitter, heterogeneity noise) draws from a stream named
after the component making the decision.  Streams are derived from a single
root seed with a stable hash, so:

* the same experiment seed reproduces identical traces bit-for-bit, and
* adding a new consumer of randomness does not perturb existing streams
  (unlike sharing one global generator).
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(root: int, name: str) -> int:
    """Derive a 64-bit child seed from *root* and a stream *name*.

    Uses BLAKE2b rather than Python's ``hash`` so the derivation is stable
    across processes and interpreter versions.
    """
    digest = hashlib.blake2b(
        f"{root}:{name}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


class RngRegistry:
    """Hands out one :class:`numpy.random.Generator` per stream name."""

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = root_seed
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for *name*."""
        gen = self._streams.get(name)
        if gen is None:
            gen = self._streams[name] = self.transient(name)
        return gen

    def transient(self, name: str) -> np.random.Generator:
        """A fresh generator for *name* that the registry does not keep,
        for a consumer that draws once: it starts where ``stream(name)``
        would, and is freed once the consumer drops it."""
        return np.random.default_rng(derive_seed(self.root_seed, name))
