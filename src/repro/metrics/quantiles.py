"""Streaming latency quantiles: a deterministic fixed-bucket sketch.

The traffic layer observes 10^5-10^6 per-invocation latencies per run;
storing them for an exact percentile would dominate memory and make the
summary cost O(n log n).  :class:`LatencySketch` instead keeps geometric
buckets (2% growth by default), so any quantile is read back with bounded
*relative* error (one bucket width) at O(1) memory and O(log buckets) per
observation.

Determinism notes: bucket bounds are built by repeated multiplication (no
libm ``log``/``exp`` whose last-bit behaviour varies across platforms), and
observations index via :func:`bisect.bisect_left` over those bounds — the
same stream of values always produces the same counts and the same
quantile read-backs, which is what lets benches ``cmp`` repeated runs.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Optional


def nearest_rank(q: float, count: int) -> int:
    """Exact nearest-rank index: ``ceil(q * count)``, clamped to ``>= 1``.

    Computed in integers via the *decimal* rational value of ``q``
    (``Fraction(str(q))``), so ``q=0.99`` means exactly 99/100 — at
    ``count=100`` the rank is exactly 99, and at any count an integral
    ``q*count`` never rounds up to the next rank the way the old
    float-fudge ``int(q*count + 0.9999999999)`` did (off by one whenever
    the fudge pushed an exact product across the next integer, e.g.
    ``q=0.5, count=10**7``).
    """
    if count <= 0:
        raise ValueError("count must be positive")
    fraction = Fraction(str(q))
    numerator = fraction.numerator * count
    denominator = fraction.denominator
    return max(1, -(-numerator // denominator))


class LatencySketch:
    """Fixed geometric buckets over ``[min_value, max_value]`` seconds.

    Bucket ``i`` (``i >= 1``) covers ``(bounds[i-1], bounds[i]]``; bucket 0
    is the underflow bucket ``[0, bounds[0]]`` and the last bucket collects
    overflow.  Quantiles report the arithmetic midpoint ``(lower + upper)
    / 2`` of the hit bucket (the observed max for overflow), clamped to
    the exact observed min/max (so single-value streams read back exactly).
    """

    def __init__(
        self,
        min_value: float = 1e-3,
        max_value: float = 1e5,
        growth: float = 1.02,
    ) -> None:
        if min_value <= 0 or max_value <= min_value:
            raise ValueError("need 0 < min_value < max_value")
        if growth <= 1.0:
            raise ValueError("growth must be > 1")
        bounds = [min_value]
        while bounds[-1] < max_value:
            bounds.append(bounds[-1] * growth)
        self._bounds = bounds
        # len(bounds) + 1 buckets: underflow + one per bound + overflow.
        self._counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def add(self, value: float) -> None:
        if value < 0:
            raise ValueError("latencies must be non-negative")
        index = bisect_left(self._bounds, value)
        self._counts[index] += 1
        self.count += 1
        self.total += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    def merge(self, other: "LatencySketch") -> None:
        """Fold *other* into this sketch (bucket layouts must match)."""
        if other._bounds != self._bounds:
            raise ValueError("cannot merge sketches with different buckets")
        for i, c in enumerate(other._counts):
            self._counts[i] += c
        self.count += other.count
        self.total += other.total
        for value in (other._min, other._max):
            if value is None:
                continue
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    # ------------------------------------------------------------------
    # Read-back
    # ------------------------------------------------------------------
    def _representative(self, index: int) -> float:
        if index == 0:
            upper = self._bounds[0]
            lower = 0.0
        elif index >= len(self._bounds):
            # Overflow: the observed max is the only honest answer.
            assert self._max is not None
            return self._max
        else:
            lower = self._bounds[index - 1]
            upper = self._bounds[index]
        mid = (lower + upper) / 2.0
        return mid

    def quantile(self, q: float) -> float:
        """The q-quantile (0 < q <= 1); 0.0 on an empty sketch."""
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        if self.count == 0:
            return 0.0
        # Rank of the q-quantile under the "nearest-rank" definition.
        rank = nearest_rank(q, self.count)
        seen = 0
        for index, bucket in enumerate(self._counts):
            seen += bucket
            if seen >= rank:
                value = self._representative(index)
                assert self._min is not None and self._max is not None
                return min(max(value, self._min), self._max)
        assert self._max is not None  # pragma: no cover - unreachable
        return self._max

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def p50(self) -> float:
        return self.quantile(0.50)

    def p99(self) -> float:
        return self.quantile(0.99)

    def p999(self) -> float:
        return self.quantile(0.999)
