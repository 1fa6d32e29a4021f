"""Workload/trace generators: arrival processes for multi-job experiments.

The paper submits batches of jobs; a production evaluation also needs
open-loop arrivals.  These generators produce deterministic job-submission
traces (Poisson, bursty, or uniform) that the platform replays on the
virtual clock.

For the multi-tenant production-traffic layer (named per-tenant RNG
streams, diurnal/MMPP processes, admission control) see
:mod:`repro.traffic`; the helpers here remain the light-weight single
-stream entry point used by the open-loop benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.jobs import JobRequest
from repro.workloads.profiles import get_workload


@dataclass(frozen=True)
class JobArrival:
    """One job submission at a virtual time.

    ``seq`` is the emission index within the generating process; together
    with ``at_s`` it forms the total order ``(at_s, seq)`` used to break
    equal-time ties deterministically (list order is not a stable contract
    once traces are merged or re-sorted).
    """

    at_s: float
    request: JobRequest
    seq: int = 0


def _sort_arrivals(arrivals: list[JobArrival]) -> list[JobArrival]:
    """Total-order sort: time first, emission index breaks exact ties."""
    arrivals.sort(key=lambda a: (a.at_s, a.seq))
    return arrivals


def draw_arrival_gaps(
    rng: np.random.Generator, rate_per_s: float, duration_s: float
) -> np.ndarray:
    """Cumulative Poisson arrival times covering ``[0, duration_s)``.

    Gaps are pre-drawn in bulk (one ``rng.exponential`` call per chunk)
    instead of one RNG round-trip per arrival; the chunk size is derived
    from the expected count plus ten standard deviations, so a second top-up
    draw is vanishingly rare but handled.  Deterministic per generator
    state regardless of how many chunks are needed.
    """
    expected = rate_per_s * duration_s
    chunk = max(16, int(expected + 10.0 * np.sqrt(expected) + 10.0))
    times = np.cumsum(rng.exponential(1.0 / rate_per_s, size=chunk))
    while times[-1] < duration_s:
        extra = np.cumsum(rng.exponential(1.0 / rate_per_s, size=chunk))
        times = np.concatenate([times, times[-1] + extra])
    return times[times < duration_s]


def poisson_trace(
    *,
    rate_per_s: float,
    duration_s: float,
    workloads: Sequence[str],
    functions_per_job: int = 10,
    seed: int = 0,
    mix: Optional[Sequence[float]] = None,
) -> list[JobArrival]:
    """Open-loop Poisson job arrivals over ``duration_s`` seconds.

    Vectorized: arrival gaps and workload choices are each one bulk draw
    (see :func:`draw_arrival_gaps`) instead of two RNG round-trips per
    arrival, which matters at the 10^5-10^6-arrival scale the traffic
    benchmarks run at.  NOTE: the emitted trace differs from the pre-
    vectorization scalar-loop implementation at the same seed (the draw
    order changed); benchmark tables built on top of it were regenerated.

    Args:
        rate_per_s: Mean job arrival rate.
        duration_s: Trace horizon.
        workloads: Workload names to draw from.
        functions_per_job: Invocations per submitted job.
        seed: Trace seed (deterministic).
        mix: Optional workload probabilities (defaults to uniform).
    """
    if rate_per_s <= 0:
        raise ValueError("rate_per_s must be positive")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    if not workloads:
        raise ValueError("at least one workload is required")
    profiles = [get_workload(name) for name in workloads]
    if mix is not None:
        if len(mix) != len(profiles):
            raise ValueError("mix length must match workloads")
        probabilities = np.asarray(mix, dtype=float)
        probabilities = probabilities / probabilities.sum()
    else:
        probabilities = np.full(len(profiles), 1.0 / len(profiles))
    rng = np.random.default_rng(seed)
    times = draw_arrival_gaps(rng, rate_per_s, duration_s)
    # One uniform draw per arrival, mapped through the cumulative mix;
    # identical semantics to per-arrival rng.choice(p=...) at a fraction
    # of the cost.
    cumulative = np.cumsum(probabilities)
    choices = np.searchsorted(cumulative, rng.random(len(times)), side="right")
    choices = np.minimum(choices, len(profiles) - 1)
    return [
        JobArrival(
            at_s=float(t),
            request=JobRequest(
                workload=profiles[int(c)], num_functions=functions_per_job
            ),
            seq=i,
        )
        for i, (t, c) in enumerate(zip(times, choices))
    ]


def bursty_trace(
    *,
    bursts: int,
    jobs_per_burst: int,
    burst_spacing_s: float,
    workload: str,
    functions_per_job: int = 10,
    jitter_s: float = 0.5,
    seed: int = 0,
) -> list[JobArrival]:
    """Bursts of near-simultaneous job submissions (failure-storm shaped).

    Equal ``at_s`` ties (jitter_s=0 makes every burst member collide) are
    broken by the emission index, so every replay sees one deterministic
    submission order rather than whatever the sort left in place.
    """
    if bursts <= 0 or jobs_per_burst <= 0:
        raise ValueError("bursts and jobs_per_burst must be positive")
    if burst_spacing_s <= 0:
        raise ValueError("burst_spacing_s must be positive")
    profile = get_workload(workload)
    rng = np.random.default_rng(seed)
    arrivals = []
    seq = 0
    for burst in range(bursts):
        base = burst * burst_spacing_s
        for _ in range(jobs_per_burst):
            arrivals.append(
                JobArrival(
                    at_s=base + float(rng.uniform(0.0, jitter_s)),
                    request=JobRequest(
                        workload=profile, num_functions=functions_per_job
                    ),
                    seq=seq,
                )
            )
            seq += 1
    return _sort_arrivals(arrivals)


def replay_trace(platform, arrivals: Sequence[JobArrival]) -> None:
    """Schedule every arrival's submission on the platform's clock.

    Submissions that hit the concurrency limit queue exactly as interactive
    ones do.
    """
    for arrival in arrivals:
        def _submit(request: JobRequest = arrival.request) -> None:
            platform.submit_job(request)

        platform.sim.call_at(
            max(arrival.at_s, platform.sim.now), _submit, label="job-arrival"
        )
