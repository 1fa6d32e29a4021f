"""Ablation: checkpoint retention depth and cadence.

The paper keeps the latest n=3 checkpoints (dynamically adjusted) and
defaults to per-state implicit checkpointing; explicit checkpointing
widens the interval to cut overhead at the price of more redo.  This
bench quantifies both knobs on the DL workload; the ``retention.*`` rows
of ``FEATURE_CLAIMS`` check the interval trade-off.
"""

from conftest import FAST_SEEDS

from repro.checkpoint.policy import CheckpointPolicy, RetentionPolicy
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import mean_of, run_repeated

ERROR_RATE = 0.25
INTERVALS = (1, 2, 4)
RETENTIONS = {
    "static-2": RetentionPolicy(dynamic=False, initial_n=2, min_n=2),
    "dynamic": RetentionPolicy(),
}


def run_row(**knobs) -> dict:
    row = mean_of(run_repeated(
        ScenarioConfig(
            workload="dl-training",
            strategy="canary",
            error_rate=ERROR_RATE,
            num_functions=50,
            **knobs,
        ),
        FAST_SEEDS,
    ))
    return {
        "mean_recovery_s": row["mean_recovery_s"],
        "checkpoint_time_s": row["checkpoint_time_s"],
        "checkpoints": row["checkpoints_taken"],
        "makespan_s": row["makespan_s"],
    }


def run() -> dict:
    return {
        "rows": [{"interval": interval,
                  **run_row(checkpoint_interval=interval)}
                 for interval in INTERVALS],
        "retention": [
            {"retention": name, **run_row(checkpoint_policy=CheckpointPolicy(
                retention=retention))}
            for name, retention in RETENTIONS.items()
        ],
    }
