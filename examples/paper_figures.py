#!/usr/bin/env python
"""Regenerate any paper figure from the command line.

Run:
    python examples/paper_figures.py fig7            # full-scale (10 seeds)
    python examples/paper_figures.py fig4 --fast     # quick 3-seed sweep
    python examples/paper_figures.py all --fast
    python examples/paper_figures.py all --jobs 8    # 8 worker processes
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import FIGURES
from repro.experiments.report import format_table

FAST_KWARGS = {
    "fig4": dict(seeds=range(3), error_rates=(0.05, 0.15, 0.5)),
    "fig5": dict(seeds=range(3), invocations=(100, 200, 400)),
    "fig6": dict(seeds=range(3), error_rates=(0.05, 0.15, 0.5)),
    "fig7": dict(seeds=range(3), error_rates=(0.05, 0.15, 0.5)),
    "fig8": dict(seeds=range(3), error_rates=(0.05, 0.15, 0.5)),
    "fig9": dict(seeds=range(3), error_rates=(0.05, 0.15, 0.5)),
    "fig10": dict(seeds=range(3), error_rates=(0.05, 0.15, 0.5)),
    "fig11": dict(seeds=range(3), invocations=(200, 400, 800)),
    "fig12": dict(seeds=range(2), node_counts=(1, 4, 16),
                  num_functions=2000, batch_jobs=4),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "figure", choices=sorted(FIGURES) + ["all"],
        help="which paper figure to regenerate",
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="reduced sweep (3 seeds) instead of the paper's 10-run average",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes per sweep (default: one per core; 1 = serial)",
    )
    args = parser.parse_args(argv)

    names = sorted(FIGURES) if args.figure == "all" else [args.figure]
    for name in names:
        module = FIGURES[name]
        kwargs = dict(FAST_KWARGS[name]) if args.fast else {}
        if args.jobs is not None:
            kwargs["jobs"] = args.jobs
        started = time.time()
        result = module.run(**kwargs)
        print(format_table(result))
        print(f"[{name} regenerated in {time.time() - started:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
