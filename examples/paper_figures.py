#!/usr/bin/env python
"""Regenerate any paper figure from the command line.

The same as ``canary-sim figure``:

    python examples/paper_figures.py fig7            # full-scale (10 seeds)
    python examples/paper_figures.py fig4 --fast     # claim-check scale
    python examples/paper_figures.py all --fast
    python examples/paper_figures.py all --jobs 8    # 8 worker processes
"""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["figure", *sys.argv[1:]]))
