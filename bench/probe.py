"""One benchmark set-up in a fresh interpreter.

Usage: ``python3 bench/probe.py WORKLOAD SEED OUT_DIR``

Imports fdrlink, builds the workload's specs and configs and makes its one
warm-up call. ``run.py`` times this process from start to exit as setup_s.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.build(name, seed, out).warmup()
