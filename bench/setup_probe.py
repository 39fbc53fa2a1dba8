"""Set-up probe: a fresh interpreter imports `ltsrepr.cli` and generates one
workload's datasets, then exits. `run.py` times it from launch to exit.

    python3 bench/setup_probe.py WORKLOAD SEED DIR
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import ltsrepr.cli  # noqa: E402,F401 - the import is part of what is timed
import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.make(sys.argv[1], int(sys.argv[2])).prepare(sys.argv[3])
