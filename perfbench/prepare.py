"""Set-up step of a benchmark run, timed from a fresh interpreter: import
the CLI, as every CLI call does, and write the workload's inputs.

    python3 perfbench/prepare.py WORKLOAD SEED WORKDIR SIZE
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bpbounds.cli  # noqa: E402,F401

import workloads  # noqa: E402

workloads.prepare(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), sys.argv[4])
