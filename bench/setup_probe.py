"""Set-up probe: import the library and build one workload's inputs, then say so.

Usage: python3 bench/setup_probe.py WORKLOAD SEED TMPDIR

``run.py`` starts this in a fresh process and times it from start until
the ``ready`` line, which is the set-up a real run does before its first
timed operation: interpreter start, imports, and inputs built from the seed.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, tmpdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.WORKLOADS[name](seed, tmpdir)
    print("ready", flush=True)
