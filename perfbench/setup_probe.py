"""Set-up of one benchmark run in a fresh process: import gradedcenter,
generate the workload's inputs and expected results, print "ready".

    python3 perfbench/setup_probe.py WORKLOAD SEED ROUNDS [tiny]

run.py times it from spawn to the "ready" line; that is setup_s.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402  (needs the source path above)

workloads.prepare(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4:] == ["tiny"])
print("ready", flush=True)
