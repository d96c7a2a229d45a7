"""Set-up probe, run in a fresh interpreter with src/ on PYTHONPATH.

Times `import dualcurl` plus the Discretization builds a workload needs
and prints {"setup_s": ...} as its last line.

    python3 perfbench/probe.py [--degrees 16,32,40 --rule lobatto]
"""

import argparse
import json
import time

parser = argparse.ArgumentParser()
parser.add_argument("--degrees", default="")
parser.add_argument("--rule", default="lobatto")
args = parser.parse_args()

t0 = time.perf_counter()
import dualcurl  # noqa: E402  (the import is what is timed)

for N in [int(d) for d in args.degrees.split(",") if d]:
    dualcurl.Discretization(N, rule=args.rule)
elapsed = time.perf_counter() - t0
print(json.dumps({"setup_s": elapsed}))
