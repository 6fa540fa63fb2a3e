"""Set-up probe: a fresh interpreter imports lielab and generates one
workload's inputs, then prints their sha256.  run.py times this process
from spawn to exit; that wall time is the benchmark's setup_s.

    python3 perfbench/probe_setup.py --workload qq-structure --seed 1729
"""
import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import lielab
    from workloads import Workload

    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
        pins = json.load(fh)
    wl = Workload(args.workload, args.seed, lielab, pins, ROOT)
    print(wl.inputs_sha256)
    return 0


if __name__ == "__main__":
    sys.exit(main())
