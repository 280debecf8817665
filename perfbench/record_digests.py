#!/usr/bin/env python3
"""Add the digests of the program's current outputs to digests.json.

    python3 perfbench/record_digests.py --workload rational-exact \
        --seeds 0 31 --models 40

Runs models ``0..models-1`` of every seed in the inclusive range through
the digested steps only (forward, and the sine distortion on
noisy-repair).  Digests already in the table are checked, never replaced:
a mismatch is printed and the script exits 1 without writing.  Record
only from a commit whose outputs are known to be right.
"""

import argparse
import json
import os
import sys

import run as entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs=2, required=True,
                        metavar=("FIRST", "LAST"))
    parser.add_argument("--models", type=int, required=True)
    args = parser.parse_args(argv)
    entry.import_layerwave()
    import bench

    recipe = bench.WORKLOADS[args.workload]
    table = entry.load_digests()
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        run = bench.run_workload(recipe, seed, models=args.models,
                                 digests=table, record=True)
        if run.failures:
            print(f"seed {seed}: {run.failures}", file=sys.stderr)
            return 1
        print(f"seed {seed}: {run.models} models", flush=True)
    # merge into the file as it is now, so runs for other workloads can
    # record at the same time
    current = entry.load_digests()
    current[recipe.name] = table[recipe.name]
    tmp = f"{entry.DIGESTS}.{recipe.name}.tmp"
    with open(tmp, "w", encoding="utf-8") as fp:
        json.dump(current, fp, indent=0, sort_keys=True)
        fp.write("\n")
    os.replace(tmp, entry.DIGESTS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
