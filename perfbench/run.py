#!/usr/bin/env python3
"""Pipeline benchmark of layerwave: forward, invert and correct end to end.

    python3 perfbench/run.py --workload float-deep --seed 1 --seconds 30 \
        --trace 0

Workloads: float-deep, rational-exact, noisy-repair (see bench.py).  Runs
the layerwave sources in ../src of this directory, single process and
single thread.  Prints one JSON line with the environment stamp and the
report-only figures (failures, percentiles, sample counts), then as the
last line ``{"correct", "attempted", "failed", "metrics"}``: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.  Exits 2
when the sources are missing and 3 when a traced layer cannot be found.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
DIGESTS = os.path.join(HERE, "digests.json")


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fp:
        return json.load(fp)


def import_layerwave() -> None:
    """Put the checkout's sources first on the path; refuse any other copy."""
    package = os.path.join(SRC, "layerwave")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"perfbench: no layerwave sources in {SRC}")
    sys.path.insert(0, SRC)
    import layerwave
    if os.path.dirname(os.path.abspath(layerwave.__file__)) != package:
        raise SystemExit(f"perfbench: imported {layerwave.__file__}, "
                         f"not the sources in {package}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_layerwave()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    import bench
    from spans import TraceError

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(bench.WORKLOADS))
    recipe = bench.WORKLOADS[args.workload]
    try:
        run = bench.run_workload(recipe, args.seed, seconds=args.seconds,
                                 trace=bool(args.trace),
                                 digests=load_digests())
        if args.trace:
            spans = bench.COMMON_SPANS + (
                bench.NOISY_SPANS if recipe.pipeline == "noisy" else ())
            run.tracer.require(spans)
    except TraceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    metrics = bench.per_layer(run) if args.trace else bench.end_to_end(run)
    print(json.dumps(bench.report(run, bool(args.trace))))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
