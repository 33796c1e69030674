#!/usr/bin/env python3
"""Rewrite ``perfbench/reference.json`` from the current library.

    python3 perfbench/record_reference.py

For every workload it runs the units that cover the instance seeds
``workloads.REFERENCE_SEEDS`` and stores each instance's reference values
(SDP objective, fixed-point quantile curve) under its instance seed.
``run.py`` then checks, one-sidedly, that any later run on those seeds
reaches at least these values.  Run it only on a commit whose answers are
trusted; the committed file holds the seed-state values.
"""

import json
import shutil
import sys

import run  # pins the BLAS threads before numpy loads

sys.path[:0] = [str(run.SRC), str(run.HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402


def main():
    seeds = workloads.REFERENCE_SEEDS
    workdir = run.HERE / "runs" / "tmp-reference"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = {}
    try:
        for name in workloads.WORKLOADS:
            wl = workloads.make(name)
            fixtures = wl.setup()
            table = reference[name] = {}
            for seed in range(seeds.start, seeds.stop, wl.seed_stride):
                unit = wl.run_unit(seed, fixtures, spans.NullTracer(), workdir, {})
                table.update(unit["values"])
                print(name, seed, unit["values"], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
