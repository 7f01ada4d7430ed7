#!/usr/bin/env python3
"""Time the per-instance stages of ``hatkit verify`` over the instance pool,
in process: construct, certify, analyze and kernels.

Usage: python3 scripts/stage_times.py [-o OUT.json]

Each repeat walks the default pool as a verify request does: each
instance's record is built, then its orientation, alternating structure
and kernels are computed in that order, and the record is dropped before
the next one is built.  Construct includes the automorphism search on the
cubic seeds of the arc graphs, as in the pool.  A stage's time is its total
over the pool, best of three repeats.  The JSON result goes to standard
output, or to OUT.json.
"""

import argparse
import json
import platform
import sys
import time

from hatkit.harness import GridConfig, instance_pool

STAGES = ("construct", "certify", "analyze", "kernels")


def one_repeat(cfg):
    """(instance count, seconds per stage) for one walk over the pool."""
    times = dict.fromkeys(STAGES, 0.0)
    count = 0
    pool = instance_pool(cfg)
    while True:
        t0 = time.perf_counter()
        item = next(pool, None)
        if item is None:
            return count, times
        rec = item[1]
        t1 = time.perf_counter()
        rec.orientation
        t2 = time.perf_counter()
        rec.structure
        t3 = time.perf_counter()
        rec.kernels
        t4 = time.perf_counter()
        for stage, dt in zip(STAGES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            times[stage] += dt
        count += 1
        del rec, item


def measure(cfg, repeats=3) -> dict:
    runs = [one_repeat(cfg) for _ in range(repeats)]
    best = {stage: min(times[stage] for _n, times in runs)
            for stage in STAGES}
    return {
        "python": platform.python_version(),
        "instances": runs[0][0],
        "repeats": repeats,
        "stages_s": {stage: round(t, 4) for stage, t in best.items()},
        "prefix_s": round(best["construct"] + best["certify"]
                          + best["analyze"], 4),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", help="write the JSON here")
    args = parser.parse_args(argv)
    text = json.dumps(measure(GridConfig()), indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    sys.exit(main())
