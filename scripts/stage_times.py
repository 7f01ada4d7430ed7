#!/usr/bin/env python3
"""Time the per-instance stages of ``hatkit verify`` over the instance pool,
in process: construct, certify, analyze, kernels and the multiplication
lemma check.

Usage: python3 scripts/stage_times.py [--grid JSON] [--parent DIR
           [--pairs N]] [-o OUT.json]

Each repeat walks the pool as a verify request does: each instance's
record is built, then its orientation, alternating structure and kernels
are computed in that order, the multiplication lemma is checked on the
structure, and the record is dropped before the next one is built.
Construct includes the automorphism search on the cubic seeds of the arc
graphs, as in the pool.  A stage's time is its total over the pool, best
of three repeats; ``prefix_s`` is construct + certify + analyze.  The pool
is the default grid, or the GridConfig whose fields ``--grid`` gives as a
JSON object.  The JSON result goes to standard output, or to OUT.json.

With ``--parent DIR``, each side, the checkout DIR and this one, is timed
in its own child process running this script with that checkout's
``src`` first on the import path, N pairs of children (default 5), the
side that runs first alternating from pair to pair.  The result is the
section "stage times" of the JSON file, so that the file can also hold
other sections: every child's times, each side's medians over the pairs
and the change's medians over the parent's.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hatkit.alternating import check_mult_lemma
from hatkit.harness import GridConfig, instance_pool

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("construct", "certify", "analyze", "kernels", "mult-lemma")
SIDES = ("parent", "change")
SECTION = "stage times"


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
        check_mult_lemma(rec.structure)
        t5 = time.perf_counter()
        for stage, dt in zip(STAGES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3,
                                      t5 - t4)):
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


def run_child(root: Path, grid: dict) -> dict:
    """``measure`` in a child process importing hatkit from ``root``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--grid",
         json.dumps(grid)], env=env, capture_output=True, text=True,
        check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"stage times in {root} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def compare(roots: dict, grid: dict, pairs: int, run=run_child) -> dict:
    """``pairs`` pairs of children, one per side of ``roots``, the first
    side alternating from pair to pair."""
    runs = []
    for i in range(pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs.append({"side": side, **run(roots[side], grid)})
    medians = {}
    for side in SIDES:
        mine = [r for r in runs if r["side"] == side]
        medians[side] = {
            "stages_s": {stage: statistics.median(
                r["stages_s"][stage] for r in mine) for stage in STAGES},
            "prefix_s": statistics.median(r["prefix_s"] for r in mine)}
    ratio = {stage: round(medians["change"]["stages_s"][stage]
                          / medians["parent"]["stages_s"][stage], 3)
             for stage in STAGES}
    ratio["prefix_s"] = round(medians["change"]["prefix_s"]
                              / medians["parent"]["prefix_s"], 3)
    return {"grid": grid, "pairs": pairs, "median": medians,
            "change_over_parent": ratio, "runs": runs}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", type=json.loads,
                        help="GridConfig fields as a JSON object")
    parser.add_argument("--parent", type=Path,
                        help="also time this checkout, in alternating "
                             "child processes")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("-o", "--output", type=Path)
    args = parser.parse_args(argv)
    cfg = (GridConfig(**{k: tuple(v) for k, v in args.grid.items()})
           if args.grid else GridConfig())
    if args.parent is None:
        doc = measure(cfg)
    else:
        grid = {k: list(v) for k, v in vars(cfg).items()}
        roots = {"parent": args.parent.resolve(), "change": ROOT}
        doc = {SECTION: compare(roots, grid, args.pairs)}
        if args.output is not None and args.output.exists():
            doc = {**json.loads(args.output.read_text()), **doc}
        doc.setdefault("host", f"Python {platform.python_version()}, "
                               f"{os.cpu_count()} CPUs, {platform.machine()}")
    text = json.dumps(doc, indent=2)
    if args.output:
        args.output.write_text(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    sys.exit(main())
