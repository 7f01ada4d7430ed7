#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare them.

Usage:
    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR \\
        --workload analyze-ladder --seeds 11-20 --seconds 36 [--trace 1] \\
        [-o BENCH_n.json]

For each seed, ``hatbench/run.py`` runs once in each checkout, as a
subprocess with that checkout as its working directory; the side that runs
first alternates from pair to pair.  For every metric the result gives
each side's median and quartiles over the pairs, the number of pairs the
change won (ties count for neither side), whether the change's median is
within the metric's bound in ``BENCHMARK.json``, and whether it is a gain:
won in at least nine tenths of the pairs, by a median gap larger than the
distance between the parent's quartiles.  A bounded metric is unresolved
when that distance exceeds the bound times the parent's median, so the
runs spread too widely to tell a change within the bound from one beyond
it, unless every change run beats every parent run.  Every run's metrics
are kept.

The result is one section of the JSON file, keyed by workload and trace
mode, so that several invocations fill one file; without ``-o`` it goes to
standard output.  Nothing under ``hatbench/`` is changed or imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list:
    """"11-20" or "1,3,5" or a mix: "1,4-6"."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(root: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One benchmark run in ``root``: its result line, parsed."""
    cmd = [sys.executable, "hatbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(xs: list) -> dict:
    xs = sorted(xs)
    if len(xs) < 2:
        q1 = q3 = xs[0]
    else:
        q1, _median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": statistics.median(xs), "q1": q1, "q3": q3}


def summarize(pairs: list, metrics: dict) -> dict:
    """Per metric: each side's median and quartiles, the pairs the change
    won, and the gain, bound and unresolved verdicts.  ``metrics`` maps a
    name to its ``better`` direction and its bound (None when it has
    none)."""
    out = {}
    for name, (better, bound) in metrics.items():
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs
                         if name in p[side]["metrics"]] for side in SIDES}
        if not values["parent"] or len(values["parent"]) != len(
                values["change"]):
            continue
        sign = 1 if better == "lower" else -1
        won = sum(1 for a, b in zip(values["parent"], values["change"])
                  if sign * (a - b) > 0)
        stats = {side: quartiles(values[side]) for side in SIDES}
        gap = sign * (stats["parent"]["median"] - stats["change"]["median"])
        spread = stats["parent"]["q3"] - stats["parent"]["q1"]
        row = {**stats, "unit": pairs[0]["parent"]["metrics"][name]["unit"],
               "better": better, "change_won": won, "pairs": len(pairs),
               "gain": 10 * won >= 9 * len(pairs) and gap > spread}
        if bound is not None:
            row["bound"] = bound
            row["within_bound"] = -gap <= bound * stats["parent"]["median"]
            row["unresolved"] = (
                spread > bound * stats["parent"]["median"]
                and not all(sign * (a - b) > 0 for a in values["parent"]
                            for b in values["change"]))
        out[name] = row
    return out


def metric_table(benchmark: dict) -> dict:
    """name -> (better, bound) from a BENCHMARK.json document."""
    table = {m["name"]: (m["better"], m.get("bound"))
             for m in benchmark.get("end_to_end", [])}
    for m in benchmark.get("per_layer", []):
        table.setdefault(m["name"], (m["better"], None))
    return table


def compare(roots: dict, workload: str, seeds: list, seconds: float,
            trace: int, run=run_once, log=None) -> dict:
    """Run the pairs and return the section for this workload."""
    pairs = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run(roots[side], workload, seed, seconds, trace)
        pairs.append(pair)
        if log:
            log(f"{workload} seed {seed}: " + ", ".join(
                f"{side} {pair[side]['metrics'].get('wall_s')}"
                for side in SIDES))
    benchmark = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    metrics = metric_table(benchmark)
    metrics.update({name: ("lower", None) for p in pairs
                    for side in SIDES for name in p[side]["metrics"]
                    if name not in metrics})
    return {
        "command": (f"python3 hatbench/run.py --workload {workload} "
                    f"--seed SEED --seconds {seconds:g} --trace {trace}"),
        "seeds": seeds,
        "failed": {side: sum(p[side]["failed"] for p in pairs)
                   for side in SIDES},
        "summary": summarize(pairs, metrics),
        "pairs": pairs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("-o", "--output", type=Path)
    args = parser.parse_args(argv)

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    section = compare(roots, args.workload, args.seeds, args.seconds,
                      args.trace,
                      log=lambda line: print(line, file=sys.stderr))
    key = f"{args.workload} trace {args.trace}"
    if args.output is None:
        print(json.dumps({key: section}, indent=1))
        return 0
    doc = json.loads(args.output.read_text()) if args.output.exists() else {}
    doc.setdefault("host", f"Python {platform.python_version()}, "
                           f"{os.cpu_count()} CPUs, {platform.machine()}")
    doc.setdefault("runs", {})[key] = section
    args.output.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
