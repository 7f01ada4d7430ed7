#!/usr/bin/env python3
"""Run hatkit commands on a ladder of growing instances, one subprocess per
run, and record how far each gets.

Usage:
    python3 scripts/scale_ladder.py [--rungs "aut xo:4,101,1" ...] \\
        [--parent DIR] [--timeout 300] [-o BENCH_n.json]

A rung is one hatkit command line: ``aut SPEC`` and ``analyze --aut SPEC``
on Xo(4,r;1) for growing r and on ``wreath:k`` up to k = 600, ``iso`` on
Xo(4,r;1) against Xo(4,r;r-1), which q -> -q makes isomorphic, and ``aut``
and ``iso`` on circulants of order 10,000.  Every run is ``python3 -m
hatkit.cli`` with a checkout's ``src`` first on the import path and a
wall-clock timeout; its standard output is discarded.  With ``--parent``,
each rung runs on that checkout and on this one, the side that runs first
alternating from rung to rung.  A run records its side, its wall seconds,
its peak resident set size in MB (from ``os.wait4``, so the figure belongs
to that child alone), its exit code (None when the timeout stopped it) and
the last line it wrote to standard error.  The result is one section of
the JSON file, so that the file can also hold other sections; without
``-o`` it goes to standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPECS = ("xo:4,101,1", "xo:4,251,1", "xo:4,501,1", "xo:4,1001,1",
         "wreath:100", "wreath:200", "wreath:300", "wreath:600")
RUNGS = (*(f"aut {spec}" for spec in SPECS),
         *(f"analyze --aut {spec}" for spec in SPECS),
         *(f"iso xo:4,{r},1 xo:4,{r},{r - 1}" for r in (101, 251, 501, 1001)),
         "aut circ:10000:1,7",
         "iso circ:10000:1,7 circ:10000:1,9993")
SECTION = "scale ladder"


def run_once(argv: list, timeout: float, root: Path = ROOT) -> dict:
    """One hatkit run of the checkout ``root`` as a child process, waited
    for with ``os.wait4``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "hatkit.cli", *argv],
                                stdout=subprocess.DEVNULL, stderr=err,
                                env=env)
        timed_out = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - start > timeout:
                proc.kill()
                timed_out = True
                _pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
        seconds = time.perf_counter() - start
        # reaped here, so Popen must not wait for it again
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        lines = err.read().decode(errors="replace").strip().splitlines()
    return {"argv": argv, "exit": None if timed_out else proc.returncode,
            "seconds": round(seconds, 3),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            "stderr": lines[-1] if lines else ""}


def ladder(rungs, timeout: float, roots: dict, run=run_once,
           log=None) -> dict:
    """Every rung in order, on each checkout of ``roots`` (side name to
    checkout), the first side alternating from rung to rung."""
    runs = []
    for k, rung in enumerate(rungs):
        sides = list(roots)[::-1 if k % 2 else 1]
        for side in sides:
            result = {"side": side, **run(rung.split(), timeout, roots[side])}
            runs.append(result)
            if log:
                log(f"{side}: {rung}: exit {result['exit']}, "
                    f"{result['seconds']} s, {result['peak_rss_mb']} MB")
    return {"command": "python3 -m hatkit.cli RUNG", "timeout_s": timeout,
            "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rungs", nargs="+", default=list(RUNGS),
                        help="hatkit command lines, each one argument")
    parser.add_argument("--parent", type=Path,
                        help="also run every rung on this checkout")
    parser.add_argument("--timeout", type=float, default=300.0)
    parser.add_argument("-o", "--output", type=Path)
    args = parser.parse_args(argv)

    roots = {"change": ROOT}
    if args.parent:
        roots = {"parent": args.parent.resolve(), **roots}
    section = ladder(args.rungs, args.timeout, roots,
                     log=lambda line: print(line, file=sys.stderr))
    if args.output is None:
        print(json.dumps({SECTION: section}, indent=1))
        return 0
    doc = json.loads(args.output.read_text()) if args.output.exists() else {}
    doc.setdefault("host", f"Python {platform.python_version()}, "
                           f"{os.cpu_count()} CPUs, {platform.machine()}")
    doc[SECTION] = section
    args.output.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
