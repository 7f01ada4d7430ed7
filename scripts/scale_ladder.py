#!/usr/bin/env python3
"""Run hatkit commands on a ladder of growing instances, one subprocess per
run, and record how far each gets.

Usage:
    python3 scripts/scale_ladder.py [--specs xo:4,101,1 wreath:100 ...] \\
        [--timeout 300] [-o BENCH_n.json]

Each rung is a command and an instance specifier: ``aut SPEC`` and
``analyze --aut SPEC``, on Xo(4,r;1) for growing r and on ``wreath:k`` up
to k = 600.  Every run is ``python3 -m hatkit.cli`` with this checkout's
``src`` first on the import path and a wall-clock timeout; its standard
output is discarded.  A run records its wall seconds, its peak resident
set size in MB (from ``os.wait4``, so the figure belongs to that child
alone), its exit code (None when the timeout stopped it) and the last line
it wrote to standard error.  The result is one section of the JSON file,
so that the file can also hold other sections; without ``-o`` it goes to
standard output.
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
COMMANDS = (("aut",), ("analyze", "--aut"))
SPECS = ("xo:4,101,1", "xo:4,251,1", "xo:4,501,1", "xo:4,1001,1",
         "wreath:100", "wreath:200", "wreath:300", "wreath:600")
SECTION = "scale ladder"


def run_once(argv: list, timeout: float) -> dict:
    """One hatkit run as a child process, waited for with ``os.wait4``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
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


def ladder(specs, timeout: float, run=run_once, log=None) -> dict:
    """Every command on every spec, in order."""
    runs = []
    for argv in COMMANDS:
        for spec in specs:
            result = run([*argv, spec], timeout)
            runs.append(result)
            if log:
                log(f"{' '.join(result['argv'])}: exit {result['exit']}, "
                    f"{result['seconds']} s, {result['peak_rss_mb']} MB")
    return {"command": "python3 -m hatkit.cli COMMAND SPEC",
            "timeout_s": timeout, "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--specs", nargs="+", default=list(SPECS))
    parser.add_argument("--timeout", type=float, default=300.0)
    parser.add_argument("-o", "--output", type=Path)
    args = parser.parse_args(argv)

    section = ladder(args.specs, args.timeout,
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
