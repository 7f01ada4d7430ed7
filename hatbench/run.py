"""hatkit benchmark: one sequential closed-loop client driving
``hatkit.cli.main`` in process.

    python3 hatbench/run.py --workload analyze-ladder --seed 1 --seconds 36 --trace 0

Run from the root of a hatkit checkout; hatkit is imported from ``src/``.
Workloads are described in ``workloads.py``.  A run sets up several times
(import hatkit, write the seeded input files) and reports the median set-up
time, then sends requests for ``--seconds``, one full pass of the workload
after another, and checks every output against its reference.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes traced through ``spans.py`` and prints the
per-layer self times and counters per traced pass, the traced pass time
and the tracing overhead.  The last line of standard output is the JSON
result; the lines before it say the same for people.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 15
# A run without tracing makes at least this many passes, so that the number
# of samples, and with it the percentile of request_tail_ms, stays put.
MIN_PASSES = 4
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
TRACE_METRICS = {"trace.wall_s": "s", "trace.overhead_s": "s",
                 "trace.unaccounted_s": "s"}
PER_LAYER = {**{m: "s" for m in spans.TIME_METRICS},
             **{m: "count" for m in spans.COUNT_METRICS},
             **TRACE_METRICS}


def tail(samples):
    """(value, percentile, samples beyond) at the highest whole percentile
    with at least ten samples beyond it; the maximum when there are fewer
    than eleven samples."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100, 0
    p = 100 * (n - 10) // n
    rank = math.ceil(p * n / 100)
    return xs[rank - 1], p, n - rank


def load_hatkit(root: Path):
    """Import hatkit afresh from the checkout's ``src/``."""
    for name in [m for m in sys.modules
                 if m == "hatkit" or m.startswith("hatkit.")]:
        del sys.modules[name]
    return importlib.import_module("hatkit.cli")


def call(cli, argv, tracer=None):
    """One request: (latency in seconds, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    index = tracer.begin(spans.REQUEST_LAYER) if tracer else None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed request, not a stop
                traceback.print_exc(file=sys.__stderr__)
                code = 1
    finally:
        if tracer:
            tracer.end(index)
    return time.perf_counter() - start, code, out.getvalue()


class Run:
    """Passes of one workload and the checks of their outputs."""

    def __init__(self, cli, requests):
        self.cli = cli
        self.requests = requests
        self.walls = {False: [], True: []}
        self.latencies = []
        self.attempted = self.failed = 0
        self.problems = []
        self.layer_totals = Counter()

    def one_pass(self, tracer=None):
        gc.collect()  # every pass starts from the same heap, untimed
        results = []
        start = time.perf_counter()
        for req in self.requests:
            results.append(call(self.cli, req.argv, tracer))
        wall = time.perf_counter() - start
        self.walls[tracer is not None].append(wall)
        if tracer is None:
            self.latencies.extend(lat for lat, _code, _out in results)
        else:
            self.layer_totals.update(spans.self_times(tracer.spans))
            self.layer_totals.update(tracer.counts)
            tracer.reset()
        for req, (_lat, code, out) in zip(self.requests, results):
            attempted, failed, problems = req.check(code, out)
            self.attempted += attempted
            self.failed += failed
            self.problems.extend(problems)
        return wall


def measure(run: Run, seconds: float, traced: bool):
    """Passes until the next one would end after ``seconds``, and at least
    MIN_PASSES of them; with tracing, untraced and traced passes alternate
    and each kind runs at least once."""
    tracer = spans.Tracer() if traced else None
    start = time.perf_counter()
    use_tracer = False
    while True:
        if use_tracer:
            remove = spans.instrument(tracer)
            try:
                wall = run.one_pass(tracer)
            finally:
                remove()
        else:
            wall = run.one_pass()
        if traced:
            use_tracer = not use_tracer
        elapsed = time.perf_counter() - start
        if traced:
            done = run.walls[False] and run.walls[True]
        else:
            done = len(run.walls[False]) >= MIN_PASSES
        if done and elapsed + wall > seconds:
            return


def report(run: Run, setup_times, traced: bool):
    lines = []
    if traced:
        passes = len(run.walls[True])
        metrics = {m: run.layer_totals[m] / passes for m in PER_LAYER
                   if m not in TRACE_METRICS}
        traced_wall = statistics.fmean(run.walls[True])
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - statistics.fmean(
            run.walls[False])
        metrics["trace.unaccounted_s"] = traced_wall - sum(
            metrics[m] for m in spans.TIME_METRICS)
        lines.append(f"traced passes {passes}, untraced passes "
                     f"{len(run.walls[False])}; per-layer values are per "
                     "traced pass")
        units = PER_LAYER
    else:
        value, pct, beyond = tail(run.latencies)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(run.walls[False]),
            "request_p50_ms": 1000 * statistics.median(run.latencies),
            "request_tail_ms": 1000 * value,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        lines.append(f"passes {len(run.walls[False])}, requests "
                     f"{len(run.latencies)}; request_tail_ms is p{pct} with "
                     f"{beyond} samples beyond it")
        units = END_TO_END
    fail_frac = run.failed / run.attempted if run.attempted else 1.0
    lines.append(f"fail_frac {fail_frac:.6g} (fraction; {run.failed} of "
                 f"{run.attempted} attempts failed)")
    lines.extend(f"{name} {value:.6g} {units[name]}"
                 for name, value in metrics.items())
    result = {
        "correct": run.attempted > 0 and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hatkit" / "cli.py").is_file():
        print(f"error: no hatkit sources under {root / 'src'}; run from the "
              "root of a hatkit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    workdir = HERE / "_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            cli = load_hatkit(root)
            requests = WORKLOADS[args.workload](args.seed, workdir)
            setup_times.append(time.perf_counter() - start)
        run = Run(cli, requests)
        measure(run, args.seconds, bool(args.trace))
        lines, result = report(run, setup_times, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    for problem in run.problems[:20]:
        print(f"mismatch: {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
