"""The benchmark's workloads and their reference checks.

Each workload turns a seed into a list of CLI requests.  Input files are
written into a work directory, so hatkit receives only generated inputs.
Every request carries the check of its output against the reference.

verify-grid
    ``hatkit verify SUITE`` for each of the 8 suites on the default grid of
    235 instances, one request per suite, so that a pass is one full
    ``hatkit verify``.  This is how users check the structural laws, and it
    is where recomputation lives: every suite rebuilds the pool and
    certifies and analyses every instance again.  The grid is fixed, so the
    seed is ignored.
analyze-ladder
    ``hatkit analyze`` on bundle files along a ladder of sizes: Xo rungs up
    to about 400 vertices and |G| about 800, an Xe(6,40) rung, wreath(8..12)
    with |G| up to 49,152, and the four arc graphs, which take the quotient
    path through psi_isomorphism.  A few large groups, where element
    enumeration, action_kernel filtering and group_structure dominate; no
    automorphism search.  The seed picks q (and t) at each rung.
symmetry
    ``hatkit aut`` and ``hatkit iso`` on edge-list files of Xo, Xe and
    circulant graphs with 100 to 400 vertices and no group, mixing
    isomorphic and non-isomorphic pairs.  Refinement and search dominate;
    certify, alternating analysis and kernels do nothing.  The seed picks q
    and d among the instances of ``symmetry_reference.json``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import instances as inst

HERE = Path(__file__).resolve().parent
SYMMETRY_REFERENCE = HERE / "symmetry_reference.json"


@dataclass
class Request:
    """One CLI call and the check of its output.

    ``check(exit_code, stdout)`` returns (attempted, failed, problems)."""

    argv: list
    check: Callable


# -- verify-grid ---------------------------------------------------------------

# Per-suite status counts of ``hatkit verify`` on the default grid.
VERIFY_COUNTS = {
    "gta": {"pass": 224},
    "jump-lemmas": {"pass": 235},
    "kernels": {"pass": 235},
    "allkernels": {"pass": 234, "skip": 1},
    "quotient": {"pass": 234, "skip": 1},
    "psi": {"pass": 4, "skip": 231},
    "iso-relations": {"pass": 40},
    "andivr-props": {"pass": 4, "skip": 231},
}


def check_verify(path: Path, expected: dict, exit_code: int, _stdout: str):
    """An attempt is one suite-instance result.  A suite fails as many
    attempts as its status counts are away from the reference (a result
    moved from one status to another counts once); a non-zero exit fails
    every attempt."""
    attempted = sum(sum(c.values()) for c in expected.values())
    if exit_code != 0 or not path.exists():
        return attempted, attempted, [f"verify exited with {exit_code}"]
    docs = {doc["suite"]: doc for doc in json.loads(path.read_text())}
    path.unlink()
    failed, problems = 0, []
    for suite, want in expected.items():
        got = docs.get(suite, {}).get("counts", {})
        off = sum(abs(got.get(s, 0) - want.get(s, 0))
                  for s in ("pass", "fail", "skip", "error"))
        if off:
            failed += min(sum(want.values()), (off + 1) // 2)
            problems.append(f"verify: {suite} counts {got}, reference {want}")
    return attempted, failed, problems


def verify_grid(_seed: int, workdir: Path) -> list:
    requests = []
    for suite, counts in VERIFY_COUNTS.items():
        out = workdir / f"verify-{suite}.json"
        requests.append(Request(["verify", suite, "-o", str(out)],
                                partial(check_verify, out, {suite: counts})))
    return requests


# -- analyze-ladder ------------------------------------------------------------

# 15 requests a pass: with an odd count the median latency falls inside
# one request's samples, not between two requests of different cost.
XO_RUNGS = ((3, 97), (4, 53), (4, 101), (6, 41), (6, 67))
XE_RUNG = (6, 40)
WREATH_SIZES = (8, 9, 10, 11, 12)


def analysis_reference(r, a, case, kernel_order, outcome) -> dict:
    return {"r": r, "a": a, "kernel_case": case,
            "kernel_orders": {k: kernel_order for k in ("K_alt", "K_B", "K_A")},
            "outcome": outcome}


def analysis_facts(doc: dict) -> dict:
    """The facts of an ``analyze`` report that the reference fixes."""
    return {"r": doc["r"], "a": doc["a"], "kernel_case": doc["kernel_case"],
            "kernel_orders": {k: v["order"] for k, v in doc["kernels"].items()},
            "outcome": doc["quotient"]["outcome"]}


def check_analyze(name: str, expected: dict, exit_code: int, stdout: str):
    if exit_code != 0:
        return 1, 1, [f"analyze {name}: exit code {exit_code}"]
    try:
        got = analysis_facts(json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        return 1, 1, [f"analyze {name}: unreadable report ({exc!r})"]
    if got != expected:
        return 1, 1, [f"analyze {name}: {got}, reference {expected}"]
    return 1, 0, []


def analyze_ladder(seed: int, workdir: Path) -> list:
    """References come from the theory of each family: the layered families
    are tightly attached (a = r) with dihedral kernels of order 2r (case
    iii); wreath(n) has r = a = 2 and the elementary abelian kernel of
    order 2^n (case ii); the arc graphs have r = 3, a = 2, a trivial kernel
    (case v) and an antipodally attached quotient."""
    rng = random.Random(seed)
    requests = []

    def add(name, n, edges, generators, expected):
        path = workdir / f"{name}.json"
        path.write_text(inst.bundle_json(n, edges, generators))
        requests.append(Request(["analyze", str(path)],
                                partial(check_analyze, name, expected)))

    for m, r in XO_RUNGS:
        q = rng.choice(inst.xo_params(m, r))
        add(f"xo-{m}-{r}-{q}", m * r, inst.xo_edges(m, r, q),
            inst.xo_generators(m, r, q),
            analysis_reference(r, r, "iii", 2 * r, "tight"))
    m, r = XE_RUNG
    q, t = rng.choice(inst.xe_params(m, r))
    add(f"xe-{m}-{r}-{q}-{t}", m * r, inst.xe_edges(m, r, q, t),
        inst.xe_generators(m, r, q, t),
        analysis_reference(r, r, "iii", 2 * r, "tight"))
    for n in WREATH_SIZES:
        add(f"wreath-{n}", 2 * n, inst.wreath_edges(n),
            inst.wreath_generators(n),
            analysis_reference(2, 2, "ii", 2 ** n, "tight"))
    for name in inst.CUBIC_SEEDS:
        add(f"arcgraph-{name}", *inst.arc_graph(name),
            analysis_reference(3, 2, "v", 1, "quotient"))
    return requests


# -- symmetry ------------------------------------------------------------------

def check_aut(name: str, expected: dict, exit_code: int, stdout: str):
    if exit_code != 0:
        return 1, 1, [f"aut {name}: exit code {exit_code}"]
    try:
        doc = json.loads(stdout)
        got = {"order": doc["order"], "arc_transitive": doc["arc_transitive"]}
    except (ValueError, KeyError, TypeError) as exc:
        return 1, 1, [f"aut {name}: unreadable report ({exc!r})"]
    if got != expected:
        return 1, 1, [f"aut {name}: {got}, reference {expected}"]
    return 1, 0, []


def check_iso(name: str, expected: bool, edges1, edges2, exit_code: int,
              stdout: str):
    """The verdict must match the reference, and a witness must be present
    exactly when the graphs are isomorphic and must carry edges onto edges."""
    if exit_code != 0:
        return 1, 1, [f"iso {name}: exit code {exit_code}"]
    try:
        doc = json.loads(stdout)
        same, witness = doc["isomorphic"], doc.get("witness")
    except (ValueError, KeyError, TypeError) as exc:
        return 1, 1, [f"iso {name}: unreadable report ({exc!r})"]
    if same is not expected:
        return 1, 1, [f"iso {name}: isomorphic={same}, reference {expected}"]
    if same and not (isinstance(witness, list)
                     and inst.is_isomorphism(witness, edges1, edges2)):
        return 1, 1, [f"iso {name}: witness is not an isomorphism"]
    if not same and witness is not None:
        return 1, 1, [f"iso {name}: witness given for non-isomorphic graphs"]
    return 1, 0, []


def symmetry(seed: int, workdir: Path) -> list:
    reference = json.loads(SYMMETRY_REFERENCE.read_text())
    rng = random.Random(seed)
    files = {}

    def file_of(spec):
        if spec not in files:
            n, edges = inst.graph_of(spec)
            path = workdir / (spec.replace(":", "-").replace(",", "-") + ".txt")
            path.write_text(inst.edgelist_text(n, edges))
            files[spec] = (str(path), edges)
        return files[spec]

    requests = []
    for _rung, table in sorted(reference["aut"].items()):
        spec = rng.choice(sorted(table))
        requests.append(Request(["aut", file_of(spec)[0]],
                                partial(check_aut, spec, table[spec])))
    for _rung, pairs in sorted(reference["iso"].items()):
        a, b, same = rng.choice(pairs)
        (path_a, edges_a), (path_b, edges_b) = file_of(a), file_of(b)
        requests.append(Request(["iso", path_a, path_b],
                                partial(check_iso, f"{a} {b}", same,
                                        edges_a, edges_b)))
    return requests


WORKLOADS = {
    "verify-grid": verify_grid,
    "analyze-ladder": analyze_ladder,
    "symmetry": symmetry,
}
