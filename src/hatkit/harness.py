"""Verification suites over parameter grids, file ingestion, and the full
analysis pipeline behind the CLI.

A suite runs an assertion over every instance of a configured pool and
reports pass/fail per instance with a reproducible witness on failure.
Invalid parameter combinations are recorded as skipped, never as failures.
All requested suites share one walk over the pool and one analysis record
per instance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path
from typing import Iterable, Optional, Tuple, Union

from . import alternating, autsearch
from .constructions import (
    XoParams,
    build_cubic_arc_graph,
    build_wreath,
    build_xe,
    build_xo,
    special_circulant_k44,
    valid_xe_params,
    valid_xo_params,
    wreath_hat_group,
)
from .errors import HatkitError, ParseError, PreconditionFailedError
from .fileio import bundle_from_json, graph6_decode, parse_edgelist
from .graphcore import Graph, build_graph
# hatbench's tracing test reads hatkit.harness.certify_hat
from .graphcore import certify_hat  # noqa: F401
from .perm import GroupByGenerators
from .quotients import Analysis

SUITE_NAMES = ("gta", "jump-lemmas", "kernels", "allkernels", "quotient",
               "psi", "iso-relations", "andivr-props")


@dataclass
class GridConfig:
    """Desk-scale parameter grids and extra instance files.  ``hatkit
    verify`` uses these default ranges and adds its ``--ingest`` files; a
    wider grid is a GridConfig built in Python."""

    xo_m: tuple = (3, 4, 5, 6)
    xo_r: tuple = tuple(range(5, 16, 2))
    xe_m: tuple = (4, 6)
    xe_r: tuple = tuple(range(4, 21, 2))
    wreath_n: tuple = tuple(range(3, 9))
    extra_files: tuple = ()


@dataclass
class InstanceResult:
    key: str
    status: str  # "pass" | "fail" | "skip" | "error"
    detail: dict = field(default_factory=dict)


@dataclass
class SuiteReport:
    suite: str
    results: list
    wall_time: float

    @property
    def passed(self) -> bool:
        return all(r.status in ("pass", "skip") for r in self.results)

    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "skip": 0, "error": 0}
        for r in self.results:
            out[r.status] += 1
        return out

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "counts": self.counts(),
            "wall_time_s": round(self.wall_time, 3),
            "results": [
                {"key": r.key, "status": r.status, **(
                    {"detail": r.detail} if r.detail else {})}
                for r in self.results],
        }


def param_grid(cfg: GridConfig) -> list:
    """All valid layered-family parameter sets for the configured grid."""
    out = []
    for m in cfg.xo_m:
        for r in cfg.xo_r:
            out.extend(valid_xo_params(m, r))
    for m in cfg.xe_m:
        for r in cfg.xe_r:
            out.extend(valid_xe_params(m, r))
    return out


def instance_pool(cfg: GridConfig) -> Iterable[
        Tuple[str, Union[Analysis, HatkitError, ValueError]]]:
    """Named analysis records: the layered grids (with their parameters),
    wreath graphs, the two-cycle circulant, arc graphs of small cubic
    arc-transitive graphs (which realize attachment number 2 with radius 3)
    and the extra files that carry a group.  A file that cannot be read
    yields its error in place of a record, so that a suite run reports it
    against that instance alone; so does a construction fault, as the
    NotAutomorphismError of the record's certification.  Records are built
    one at a time and the pool keeps no reference to them.
    """
    for p in param_grid(cfg):
        build = build_xo if isinstance(p, XoParams) else build_xe
        yield str(p), Analysis(*build(p), params=p)
    for n in cfg.wreath_n:
        yield f"wreath({n})", Analysis(build_wreath(n), wreath_hat_group(n))
    yield "Circ8(1,3)", Analysis(*special_circulant_k44())
    for name, delta in small_cubic_graphs().items():
        aut = autsearch.automorphism_group(delta)
        yield f"arcgraph({name})", Analysis(*build_cubic_arc_graph(delta, aut))
    for path in cfg.extra_files:
        key = f"file({Path(path).name})"
        try:
            g, grp = ingest(path)
        except (HatkitError, ValueError) as exc:
            yield key, exc
        else:
            if grp is not None:
                yield key, Analysis(g, grp)


def small_cubic_graphs() -> dict:
    """Cubic 2-arc-transitive seeds for the arc-graph construction."""
    k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    k33 = build_graph(6, [(i, j + 3) for i in range(3) for j in range(3)])
    cube = build_graph(8, [(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3),
                           (2, 6), (3, 7), (4, 5), (4, 6), (5, 7), (6, 7)])
    petersen = build_graph(10, [(i, (i + 1) % 5) for i in range(5)]
                           + [(i, i + 5) for i in range(5)]
                           + [(i + 5, (i + 2) % 5 + 5) for i in range(5)])
    return {"K4": k4, "K33": k33, "cube": cube, "petersen": petersen}


# -- ingestion -----------------------------------------------------------------

def ingest(path, fmt: Optional[str] = None):
    """Load (Graph, optional group) from edge-list, graph6 or bundle-JSON.

    The format is inferred from the suffix when not given:
    .g6/.s6 -> graph6, .json -> bundle-json, anything else -> edgelist.
    A graph6 or sparse6 file must hold exactly one graph.  A file that
    cannot be read is a ParseError naming the path.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    if fmt is None:
        suffix = Path(path).suffix.lower()
        fmt = {".g6": "graph6", ".s6": "graph6",
               ".json": "bundle-json"}.get(suffix, "edgelist")
    if fmt == "graph6":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if len(lines) != 1:
            raise ParseError(f"a graph6 file holds one graph, found "
                             f"{len(lines)} lines")
        return graph6_decode(lines[0]), None
    if fmt == "bundle-json":
        g, grp, _params = bundle_from_json(text)
        return g, grp
    if fmt == "edgelist":
        return parse_edgelist(text), None
    raise ValueError(f"unknown format {fmt!r}")


# -- the full pipeline ---------------------------------------------------------

def analyze_instance(g: Graph, group: Optional[GroupByGenerators],
                     with_aut: bool = False) -> dict:
    """certify -> alternating analysis -> quotients -> kernels -> case tags.

    Without a group only the structure of a supplied orientation cannot be
    derived, so the report is restricted to basic graph facts.
    """
    report = {"n": g.n, "m": len(g.edges)}
    if group is None:
        report["mode"] = "graph-only"
    else:
        rec = Analysis(g, group)
        report.update(rec.structure.summary())
        report["kernel_case"] = rec.kernel_case
        report["kernel_structure"] = str(rec.tags["K_alt"])
        report["kernels"] = {
            name: {"order": k.order(), "structure": str(rec.tags[name])}
            for name, k in rec.kernels.items()}
        # the kernels' chain, now built, is the group's chain too
        report["group_order"] = group.order()
        report["kernels_equal"] = rec.kernels_equal
        try:
            report["quotient"] = rec.pipeline
        except PreconditionFailedError as exc:
            report["quotient"] = {"outcome": "not-applicable",
                                  "reason": str(exc)}
    if with_aut:
        aut = autsearch.automorphism_group(g)
        report["aut_order"] = aut.order()
        if group is None:
            report["arc_transitive"] = aut.arc_transitive
        else:
            report["orbit_swapper"] = autsearch.has_orbit_swapper(
                rec.orientation)
    return report


# -- suites --------------------------------------------------------------------

def _jump_lemmas(rec: Analysis) -> dict:
    s = rec.structure
    a = s.attachment
    if a == 1:
        ok = s.Q == {0}
    elif a == 2:
        ok = s.Q == {1}
    else:
        ok = (gcd(a, s.q_t) == 1 and gcd(a, s.q_h) == 1
              and (s.q_t * s.q_h) % a in (1 % a, (-1) % a))
    mult_ok, witness = alternating.check_mult_lemma(s)
    detail = {"_pass": ok and mult_ok, "a": a, "Q": sorted(s.Q)}
    if witness:
        detail["witness"] = witness
    return detail


def _andivr_props(rec: Analysis) -> Optional[dict]:
    """Properties special to attachment number not dividing the radius:
    a single jump value with square +-1 mod a, and bipartiteness of the
    cycle graph away from the two exceptional jump values."""
    s = rec.structure
    a = s.attachment
    if s.radius % a == 0 or a == rec.graph.n:
        return None
    ok = len(s.Q) == 1 and (s.jum * s.jum) % a in (1 % a, (-1) % a)
    detail = {"_pass": ok, "a": a, "Q": sorted(s.Q)}
    if ok and s.jum not in (1, a // 2 - 1):
        bip = alternating.alt_bipartition(s)
        detail["_pass"] = bip is not None
        detail["bipartite"] = bip is not None
    return detail


def _degenerate(rec: Analysis) -> bool:
    return rec.structure.attachment == 2 * rec.structure.radius


# Each pool suite checks one instance's record.  A check returns the row's
# detail, whose "_pass" entry (default True) makes it pass or fail, or None
# to skip the instance.
_POOL_SUITES = {
    "gta": lambda rec: {
        "_pass": rec.structure.jum == alternating.min_r_jump(
            rec.params.q, rec.params.r),
        "params": str(rec.params)},
    "jump-lemmas": _jump_lemmas,
    # classify_kernel raises on a structure that does not fit its row
    "kernels": lambda rec: {
        "case": rec.kernel_case, "structure": str(rec.tags["K_alt"])},
    # the equality claim needs at least three cycles
    "allkernels": lambda rec: None if _degenerate(rec) else {
        "_pass": rec.kernels_equal, "order": rec.kernels["K_alt"].order()},
    "quotient": lambda rec: None if _degenerate(rec) else {
        "outcome": rec.pipeline["outcome"]},
    "psi": lambda rec: {
        "_pass": "psi_cycle_map" in rec.pipeline,
        "outcome": rec.pipeline["outcome"],
    } if rec.structure.attachment < rec.structure.radius else None,
    "andivr-props": _andivr_props,
}


def _error_row(key: str, exc: Exception) -> InstanceResult:
    return InstanceResult(key, "error", {"error": type(exc).__name__,
                                         "message": str(exc)})


def _row(key: str, check, rec: Analysis) -> InstanceResult:
    try:
        detail = check(rec)
    except (HatkitError, ValueError) as exc:
        return _error_row(key, exc)
    if detail is None:
        return InstanceResult(key, "skip")
    status = "pass" if detail.pop("_pass", True) else "fail"
    return InstanceResult(key, status, detail)


def _suite_iso_relations(cfg: GridConfig) -> SuiteReport:
    """Parameter symmetry: q, -q, q^-1 and -q^-1 give isomorphic graphs.
    Each labelling's graph is built once per (m, r); labellings with the
    same adjacency are one graph, and each graph of a class other than its
    base is compared with the base by ``are_isomorphic``."""
    start = time.monotonic()
    results = []
    for m in cfg.xo_m:
        for r in cfg.xo_r:
            params = valid_xo_params(m, r)
            graphs = {p.q: build_xo(p)[0] for p in params}
            seen = set()
            for p in params:
                cls = {p.q % r, (-p.q) % r,
                       pow(p.q, -1, r), (-pow(p.q, -1, r)) % r}
                key = min(cls)
                if key in seen:
                    continue
                seen.add(key)
                missing = cls - graphs.keys()
                if missing:
                    results.append(InstanceResult(
                        f"Xo({m},{r})-class{key}", "fail",
                        {"missing_q": sorted(missing)}))
                    continue
                base = graphs[key]
                others = {graphs[q].adjacency: graphs[q] for q in cls}
                del others[base.adjacency]
                ok = all(autsearch.are_isomorphic(base, g)[0]
                         for g in others.values())
                results.append(InstanceResult(
                    f"Xo({m},{r})-class{key}", "pass" if ok else "fail",
                    {"q_class": sorted(cls)}))
    return SuiteReport("iso-relations", results, time.monotonic() - start)


def check_suite_names(names):
    """Raise ValueError on the first name in ``names`` that is no suite."""
    for name in names:
        if name not in SUITE_NAMES:
            raise ValueError(
                f"unknown suite {name!r}; choose from {SUITE_NAMES}")


def run_suites(names, cfg: Optional[GridConfig] = None) -> list:
    """Run the named suites and return their reports in the given order.

    The pool suites share one walk over the pool: each instance's record is
    built once, every requested suite reads it, and it is dropped before
    the next instance is built.  A failure stays with its instance.  A pool
    suite's wall time is the time spent in its checks, including the
    shared fields a check was first to compute.
    """
    check_suite_names(names)
    cfg = cfg or GridConfig()
    pool_names = [n for n in dict.fromkeys(names) if n in _POOL_SUITES]
    rows = {n: [] for n in pool_names}
    wall = dict.fromkeys(pool_names, 0.0)
    for key, rec in instance_pool(cfg) if pool_names else ():
        failed = isinstance(rec, Exception)
        for name in pool_names:
            if name == "gta" and (failed or rec.params is None):
                continue  # gta covers the layered grid only
            start = time.monotonic()
            rows[name].append(_error_row(key, rec) if failed
                              else _row(key, _POOL_SUITES[name], rec))
            wall[name] += time.monotonic() - start
        del rec
    reports = {n: SuiteReport(n, rows[n], wall[n]) for n in pool_names}
    if "iso-relations" in names:
        reports["iso-relations"] = _suite_iso_relations(cfg)
    return [reports[n] for n in names]


def run_suite(name: str, cfg: Optional[GridConfig] = None) -> SuiteReport:
    return run_suites([name], cfg)[0]
