"""Acceptance suite: one test per criterion, each printing a single
PASS/FAIL line.  Time bounds are asserted where the criterion carries one.
"""

import time
from pathlib import Path

import pytest

from hatkit import autsearch, harness, quotients
from hatkit.alternating import analyze, build_rho
from hatkit.constructions import (
    XeParams,
    XoParams,
    build_circulant,
    build_cubic_arc_graph,
    build_xe,
    build_xo,
)
from hatkit.errors import PreconditionFailedError
from hatkit.graphcore import build_graph, certify_hat
from hatkit.perm import group_structure
from oracles import closure


def report(criterion, ok, extra=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


SHARED_SUITES = ("gta", "jump-lemmas", "allkernels", "kernels", "psi",
                 "iso-relations", "andivr-props")


@pytest.fixture(scope="module")
def walk():
    """One walk over the pool for the suites of criteria 03, 04, 05, 06,
    08, 09 and 11: their reports by suite name, and the walk's wall
    time."""
    t0 = time.monotonic()
    reports = harness.run_suites(SHARED_SUITES)
    return {r.suite: r for r in reports}, time.monotonic() - t0


def full_pipeline(g, grp):
    s = analyze(certify_hat(g, grp))
    ks = quotients.kernels(grp, s)
    return s, ks


def test_criterion_01_reference_pipeline():
    t0 = time.monotonic()
    g, grp = build_xo(XoParams(3, 9, 2))
    s, ks = full_pipeline(g, grp)
    elapsed = time.monotonic() - t0
    ok = (s.radius == 9 and s.attachment == 9 and s.Q == {2, 4}
          and s.jum == 2 and s.attachment_kind == "tight"
          and closure(ks["K_alt"]) == closure(ks["K_B"])
          == closure(ks["K_A"])
          and str(group_structure(ks["K_alt"])) == "Dihedral(18)"
          and elapsed < 5.0)
    report("01 reference pipeline", ok, f"{elapsed:.2f}s")


def test_criterion_02_jump_pair_values():
    t0 = time.monotonic()
    results = []
    for t in (0, 10):
        g, grp = build_xe(XeParams(4, 20, 3, t))
        s = analyze(certify_hat(g, grp))
        results.append(s.attachment == 20 and s.Q == {3, 7})
    g, grp = build_xo(XoParams(3, 13, 3))
    s = analyze(certify_hat(g, grp))
    results.append(s.attachment == 13 and s.jum == 3)
    elapsed = time.monotonic() - t0
    ok = all(results) and elapsed < 10.0
    report("02 jump pair values", ok, f"{elapsed:.2f}s")


def test_criterion_03_jump_formula_suite(walk):
    reports, walk_s = walk
    t0 = time.monotonic()
    grid = harness.param_grid(harness.GridConfig())
    rep = reports["gta"]
    elapsed = walk_s + time.monotonic() - t0
    ok = len(grid) >= 100 and rep.passed and elapsed < 120.0
    report("03 jump formula suite", ok,
           f"{len(grid)} param sets, {elapsed:.1f}s")


def test_criterion_04_jump_arithmetic_suite(walk):
    # the suite checks gcd(a, q_t) = gcd(a, q_h) = 1 and q_t q_h = +-1
    # mod a for a >= 3, Q = {1} for a = 2, Q = {0} for a = 1, and the
    # multiplication lemma
    rep = walk[0]["jump-lemmas"]
    counts = rep.counts()
    report("04 jump arithmetic suite", rep.passed and counts["pass"] > 0,
           f"{counts['pass']} instances")


def test_criterion_05_kernel_equality_suite(walk):
    rep = walk[0]["allkernels"]
    counts = rep.counts()
    report("05 kernel equality suite", rep.passed and counts["pass"] > 0,
           f"{counts['pass']} instances")


def test_criterion_06_kernel_classification_suite(walk):
    rep = walk[0]["kernels"]
    cases = {r.detail.get("case") for r in rep.results if r.status == "pass"}
    ok = rep.passed and {"i", "ii", "iii", "v"} <= cases
    report("06 kernel classification suite", ok, f"cases seen: {sorted(cases)}")


def test_criterion_07_quotient_reduction():
    checked = 0
    ok = True
    for _key, rec in harness.instance_pool(harness.GridConfig()):
        s = rec.structure
        if s.attachment >= s.radius:
            continue
        checked += 1
        rep = rec.pipeline
        want = "loose" if s.radius % s.attachment == 0 else "antipodal"
        ok = ok and rep["outcome"] == "quotient"
        ok = ok and rep["quotient_kind"] == want
    report("07 quotient reduction", ok and checked > 0,
           f"{checked} instances with a < r")


def test_criterion_08_cycle_graph_isomorphism(walk):
    rep = walk[0]["psi"]
    counts = rep.counts()
    report("08 cycle-graph isomorphism", rep.passed and counts["pass"] > 0,
           f"{counts['pass']} instances")


def test_criterion_09_isomorphism_facts(walk):
    reports, walk_s = walk
    t0 = time.monotonic()
    g1, _ = build_xo(XoParams(6, 13, 2))
    g2, _ = build_xo(XoParams(6, 13, 3))
    ok = not autsearch.are_isomorphic(g1, g2)[0]
    g3, _ = build_xe(XeParams(4, 20, 3, 0))
    g4, _ = build_xe(XeParams(4, 20, 3, 10))
    ok = ok and not autsearch.are_isomorphic(g3, g4)[0]
    rep = reports["iso-relations"]
    elapsed = walk_s + time.monotonic() - t0
    ok = ok and rep.passed and elapsed < 300.0
    report("09 isomorphism facts", ok, f"{elapsed:.1f}s")


def test_criterion_10_circulant_arc_transitivity():
    ok = not autsearch.is_arc_transitive(build_circulant(13, {1, -1, 3, -3}))
    ok = ok and autsearch.is_arc_transitive(build_circulant(5, {1, -1, 2, -2}))
    report("10 circulant arc-transitivity", ok)


def test_criterion_11_square_root_machinery(walk):
    rep = walk[0]["andivr-props"]
    ok = rep.passed and rep.counts()["pass"] > 0
    # precondition violations must fire on constructed counter-inputs
    g, grp = build_xo(XoParams(3, 9, 2))  # a = r: divisibility clause
    og = certify_hat(g, grp)
    s = analyze(og)
    with pytest.raises(PreconditionFailedError):
        build_rho(og, s, grp.identity)
    k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    ag, agrp = build_cubic_arc_graph(k4, autsearch.automorphism_group(k4))
    aog = certify_hat(ag, agrp)
    with pytest.raises(PreconditionFailedError):  # a = 2: size clause
        build_rho(aog, analyze(aog), agrp.identity)
    report("11 square-root machinery", ok,
           f"{rep.counts()['pass']} property instances, negatives fired")


CENSUS_DIR = Path(__file__).parent / "census"


def test_criterion_12_census_cross_checks():
    files = sorted(CENSUS_DIR.glob("*.json")) if CENSUS_DIR.exists() else []
    if not files:
        report("12 census cross-checks", True, "no census files supplied")
        return
    ok = True
    for path in files:
        g, grp = harness.ingest(path)
        rep = harness.analyze_instance(g, grp)
        ok = ok and "r" in rep
    report("12 census cross-checks", ok, f"{len(files)} files")
