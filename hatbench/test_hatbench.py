"""Tests of the benchmark itself.

    python3 -m pytest -q hatbench

Run from the root of a hatkit checkout.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import instances as inst  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# -- reference checks ----------------------------------------------------------

def _verify_doc(counts):
    return [{"suite": s, "counts": {"pass": 0, "fail": 0, "skip": 0,
                                    "error": 0, **c}}
            for s, c in counts.items()]


def test_verify_check_accepts_the_reference_and_rejects_alterations(tmp_path):
    path = tmp_path / "verify.json"
    path.write_text(json.dumps(_verify_doc(workloads.VERIFY_COUNTS)))
    attempted, failed, _ = workloads.check_verify(
        path, workloads.VERIFY_COUNTS, 0, "")
    assert (attempted, failed) == (1674, 0)

    altered = {**workloads.VERIFY_COUNTS, "psi": {"pass": 5, "skip": 230}}
    path.write_text(json.dumps(_verify_doc(workloads.VERIFY_COUNTS)))
    _, failed, problems = workloads.check_verify(path, altered, 0, "")
    assert failed == 1 and "psi" in problems[0]

    fewer = {**workloads.VERIFY_COUNTS, "gta": {"pass": 223}}
    path.write_text(json.dumps(_verify_doc(workloads.VERIFY_COUNTS)))
    assert workloads.check_verify(path, fewer, 0, "")[1] == 1

    path.write_text(json.dumps(_verify_doc(workloads.VERIFY_COUNTS)))
    assert workloads.check_verify(path, workloads.VERIFY_COUNTS, 1, "")[1] \
        == 1674


def _cli_output(argv):
    cli = run.load_hatkit(ROOT)
    _latency, code, out = run.call(cli, argv)
    assert code == 0
    return out


def test_analyze_check_rejects_an_altered_reference(tmp_path):
    path = tmp_path / "arc.json"
    path.write_text(inst.bundle_json(*inst.arc_graph("K4")))
    out = _cli_output(["analyze", str(path)])
    good = workloads.analysis_reference(3, 2, "v", 1, "quotient")
    assert workloads.check_analyze("K4", good, 0, out)[1] == 0
    for key, value in (("a", 3), ("kernel_case", "iv"), ("outcome", "tight"),
                       ("kernel_orders", {"K_alt": 1, "K_B": 1, "K_A": 2})):
        assert workloads.check_analyze("K4", {**good, key: value}, 0, out)[1] \
            == 1
    assert workloads.check_analyze("K4", good, 3, out)[1] == 1


def _edgelist_file(tmp_path, spec):
    n, edges = inst.graph_of(spec)
    path = tmp_path / (spec.replace(":", "-").replace(",", "-") + ".txt")
    path.write_text(inst.edgelist_text(n, edges))
    return str(path), edges


def test_symmetry_checks_reject_altered_references(tmp_path):
    path, _ = _edgelist_file(tmp_path, "circ:13:1,5")
    out = _cli_output(["aut", path])
    # 5^2 = -1 (mod 13): multiplication by 5 swaps the two edge orbits.
    good = {"order": 52, "arc_transitive": True}
    assert workloads.check_aut("c13", good, 0, out)[1] == 0
    assert workloads.check_aut("c13", {**good, "order": 26}, 0, out)[1] == 1
    assert workloads.check_aut(
        "c13", {**good, "arc_transitive": False}, 0, out)[1] == 1

    path3, edges3 = _edgelist_file(tmp_path, "circ:13:1,3")
    path4, edges4 = _edgelist_file(tmp_path, "circ:13:1,4")
    out = _cli_output(["iso", path3, path4])
    assert workloads.check_iso("pair", True, edges3, edges4, 0, out)[1] == 0
    assert workloads.check_iso("pair", False, edges3, edges4, 0, out)[1] == 1
    doc = json.loads(out)
    doc["witness"][0], doc["witness"][1] = doc["witness"][1], doc["witness"][0]
    assert workloads.check_iso("pair", True, edges3, edges4, 0,
                               json.dumps(doc))[1] == 1

    path5, edges5 = _edgelist_file(tmp_path, "circ:13:1,5")
    out = _cli_output(["iso", path3, path5])
    assert workloads.check_iso("pair", False, edges3, edges5, 0, out)[1] == 0
    assert workloads.check_iso("pair", True, edges3, edges5, 0, out)[1] == 1


def test_symmetry_reference_has_every_rung():
    ref = json.loads(workloads.SYMMETRY_REFERENCE.read_text())
    assert ref["aut"] and ref["iso"]
    assert all(ref["aut"].values()) and all(ref["iso"].values())


# -- oracles -------------------------------------------------------------------

def test_oracle_counts_automorphisms_of_known_graphs():
    # Circ_8(1, 3) is K_{4,4}: |Aut| = 2 * 4! * 4!.
    assert inst.vt_automorphism_facts(*inst.graph_of("circ:8:1,3")) \
        == (1152, True)
    # The wreath graph C_5[2K_1]: |Aut| = 2^5 * 10.
    assert inst.vt_automorphism_facts(10, inst.wreath_edges(5)) == (320, True)
    # 3 * 9 = 1 (mod 13), and multiplying by 9 maps {1, 3} to {9, 1}.
    assert inst.vt_isomorphic(*inst.graph_of("circ:13:1,3"),
                              *inst.graph_of("circ:13:1,4"))
    assert not inst.vt_isomorphic(*inst.graph_of("circ:13:1,3"),
                                  *inst.graph_of("circ:13:1,5"))


# -- spans ---------------------------------------------------------------------

def test_self_time_on_a_synthetic_span_tree():
    S = spans.Span
    tree = [
        S("cli.self_s", 0.0, 10.0, None),      # 0
        S("quotients.kernels_s", 1.0, 6.0, 0),  # 1
        S("perm.action_kernel_s", 1.5, 3.0, 1),  # 2
        S("perm.elements_s", 2.0, 2.5, 2),      # 3
        S("perm.action_kernel_s", 4.0, 5.0, 1),  # 4
        S("alternating.analyze_s", 7.0, 9.0, 0),  # 5
    ]
    got = spans.self_times(tree)
    assert got == pytest.approx({
        "cli.self_s": 10.0 - 5.0 - 2.0,
        "quotients.kernels_s": 5.0 - 1.5 - 1.0,
        "perm.action_kernel_s": (1.5 - 0.5) + 1.0,
        "perm.elements_s": 0.5,
        "alternating.analyze_s": 2.0,
    })
    assert sum(got.values()) == pytest.approx(10.0)


def test_overlapping_children_are_covered_once():
    S = spans.Span
    tree = [S("a", 0.0, 4.0, None), S("b", 1.0, 3.0, 0), S("c", 2.0, 5.0, 0)]
    assert spans.self_times(tree)["a"] == pytest.approx(1.0)


def test_tracing_wraps_imported_names_and_unwraps_them(tmp_path):
    cli = run.load_hatkit(ROOT)
    harness = sys.modules["hatkit.harness"]
    quotients = sys.modules["hatkit.quotients"]
    before = (quotients.action_kernel, harness.certify_hat,
              sys.modules["hatkit.perm"].GroupByGenerators.elements)
    tracer = spans.Tracer()
    remove = spans.instrument(tracer)
    try:
        assert quotients.action_kernel is not before[0]
        assert harness.certify_hat is not before[1]
        path = tmp_path / "arc.json"
        path.write_text(inst.bundle_json(*inst.arc_graph("K4")))
        run.call(cli, ["analyze", str(path)], tracer)
    finally:
        remove()
    assert (quotients.action_kernel, harness.certify_hat,
            sys.modules["hatkit.perm"].GroupByGenerators.elements) == before
    layers = {sp.layer for sp in tracer.spans}
    assert {"cli.self_s", "graphcore.certify_hat_s", "perm.action_kernel_s",
            "perm.elements_s", "harness.ingest_s"} <= layers
    assert tracer.counts["perm.enumerations"] >= 1
    times = spans.self_times(tracer.spans)
    root = tracer.spans[0]
    assert sum(times.values()) == pytest.approx(root.end - root.start)


# -- metric names --------------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for table, ours in (("end_to_end", run.END_TO_END),
                        ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[table]}
        assert declared == ours
        for name, unit in ours.items():
            assert NAME.fullmatch(name) and len(name) <= 64
            assert unit and re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert spans.SUITES == tuple(workloads.VERIFY_COUNTS)


def test_tail_percentile_leaves_ten_samples_beyond():
    samples = list(range(1, 101))
    value, pct, beyond = run.tail(samples)
    assert (value, pct, beyond) == (90, 90, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100, 0)
