import io
import json
import random

import networkx as nx
import pytest
from sympy.combinatorics import Permutation as SymPerm, PermutationGroup

from hatkit import cli, harness, quotients
from hatkit.autsearch import automorphism_group
from hatkit.constructions import (
    XoParams,
    build_cubic_arc_graph,
    build_wreath,
    build_xo,
    special_circulant_k44,
    valid_xo_params,
    wreath_hat_group,
)
from hatkit.fileio import bundle_to_json, format_edgelist
from hatkit.graphcore import edge_key
from hatkit.harness import (
    GridConfig,
    analyze_instance,
    ingest,
    run_suite,
    run_suites,
)
from hatkit.perm import GroupByGenerators, Permutation, StabilizerChain
from oracles import closure, iso_relation_rows, setwise_action
from test_fileio import graph6

SMALL = GridConfig(xo_m=(3,), xo_r=(5, 7, 9), xe_m=(4,), xe_r=(4, 6),
                   wreath_n=(3, 4))


def sympy_group(generators):
    """The oracle: sympy's group on the given image lists."""
    return PermutationGroup([SymPerm(list(g)) for g in generators])


class TestGrid:
    def test_default_grid_size(self):
        assert len(harness.param_grid(GridConfig())) >= 100

    def test_pool_contains_all_families(self):
        keys = [k for k, _rec in harness.instance_pool(SMALL)]
        assert any(k.startswith("Xo") for k in keys)
        assert any(k.startswith("Xe") for k in keys)
        assert any(k.startswith("wreath") for k in keys)
        assert "Circ8(1,3)" in keys
        assert any(k.startswith("arcgraph") for k in keys)


class TestSuites:
    @pytest.mark.parametrize("name", harness.SUITE_NAMES)
    def test_suite_passes_on_small_grid(self, name):
        report = run_suite(name, SMALL)
        assert report.passed, report.to_json()

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("no-such-suite")

    def test_report_json_shape(self):
        report = run_suite("gta", SMALL)
        doc = report.to_json()
        assert doc["suite"] == "gta" and doc["passed"]
        assert doc["counts"]["pass"] == len(report.results)

    def test_one_analysis_per_instance(self, monkeypatch):
        calls = {"certify_hat": 0, "analyze": 0, "kernels": 0}

        def counted(name):
            fn = getattr(quotients, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(quotients, name, wrapper)

        for name in calls:
            counted(name)
        reports = {r.suite: r for r in run_suites(harness.SUITE_NAMES, SMALL)}
        pool = len(reports["kernels"].results)
        # each quotient reduction certifies and analyses its quotient once
        reduced = sum(r.detail.get("outcome") == "quotient"
                      for r in reports["quotient"].results)
        assert pool == len(list(harness.instance_pool(SMALL))) and reduced
        assert calls == {"certify_hat": pool + reduced,
                         "analyze": pool + reduced, "kernels": pool}

    def test_one_walk_matches_single_suites(self):
        def doc(report):
            out = report.to_json()
            del out["wall_time_s"]
            return out

        together = run_suites(harness.SUITE_NAMES, SMALL)
        assert [r.suite for r in together] == list(harness.SUITE_NAMES)
        for report in together:
            assert doc(report) == doc(run_suite(report.suite, SMALL))

    def test_invalid_params_recorded_as_skip_not_failure(self):
        # a grid whose even-family column admits no valid (q, t) at all
        cfg = GridConfig(xo_m=(3,), xo_r=(9,), xe_m=(4,), xe_r=(),
                         wreath_n=())
        report = run_suite("gta", cfg)
        assert report.passed and report.counts()["fail"] == 0


class TestPoolOracles:
    """The stabilizer chains, kernels and cycle intersections of every
    small-grid instance (group order at most 120) against independent
    oracles: sympy, the breadth-first closure of the generators, and
    intersecting the cycles' vertex sets."""

    def test_order_and_membership_match_sympy(self):
        for key, rec in harness.instance_pool(SMALL):
            g = rec.group
            oracle = sympy_group(p.images for p in g.generators)
            assert g.order() == oracle.order(), key
            rng = random.Random(key)
            candidates = [Permutation.from_mapping(
                g.degree, lambda x: {0: 1, 1: 0}.get(x, x))]
            for _ in range(5):
                word = g.identity
                for _ in range(6):
                    word = word * rng.choice(g.generators)
                images = list(range(g.degree))
                rng.shuffle(images)
                candidates += [word, Permutation(tuple(images))]
            for p in candidates:
                assert (p in g) == oracle.contains(SymPerm(list(p.images))), \
                    (key, p)

    def test_kernels_match_filtered_elements(self):
        def fixing(group, objects, act):
            return frozenset(p for p in closure(group)
                             if all(act(obj, p) == obj for obj in objects))

        def edge_set_act(es, p):
            return frozenset(edge_key(p(u), p(v)) for u, v in es)

        for key, rec in harness.instance_pool(SMALL):
            s = rec.structure
            # the cycles as edge sets: the definition of K_alt, which tells
            # the two cycles of Circ8(1,3) apart
            cycle_edges = [frozenset(edge_key(c[i - 1], c[i])
                                     for i in range(len(c)))
                           for c in s.cycles]
            want = {
                "K_alt": fixing(rec.group, cycle_edges, edge_set_act),
                "K_B": fixing(rec.group, quotients.construction_b(s),
                              setwise_action),
                "K_A": fixing(rec.group, s.attachment_sets, setwise_action),
            }
            got = {name: k.elements() for name, k in rec.kernels.items()}
            assert got == want, key
            assert rec.kernels_equal == (
                want["K_alt"] == want["K_B"] == want["K_A"]), key

    def test_reported_group_order_matches_sympy(self):
        for key, rec in harness.instance_pool(SMALL):
            oracle = sympy_group(p.images for p in rec.group.generators)
            report = analyze_instance(rec.graph, rec.group)
            assert report["group_order"] == oracle.order(), key

    def test_elements_match_closure(self):
        for key, rec in harness.instance_pool(SMALL):
            listed = rec.group.elements()
            assert listed == closure(rec.group), key
            assert len(listed) == rec.group.order(), key

    def test_cycle_pairs_match_intersections(self):
        for key, rec in harness.instance_pool(SMALL):
            s = rec.structure
            sets = [frozenset(c) for c in s.cycles]
            meets = {(i, j): sets[i] & sets[j]
                     for i in range(len(sets))
                     for j in range(i + 1, len(sets)) if sets[i] & sets[j]}
            assert s.cycle_pairs == tuple(sorted(meets)), key
            assert sorted(meets.values(), key=min) == list(s.attachment_sets), key
            assert {len(m) for m in meets.values()} == {s.attachment}, key


class TestIngest:
    def test_edgelist(self, tmp_path):
        g = build_wreath(4)
        path = tmp_path / "g.txt"
        path.write_text(format_edgelist(g))
        g2, grp = ingest(path)
        assert g2.edges == g.edges and grp is None

    def test_graph6(self, tmp_path):
        g = build_wreath(4)
        path = tmp_path / "g.g6"
        path.write_text(graph6(g) + "\n")
        g2, grp = ingest(path)
        assert g2.edges == g.edges

    @pytest.mark.parametrize("suffix, write", [
        (".s6", nx.to_sparse6_bytes), (".g6", nx.to_graph6_bytes)])
    def test_headered_file(self, tmp_path, capsys, suffix, write):
        """A file that opens with its format's ``>>sparse6<<`` or
        ``>>graph6<<`` header, as networkx writes it, is read by ingest and
        by the CLI."""
        c9 = nx.cycle_graph(9)
        path = tmp_path / f"c9{suffix}"
        path.write_bytes(write(c9, header=True))
        want = tuple(sorted(edge_key(u, v) for u, v in c9.edges))
        g, grp = ingest(path)
        assert g.edges == want and grp is None
        assert cli.main(["ingest", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 9 and len(doc["edges"]) == 9

    def test_bundle_json(self, tmp_path):
        g = build_wreath(4)
        grp = wreath_hat_group(4)
        path = tmp_path / "g.json"
        path.write_text(bundle_to_json(g, grp))
        g2, grp2 = ingest(path)
        assert g2.edges == g.edges
        assert grp2.order() == grp.order()

    def test_ingested_file_joins_pool(self, tmp_path):
        g = build_wreath(5)
        path = tmp_path / "extra.json"
        path.write_text(bundle_to_json(g, wreath_hat_group(5)))
        cfg = GridConfig(xo_m=(), xo_r=(), xe_m=(), xe_r=(), wreath_n=(),
                         extra_files=(str(path),))
        keys = [k for k, _rec in harness.instance_pool(cfg)]
        assert "file(extra.json)" in keys


class TestIngestFailures:
    BAD = {
        "unparsable.json": '{"n": 8, "edges": [',
        "duplicate.json": json.dumps({"n": 4, "edges": [[0, 1], [1, 0]],
                                      "generators": [[1, 0, 2, 3]]}),
        # a 6-cycle with its rotations: certify_hat rejects the degree
        "hexagon.json": json.dumps(
            {"n": 6, "edges": [[i, (i + 1) % 6] for i in range(6)],
             "generators": [[(i + 1) % 6 for i in range(6)]]}),
    }

    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_bad_file_gets_error_rows_only(self, tmp_path, bad):
        good = tmp_path / "good.json"
        good.write_text(bundle_to_json(build_wreath(5), wreath_hat_group(5)))
        (tmp_path / bad).write_text(self.BAD[bad])
        cfg = GridConfig(xo_m=(3,), xo_r=(5,), xe_m=(), xe_r=(),
                         wreath_n=(3,), extra_files=(str(good),))
        mixed = GridConfig(**{**vars(cfg), "extra_files": (
            str(tmp_path / bad), str(good))})
        for clean, report in zip(run_suites(harness.SUITE_NAMES, cfg),
                                 run_suites(harness.SUITE_NAMES, mixed)):
            rows = {r.key: r for r in report.results}
            # gta and iso-relations cover the layered grid only
            if report.suite not in ("gta", "iso-relations"):
                assert rows.pop(f"file({bad})").status == "error"
            assert [(r.key, r.status, r.detail) for r in rows.values()] == \
                [(r.key, r.status, r.detail) for r in clean.results]


def _rows(report):
    return [(r.key, r.status, r.detail) for r in report.results]


class TestConstructionFault:
    """A construction whose generator is no automorphism fails its own
    instance alone: error rows in the suites, exit 4 on the command line."""

    BAD = XoParams(3, 7, 2)

    def break_construction(self, monkeypatch):
        def build(p):
            g, grp = build_xo(p)
            if p == self.BAD:
                # swaps (0, 0) and (0, 1), which share no neighbour
                swap = Permutation((1, 0) + tuple(range(2, g.n)))
                grp = GroupByGenerators((swap,) + grp.generators[1:],
                                        degree=g.n)
            return g, grp
        monkeypatch.setattr(harness, "build_xo", build)
        monkeypatch.setattr(cli, "build_xo", build)

    def test_error_row_for_its_key_only(self, monkeypatch):
        clean = run_suites(harness.SUITE_NAMES, SMALL)
        self.break_construction(monkeypatch)
        broken = run_suites(harness.SUITE_NAMES, SMALL)
        for before, report in zip(clean, broken):
            rows = {r.key: r for r in report.results}
            if report.suite != "iso-relations":  # reads the graphs only
                bad = rows.pop(str(self.BAD))
                assert bad.status == "error", report.suite
                assert bad.detail["error"] == "NotAutomorphismError"
            assert [(r.key, r.status, r.detail) for r in rows.values()] == [
                row for row in _rows(before) if row[0] != str(self.BAD)]

    @pytest.mark.parametrize("command", ["analyze", "construct"])
    def test_cli_exit_code(self, command, monkeypatch, capsys):
        self.break_construction(monkeypatch)
        assert cli.main([command, "xo:3,7,2"]) == 4
        assert "NotAutomorphismError" in capsys.readouterr().err


class TestIsoRelations:
    """The suite's rows against the comparison of canonical certificates."""

    def test_default_grid_matches_certificates(self):
        cfg = GridConfig()
        (report,) = run_suites(["iso-relations"], cfg)
        assert _rows(report) == iso_relation_rows(cfg)

    def test_missing_q_matches_certificates(self, monkeypatch):
        """Valid q are closed under negation and inversion, so no grid
        has a class with a missing member; dropping q = 2 from Xo(3, 7)'s
        valid parameters makes the class {2, 3, 4, 5} one."""
        def dropping(m, r):
            return [p for p in valid_xo_params(m, r)
                    if (m, r, p.q) != (3, 7, 2)]
        monkeypatch.setattr(harness, "valid_xo_params", dropping)
        cfg = GridConfig(xo_m=(3, 4), xo_r=(5, 7, 9))
        (report,) = run_suites(["iso-relations"], cfg)
        assert _rows(report) == iso_relation_rows(cfg, dropping)
        assert ("Xo(3,7)-class2", "fail", {"missing_q": [2]}) in \
            _rows(report)
        assert not report.passed


def _k4_arc_bundle(tmp_path):
    k4 = harness.small_cubic_graphs()["K4"]
    path = tmp_path / "k4arc.json"
    path.write_text(bundle_to_json(
        *build_cubic_arc_graph(k4, automorphism_group(k4))))
    return str(path)


def _kernel_facts(case, order, structure):
    names = ("K_A", "K_B", "K_alt")
    return {"kernel_case": case, "kernel_structure": structure,
            "kernels_equal": True,
            "kernels": {k: {"order": order, "structure": structure}
                        for k in names}}, {
        "case": case, "equal": True, "orders": dict.fromkeys(names, order),
        "structures": dict.fromkeys(names, structure)}


XO_KERNELS = _kernel_facts("iii", 18, "Dihedral(18)")
WREATH_KERNELS = _kernel_facts("ii", 16, "ElemAbelian2(4)")
ARC_KERNELS = _kernel_facts("v", 1, "Trivial")

# analyze and kernels reports, as the CLI printed them before the analysis
# record replaced the separate pipeline copies
PINNED = {
    "xo:3,9,2": ({
        "Q": [2, 4], "a": 9, "attachment_kind": "tight", "cycle_count": 3,
        "ell": 2, "group_order": 54, "jum": 2, "m": 54, "n": 27, "r": 9,
        "quotient": {"a": 9, "ell": 2, "extended_by_tau": False, "jum": 2,
                     "outcome": "tight", "r": 9},
        **XO_KERNELS[0]}, XO_KERNELS[1]),
    "wreath:4": ({
        "Q": [1], "a": 2, "attachment_kind": "tight", "cycle_count": 4,
        "ell": 2, "group_order": 64, "jum": 1, "m": 16, "n": 8, "r": 2,
        "quotient": {"a": 2, "ell": 2, "extended_by_tau": False, "jum": 1,
                     "outcome": "tight", "r": 2},
        **WREATH_KERNELS[0]}, WREATH_KERNELS[1]),
    "k4arc": ({
        "Q": [1], "a": 2, "attachment_kind": "antipodal", "cycle_count": 4,
        "ell": 3, "group_order": 24, "jum": 1, "m": 24, "n": 12, "r": 3,
        "quotient": {"a": 2, "ell": 3, "extended_by_tau": False, "jum": 1,
                     "kernel": "Trivial", "outcome": "quotient",
                     "psi_cycle_map": {"0": 0, "1": 1, "2": 2, "3": 3},
                     "quotient_a": 2, "quotient_kind": "antipodal",
                     "quotient_n": 12, "quotient_r": 3, "r": 3},
        **ARC_KERNELS[0]}, ARC_KERNELS[1]),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_reports_match_pinned(name, tmp_path, capsys):
    spec = _k4_arc_bundle(tmp_path) if name == "k4arc" else name
    analyzed, kernel_doc = PINNED[name]
    assert cli.main(["analyze", spec]) == 0
    doc = json.loads(capsys.readouterr().out)
    del doc["instance"]
    assert doc == analyzed
    assert cli.main(["kernels", spec]) == 0
    assert json.loads(capsys.readouterr().out) == kernel_doc


class TestAnalyzeInstance:
    def test_full_report(self):
        report = analyze_instance(build_wreath(4), wreath_hat_group(4))
        assert report["r"] == 2 and report["a"] == 2
        assert report["kernels_equal"]
        assert report["kernel_case"] == "ii"

    @pytest.mark.parametrize("name, chains", [
        # even ell: one chain on the tail partition, the attachment sets
        # and the vertices answers |G| and all three kernels
        ("xo:3,9,2", 1),
        # odd ell: the half-step blocks join that chain; the induced group
        # on the quotient gets its own, to check its order against it
        ("k4arc", 2),
        # a = 2r: K_A is the whole group, read from the same chain
        ("Circ8(1,3)", 1),
    ])
    def test_one_chain_per_instance(self, name, chains, monkeypatch):
        k4 = harness.small_cubic_graphs()["K4"]
        g, grp = {
            "xo:3,9,2": lambda: build_xo(XoParams(3, 9, 2)),
            "k4arc": lambda: build_cubic_arc_graph(k4, automorphism_group(k4)),
            "Circ8(1,3)": special_circulant_k44,
        }[name]()
        built = []
        init = StabilizerChain.__init__

        def counting(chain, *args, **kwargs):
            built.append(chain)
            init(chain, *args, **kwargs)
        monkeypatch.setattr(StabilizerChain, "__init__", counting)
        report = analyze_instance(g, grp)
        assert len(built) == chains
        assert report["group_order"] == built[0].order()

    def test_graph_only(self):
        report = analyze_instance(build_wreath(4), None, with_aut=True)
        assert report["mode"] == "graph-only"
        assert report["arc_transitive"]  # the wreath graph itself is


class TestCli:
    def test_analyze_exit_code(self, capsys):
        assert cli.main(["analyze", "xo:3,9,2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["jum"] == 2 and doc["kernel_structure"] == "Dihedral(18)"

    def test_construct_edgelist(self, capsys):
        assert cli.main(["construct", "wreath:4", "--format",
                         "edgelist"]) == 0
        assert capsys.readouterr().out.startswith("8 16")

    def test_iso(self, capsys):
        assert cli.main(["iso", "xo:3,9,2", "xo:3,9,7"]) == 0
        assert json.loads(capsys.readouterr().out)["isomorphic"]

    def test_aut(self, capsys):
        assert cli.main(["aut", "circ:13:1,3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["order"] == 26 and not doc["arc_transitive"]

    def test_aut_order_past_element_cap(self, capsys):
        assert cli.main(["aut", "xo:4,9,1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["order"] == 9437184 == sympy_group(
            doc["generators"]).order()

    def test_aut_order_lists_no_elements(self, capsys, monkeypatch):
        def listing(_group):
            raise AssertionError("group elements listed")
        monkeypatch.setattr(GroupByGenerators, "elements", listing)
        assert cli.main(["aut", "xo:4,7,1"]) == 0
        assert json.loads(capsys.readouterr().out)["order"] == 458752

    def test_library_lists_no_group(self, capsys, monkeypatch):
        def listing(_self):
            raise AssertionError("group elements listed")
        monkeypatch.setattr(GroupByGenerators, "elements", listing)
        monkeypatch.setattr(StabilizerChain, "elements", listing)
        assert all(r.passed for r in run_suites(harness.SUITE_NAMES, SMALL))
        for spec in ("xo:3,9,2", "xo:4,9,1", "wreath:8", "circ:8:1,3"):
            assert cli.main(["analyze", spec, "--aut"]) == 0, spec
        assert cli.main(["kernels", "xo:3,9,2"]) == 0
        assert cli.main(["quotient", "xo:3,9,2"]) == 0

    def test_orbit_swapper_in_a_large_group(self, capsys):
        assert cli.main(["analyze", "xo:4,9,1", "--aut"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["aut_order"] == 9437184 and doc["orbit_swapper"]

    def test_kernels(self, capsys):
        assert cli.main(["kernels", "xo:3,9,2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["equal"] and doc["case"] == "iii"

    def test_quotient_rejects_degenerate(self, capsys):
        # exit code 1: degenerate two-cycle case has no quotient reduction
        assert cli.main(["quotient", "circ:8:1,3"]) != 0

    def test_invalid_params_exit_code(self, capsys):
        assert cli.main(["analyze", "xo:3,8,2"]) == 3

    BAD_INPUT = {
        "loop.txt": "3 1\n1 1\n",
        # a graph6 file must hold exactly one graph
        "two-graphs.g6": 2 * (graph6(build_wreath(4)) + "\n"),
        # the multigraph {0-1, 0-1, 2-3}, ":C_y"
        "repeated-edge.s6": nx.to_sparse6_bytes(
            nx.MultiGraph([(0, 1), (0, 1), (2, 3)]), header=False).decode(),
        "duplicate.txt": "3 2\n0 1\n1 0\n",
        "not-bijection.json": json.dumps(
            {"n": 3, "edges": [[0, 1]], "generators": [[0, 0, 1]]}),
        "wrong-size.json": json.dumps(
            {"n": 3, "edges": [[0, 1]], "generators": [[1, 0]]}),
        "negative-n.txt": "-1 0\n",
        "negative-n.json": json.dumps({"n": -1, "edges": []}),
    }

    @pytest.mark.parametrize("spec, code", [
        *((name, 2) for name in sorted(BAD_INPUT)),
        ("circ:8:0", 3),
        ("circ:0:1", 3),
    ])
    def test_bad_input_exit_codes(self, spec, code, tmp_path, capsys):
        if spec in self.BAD_INPUT:
            (tmp_path / spec).write_text(self.BAD_INPUT[spec])
            spec = str(tmp_path / spec)
        assert cli.main(["analyze", spec]) == code
        assert "Traceback" not in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not an edge list\n")
        assert cli.main(["ingest", str(bad)]) == 2

    @pytest.mark.parametrize("argv", [["ingest", "missing.txt"],
                                      ["analyze", "."]])
    def test_unreadable_file_exit_code(self, argv, tmp_path, monkeypatch,
                                       capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and f"cannot read {argv[1]}" in err

    @pytest.mark.parametrize("argv", [["analyze", "xo:3,9,2"],
                                      ["verify", "psi"]])
    @pytest.mark.parametrize("target, error", [
        ("missing/out.json", "FileNotFoundError"), (".", "IsADirectoryError")])
    def test_unwritable_output_exit_code(self, argv, target, error, tmp_path,
                                         monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(harness, "GridConfig", lambda extra_files: SMALL)
        assert cli.main([*argv, "-o", target]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and f"error: {error}: " in err

    def test_unwritable_verify_output_fails_before_the_run(
            self, tmp_path, monkeypatch, capsys):
        def no_pool(_cfg):
            raise AssertionError("a pool instance was built")
        monkeypatch.setattr(harness, "instance_pool", no_pool)
        target = tmp_path / "missing" / "x.json"
        assert cli.main(["verify", "-o", str(target)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "error: FileNotFoundError: " in err
        # an unknown suite is rejected before the output is created
        assert cli.main(["verify", "nosuch", "-o", str(tmp_path / "y")]) == 2
        assert not (tmp_path / "y").exists()

    def test_unreadable_ingest_file_gets_an_error_row(self, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.setattr(harness, "GridConfig", lambda extra_files: (
            GridConfig(**{**vars(SMALL), "extra_files": extra_files})))
        clean, mixed = tmp_path / "clean.json", tmp_path / "mixed.json"
        assert cli.main(["verify", "psi", "-o", str(clean)]) == 0
        with pytest.raises(SystemExit):
            cli.main(["verify", "psi", "--ingest", str(tmp_path / "missing"),
                      "-o", str(mixed)])
        (want,), (got,) = (json.loads(p.read_text()) for p in (clean, mixed))
        row = got["results"].pop()
        assert row["key"] == "file(missing)" and row["status"] == "error"
        assert row["detail"]["error"] == "ParseError"
        assert got["results"] == want["results"]

    def test_successive_calls_share_no_options(self, tmp_path, monkeypatch,
                                               capsys):
        parser = cli.build_parser()
        assert cli.build_parser() is parser  # built once per process
        first = parser.parse_args(["analyze", "--no-group", "--aut", "-o",
                                   "x.json", "xo:3,9,2"])
        assert first.no_group and first.aut and first.output == "x.json"
        again = parser.parse_args(["analyze", "xo:3,9,2"])
        assert (again.no_group, again.aut, again.output) == (False, False,
                                                             None)
        assert parser.parse_args(["verify", "--ingest", "a.txt"]).ingest == [
            "a.txt"]
        assert parser.parse_args(["verify"]).ingest is None

        out = tmp_path / "report.json"
        assert cli.main(["analyze", "--no-group", "xo:3,9,2", "-o",
                         str(out)]) == 0
        assert json.loads(out.read_text())["mode"] == "graph-only"
        assert capsys.readouterr().out == ""
        assert cli.main(["analyze", "xo:3,9,2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "mode" not in doc and doc["jum"] == 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", "--no-such-flag", "xo:3,9,2"])
        assert exc.value.code == 2
        assert cli.main(["kernels", "xo:3,9,2"]) == 0
        assert json.loads(capsys.readouterr().out)["case"] == "iii"

        monkeypatch.setattr(harness, "GridConfig", lambda extra_files: (
            GridConfig(**{**vars(SMALL), "extra_files": extra_files})))
        with pytest.raises(SystemExit):
            cli.main(["verify", "psi", "--ingest", str(tmp_path / "missing"),
                      "-o", str(tmp_path / "mixed.json")])
        clean = tmp_path / "clean.json"
        assert cli.main(["verify", "psi", "-o", str(clean)]) == 0
        (report,) = json.loads(clean.read_text())
        assert not any(row["key"].startswith("file(")
                       for row in report["results"])

    JSON_EDGE_CASES = [
        [], {}, [[]], [1], [0, -1, 2 ** 70], (4, 5), [True, False],
        [1, True], [1, 2.5], [1, None], [1, "2"], [[1, 2], [], [[3]]],
        {"a": [1, {"b": []}], "c": None, "d": 1.5, "e": "x\u00e9\""},
        {2: [1], 10: []}, {True: 0, False: 1}, {None: 1}, {2.5: [2]},
        [float("nan"), float("inf"), -0.0], 7, "s", None, False,
    ]

    def test_json_writer_matches_the_encoder(self, tmp_path, monkeypatch,
                                             capsys):
        """Every report written, and the edge cases, byte for byte as
        ``json.JSONEncoder(indent=2, sort_keys=True)`` writes them."""
        docs = []
        write = cli._write_json

        def recording(doc, stream):
            docs.append(doc)
            write(doc, stream)

        monkeypatch.setattr(cli, "_write_json", recording)
        monkeypatch.setattr(harness, "GridConfig", lambda extra_files: SMALL)
        for argv in (["aut", "xo:4,9,1"], ["aut", "circ:13:1,3"],
                     ["iso", "xo:3,9,2", "xo:3,9,5"],
                     ["iso", "xo:6,13,2", "xo:6,13,3"],
                     ["analyze", "xo:3,9,2", "--aut"],
                     ["analyze", "wreath:4", "--no-group", "--aut"],
                     ["verify", "psi", "gta", "-o",
                      str(tmp_path / "v.json")]):
            assert cli.main(argv) == 0, argv
        assert len(docs) == 7
        encoder = json.JSONEncoder(indent=2, sort_keys=True)
        for doc in docs + self.JSON_EDGE_CASES:
            out = io.StringIO()
            write(doc, out)
            assert out.getvalue() == encoder.encode(doc)

    def test_altgraph_dot(self, capsys):
        assert cli.main(["altgraph", "xo:3,9,2", "--format", "dot"]) == 0
        assert "--" in capsys.readouterr().out

    def test_ingest_normalizes(self, tmp_path, capsys):
        g = build_wreath(3)
        path = tmp_path / "w.txt"
        path.write_text(format_edgelist(g))
        assert cli.main(["ingest", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 6
