"""Smoke tests: the scripts under scripts/ run against the library as it
is, so a changed signature cannot silently break them."""

import importlib.util
import json
import sys
from pathlib import Path

from test_harness import SMALL

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_search_circulant_actions():
    found = load("search_circulant_actions").scan(30)
    assert found
    assert {kind for _r, _a, kind in found} <= {"tight", "degenerate"}


def test_survey_instances(monkeypatch, capsys):
    survey = load("survey_instances")
    monkeypatch.setattr(sys, "argv", ["survey_instances.py"])
    monkeypatch.setattr(survey, "GridConfig", lambda extra_files: SMALL)
    survey.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:3] == ["instance", "n", "r"]
    assert len(lines) == 1 + sum(1 for _ in survey.instance_pool(SMALL))
    assert not any("error" in line for line in lines)


def test_stage_times(monkeypatch, tmp_path):
    stage_times = load("stage_times")
    monkeypatch.setattr(stage_times, "GridConfig", lambda: SMALL)
    out = tmp_path / "stages.json"
    stage_times.main(["-o", str(out)])
    doc = json.loads(out.read_text())
    assert doc["instances"] == sum(1 for _ in stage_times.instance_pool(SMALL))
    assert set(doc["stages_s"]) == {"construct", "certify", "analyze",
                                    "kernels", "mult-lemma"}
    assert all(t > 0 for t in doc["stages_s"].values())

    # this checkout on both sides, each child walking the SMALL pool
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps({"other section": {}}))
    stage_times.main(["--parent", str(SCRIPTS.parent), "--pairs", "2",
                      "-o", str(bench)])
    doc_pairs = json.loads(bench.read_text())
    assert "other section" in doc_pairs
    section = doc_pairs["stage times"]
    assert [run["side"] for run in section["runs"]] == [
        "parent", "change", "change", "parent"]
    assert all(run["instances"] == doc["instances"]
               for run in section["runs"])
    assert set(section["change_over_parent"]) == {*doc["stages_s"],
                                                  "prefix_s"}
    assert all(ratio > 0 for ratio in section["change_over_parent"].values())


def test_bench_pairs_alternates_and_counts_wins(tmp_path):
    bench = load("bench_pairs")
    assert bench.parse_seeds("1,4-6") == [1, 4, 5, 6]
    calls = []

    def fake_run(root, _workload, seed, _seconds, _trace):
        calls.append((root.name, seed))
        wall = {"parent": 2.0, "change": 1.0}[root.name] + seed / 100
        return {"failed": 0,
                "metrics": {"wall_s": {"value": wall, "unit": "s"}}}

    roots = {side: tmp_path / side for side in ("parent", "change")}
    for root in roots.values():
        root.mkdir()
        (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
            {"name": "wall_s", "better": "lower", "bound": 0.25}]}))
    section = bench.compare(roots, "w", [1, 2, 3], 1.0, 0, run=fake_run)
    assert calls == [("parent", 1), ("change", 1), ("change", 2),
                     ("parent", 2), ("parent", 3), ("change", 3)]
    row = section["summary"]["wall_s"]
    assert row["parent"]["median"] == 2.02 and row["change"]["median"] == 1.02
    assert row["change_won"] == 3 and row["gain"] and row["within_bound"]
    assert not row["unresolved"]
    assert section["failed"] == {"parent": 0, "change": 0}


def test_bench_pairs_unresolved_when_parent_spread_exceeds_bound():
    bench = load("bench_pairs")
    metrics = {"wall_s": ("lower", 0.25)}

    def pairs(parent, change):
        return [{side: {"metrics": {"wall_s": {"value": v, "unit": "s"}}}
                 for side, v in (("parent", a), ("change", b))}
                for a, b in zip(parent, change)]

    # parent quartiles 1.5 and 3.5 around a median of 2.5: a spread of 2.0
    # against a bound of 0.625
    wide = [1.0, 2.0, 3.0, 4.0]
    row = bench.summarize(pairs(wide, [1.5, 2.5, 2.5, 3.5]), metrics)["wall_s"]
    assert row["within_bound"] and row["unresolved"]
    # every change run beats every parent run: resolved despite the spread
    row = bench.summarize(pairs(wide, [0.5, 0.6, 0.7, 0.8]), metrics)["wall_s"]
    assert row["within_bound"] and not row["unresolved"]


def test_scale_ladder_tiny_rung(tmp_path):
    ladder = load("scale_ladder")
    out = tmp_path / "ladder.json"
    ladder.main(["--rungs", "aut xo:3,9,2", "analyze --aut xo:3,9,2",
                 "iso xo:3,9,2 xo:3,9,7", "--timeout", "60", "-o", str(out)])
    runs = json.loads(out.read_text())["scale ladder"]["runs"]
    assert [run["argv"] for run in runs] == [
        ["aut", "xo:3,9,2"], ["analyze", "--aut", "xo:3,9,2"],
        ["iso", "xo:3,9,2", "xo:3,9,7"]]
    assert all(run["side"] == "change" and run["exit"] == 0
               and run["seconds"] > 0 and run["peak_rss_mb"] > 0
               for run in runs)


def test_scale_ladder_parent_side_and_timeout(tmp_path):
    ladder = load("scale_ladder")
    out = tmp_path / "ladder.json"
    ladder.main(["--rungs", "kernels wreath:8", "--parent",
                 str(SCRIPTS.parent), "-o", str(out)])
    doc = json.loads(out.read_text())
    assert {"host", "scale ladder"} <= set(doc)
    runs = doc["scale ladder"]["runs"]
    assert [run["side"] for run in runs] == ["parent", "change"]
    assert all(run["argv"] == ["kernels", "wreath:8"] and run["exit"] == 0
               for run in runs)
    # the interpreter alone takes longer to start than this timeout
    assert ladder.run_once(["kernels", "wreath:8"], 0.01)["exit"] is None
