"""BENCHMARK.json obeys its contract and agrees with the harness."""

import json
import re

import harness
import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _doc():
    return json.loads(harness.SPEC_PATH.read_text(encoding="utf-8"))


def test_top_level_shape():
    doc = _doc()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert doc["paths"] == ["benchmarks/e2e"]
    assert doc["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert harness.SPEC_PATH.stat().st_size <= 64 * 1024


def test_workloads_match_the_harness():
    doc = _doc()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert NAME.match(workload["name"])
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200


def test_metric_names_units_and_bounds():
    doc = _doc()
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
