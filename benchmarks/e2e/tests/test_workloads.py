"""Every workload, at smoke size: what it emits and how it counts failures."""

import json
import subprocess
import sys

import pytest

import importlib

import harness
import run
from harness import BenchmarkSpec, HarnessError, Ops, RunConfig, Tracer
from inputs import Statement

SPEC = BenchmarkSpec.load()
#: Layers that must stay idle on the storage-only workloads.
IDLE_ON_STORAGE = ("ml.", "features.", "serve.", "core.")


def _smoke(workload: str, trace: bool) -> dict:
    cfg = RunConfig(workload, seed=11, seconds=0.3, trace=trace, smoke=True)
    result, _notes, _tracer = run.run_workload(cfg, SPEC)
    return result


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_are_exactly_the_declared_ones(workload):
    result = _smoke(workload, trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == list(SPEC.end_to_end)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name, metric in result["metrics"].items():
        assert metric["unit"] == SPEC.end_to_end[name].unit
        assert metric["value"] > 0, f"{name} must never read 0"


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_per_layer_metrics_are_exactly_the_declared_ones(workload):
    result = _smoke(workload, trace=True)
    assert list(result["metrics"]) == list(SPEC.per_layer)
    assert result["correct"]
    busy = {n for n, m in result["metrics"].items() if m["value"] != 0.0}
    assert "bench.tracing_overhead_ratio" in busy
    # Only names the workload does not report are zero-filled.
    reported = importlib.import_module(f"workloads.{workload}").LAYER_METRICS
    assert busy <= reported | {"bench.tracing_overhead_ratio"}
    if workload in ("sql_analytics", "ingest_write"):
        assert not [n for n in busy if n.startswith(IDLE_ON_STORAGE)]
    if workload == "batch_window":
        assert {"ml.forest.fit_s", "features.fit_extractors_s", "features.F1_s"} <= busy
    if workload == "serve_load":
        assert not [n for n in busy if n.startswith(("dataplat.sql", "features."))]


def test_every_per_layer_metric_has_a_workload_that_reports_it():
    harness.add_src_to_path()
    reported = {"bench.tracing_overhead_ratio"}
    for workload in run.WORKLOADS:
        reported |= importlib.import_module(f"workloads.{workload}").LAYER_METRICS
    assert reported == set(SPEC.per_layer)


def test_a_probe_that_drops_its_metric_is_an_error(monkeypatch):
    """A silent probe must not read as an idle layer."""
    harness.add_src_to_path()
    from workloads import ingest_write

    whole = ingest_write.layers

    def silent(*args):
        values = whole(*args)
        del values["dataplat.journal.reopen_ms"]
        return values

    monkeypatch.setattr(ingest_write, "layers", silent)
    with pytest.raises(HarnessError, match="dataplat.journal.reopen_ms"):
        _smoke("ingest_write", trace=True)


def test_request_shed_at_the_reference_rate_is_a_failed_operation(monkeypatch):
    """Refusals where the service should keep up lower ``ok_share``."""
    harness.add_src_to_path()
    from workloads import serve_load

    replay = serve_load.replay_step

    def shedding(state, step, index, seed, tracer):
        result = replay(state, step, index, seed, tracer)
        if step.label == "reference_0":
            for ticket in result.tickets[:7]:
                ticket.outcome = "shed"
        return result

    monkeypatch.setattr(serve_load, "replay_step", shedding)
    result = _smoke("serve_load", trace=False)
    assert result["failed"] == 7 and result["correct"]
    assert result["metrics"]["ok_share"]["value"] == pytest.approx(
        1 - 7 / result["attempted"]
    )


def test_result_line_names_each_metric_once():
    """Through the command line: the last stdout line is the result object."""
    proc = subprocess.run(
        [sys.executable, str(harness.HERE / "run.py"), "--workload", "ingest_write",
         "--seed", "3", "--seconds", "0.2", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin", "REPRO_CBO": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    pairs = json.loads(lines[-1], object_pairs_hook=list)
    metrics = dict(pairs)["metrics"]
    names = [name for name, _ in metrics]
    assert len(names) == len(set(names)) == len(SPEC.end_to_end)
    meta = json.loads(lines[0].removeprefix("meta "))
    assert meta["workload"] == "ingest_write" and "git_sha" in meta


def test_failing_statement_and_oracle_miss_lower_ok_share():
    from workloads import sql_analytics

    cfg = RunConfig("sql_analytics", seed=11, seconds=0.1, trace=False, smoke=True)
    quiet = Tracer("t", enabled=False)
    state = sql_analytics.setup(cfg, quiet)
    top5 = "SELECT imsi, total_charge FROM billing ORDER BY total_charge DESC LIMIT 5"

    def ops_after(*statements) -> Ops:
        ops = Ops()
        sql_analytics.run_statements(state, list(statements), quiet, ops, {}, set())
        return ops

    good = Statement("topn_sort", "warm", top5, {"limit": 5})
    ops = ops_after(good, good)
    assert (ops.attempted, ops.failed, ops.ok_share) == (2, 0, 1.0)

    raises = Statement("point_lookup", "warm", "SELECT x FROM no_such_table", {})
    ops = ops_after(good, raises)
    assert (ops.attempted, ops.failed) == (2, 1) and ops.ok_share == 0.5
    assert "no_such_table" in ops.failures[0]

    # The oracle is told to expect seven rows; the statement returns five.
    wrong = Statement("topn_sort", "cold", top5, {"limit": 7})
    ops = ops_after(wrong)
    assert ops.failed == 1 and ops.failures[0].startswith("oracle: topn_sort")
