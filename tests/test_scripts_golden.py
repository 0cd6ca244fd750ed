"""Golden-output tests for the observability CLIs.

``trace_report.py`` and ``obs_dashboard.py`` are the interfaces a human
actually reads, so their rendering is pinned byte-for-byte against
committed golden files in ``tests/golden/``.  The canned inputs are built
here from fully deterministic values (hand-written span timings and
metrics) — regenerate a golden after an intentional
format change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_scripts_golden.py
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.dataplat.resilience import PipelineHealthReport
from repro.dataplat.telemetry import TelemetryWarehouse

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = REPO_ROOT / "scripts"
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN", "") == "1"


def canned_trace() -> dict:
    """A two-window pipeline trace with hand-written timings."""
    return {
        "spans": [
            {
                "name": "pipeline.window",
                "wall_s": 0.120,
                "cpu_s": 0.100,
                "tags": {"test_month": 5},
                "children": [
                    {
                        "name": "features.build",
                        "wall_s": 0.080,
                        "cpu_s": 0.070,
                        "counters": {"rows": 600.0},
                    },
                    {"name": "predictor.fit", "wall_s": 0.030, "cpu_s": 0.025},
                ],
            },
            {
                "name": "pipeline.window",
                "wall_s": 0.150,
                "cpu_s": 0.130,
                "tags": {"test_month": 6},
                "children": [
                    {
                        "name": "features.build",
                        "wall_s": 0.090,
                        "cpu_s": 0.080,
                        "counters": {"rows": 600.0},
                    },
                    {"name": "predictor.fit", "wall_s": 0.040, "cpu_s": 0.035},
                ],
            },
        ]
    }


def canned_sharded_trace() -> dict:
    """A scatter-gather query trace with hand-written per-shard skew."""
    def execute(shard: int, wall: float) -> dict:
        return {
            "name": "shard.execute",
            "wall_s": wall,
            "cpu_s": wall * 0.9,
            "tags": {"shard": shard},
            "children": [
                {
                    "name": "sql.execute",
                    "wall_s": wall * 0.8,
                    "cpu_s": wall * 0.7,
                }
            ],
        }

    return {
        "spans": [
            {
                "name": "shard.query",
                "wall_s": 0.200,
                "cpu_s": 0.160,
                "children": [
                    {"name": "shard.plan", "wall_s": 0.010, "cpu_s": 0.009},
                    {
                        "name": "shard.scatter",
                        "wall_s": 0.170,
                        "cpu_s": 0.140,
                        "tags": {"backend": "serial"},
                        "counters": {"rows": 480.0},
                        "children": [
                            execute(0, 0.080),
                            execute(1, 0.030),
                            execute(2, 0.025),
                            execute(3, 0.030),
                        ],
                    },
                    {"name": "shard.merge", "wall_s": 0.015, "cpu_s": 0.012},
                ],
            }
        ]
    }


def canned_warehouse() -> TelemetryWarehouse:
    """A deterministic dump: metrics and health."""
    wh = TelemetryWarehouse(git_sha="golden0")
    for window, auc in ((1, 0.9123), (2, 0.8941)):
        wh.record_metrics(
            "run-01", window, {"gauges": {"pipeline.auc": auc}}
        )
    health = PipelineHealthReport(families_used=["F1", "F3"])
    health.quarantined_rows = 3
    wh.record_health("run-01", 1, health)
    return wh


def run_script(name: str, *args: str) -> tuple[int, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    return proc.returncode, proc.stdout


def check_golden(name: str, actual: str) -> None:
    path = GOLDEN_DIR / name
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(actual)
        return
    assert path.exists(), (
        f"missing golden file {path}; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    assert actual == path.read_text(), (
        f"{name} drifted from golden output; if the change is intentional "
        f"regenerate with REPRO_REGEN_GOLDEN=1"
    )


class TestTraceReportGolden:
    def test_tree_and_summary(self, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps(canned_trace()))
        code, out = run_script("trace_report.py", str(trace))
        assert code == 0
        check_golden("trace_report.txt", out)

    def test_shard_rollup(self, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps(canned_sharded_trace()))
        code, out = run_script("trace_report.py", str(trace))
        assert code == 0
        assert "== shards (scatter-gather rollup) ==" in out
        check_golden("trace_report_shards.txt", out)

    def test_unsharded_trace_has_no_shard_section(self, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps(canned_trace()))
        _, out = run_script("trace_report.py", str(trace))
        assert "shards" not in out


class TestObsDashboardGolden:
    def test_dashboard_render(self, tmp_path):
        dump = tmp_path / "telemetry.json"
        canned_warehouse().dump(dump)
        code, out = run_script("obs_dashboard.py", str(dump))
        assert code == 0
        check_golden("obs_dashboard.txt", out)

    def test_unknown_run_fails_cleanly(self, tmp_path):
        dump = tmp_path / "telemetry.json"
        canned_warehouse().dump(dump)
        code, out = run_script("obs_dashboard.py", str(dump), "--run", "nope")
        assert code == 1
        assert "not in dump" in out


@pytest.mark.skipif(REGEN, reason="regenerating goldens")
def test_golden_files_committed():
    for name in (
        "trace_report.txt",
        "trace_report_shards.txt",
        "obs_dashboard.txt",
    ):
        assert (GOLDEN_DIR / name).exists(), name
