"""The harness's own rules: percentiles, spans, accounting, environment."""

import time

import pytest

import harness
from harness import HarnessError, Ops, Tracer


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (40, 75.0), (50, 80.0), (100, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert harness.supported_percentile(n) == expected


def test_strict_percentile_refuses_thin_samples():
    values = list(range(100))
    assert harness.percentile(values, 90) == pytest.approx(89.1)
    with pytest.raises(HarnessError, match="samples beyond"):
        harness.percentile(values, 95)
    assert harness.percentile(values, 95, strict=False) == pytest.approx(94.05)


def test_self_time_is_duration_minus_children():
    tracer = Tracer("w", enabled=True)
    with tracer.span("core.outer"):
        time.sleep(0.02)
        with tracer.span("dataplat.sql.inner"):
            time.sleep(0.03)
    totals = tracer.totals()
    outer, inner = totals["core.outer"], totals["dataplat.sql.inner"]
    assert outer["total_s"] >= 0.05 and inner["total_s"] >= 0.03
    assert outer["self_s"] == pytest.approx(outer["total_s"] - inner["total_s"])
    exported = tracer.export()
    assert exported[1]["parent"] == exported[0]["id"]
    assert {s["workload"] for s in exported} == {"w"}
    shares = dict((layer, share) for layer, _s, share in harness.layer_shares(tracer, "core.outer"))
    assert set(shares) == {"core", "dataplat.sql"}
    assert sum(shares.values()) == pytest.approx(1.0)


def test_disabled_tracer_records_nothing():
    tracer = Tracer("w", enabled=False)
    with tracer.span("anything"):
        pass
    out, seconds = tracer.timed("more", lambda: 41 + 1)
    assert (out, tracer.spans) == (42, []) and seconds >= 0


def test_oracle_miss_is_a_failed_operation():
    ops = Ops()
    ops.attempt(9)
    assert ops.check("holds", True) and ops.ok_share == 1.0
    assert not ops.check("broken", False)
    assert (ops.attempted, ops.failed) == (11, 1)
    assert ops.ok_share == pytest.approx(10 / 11)
    assert ops.failures == ["oracle: broken"]


def test_refused_operation_fails_without_being_incorrect():
    ops = Ops()
    ops.attempt(100)
    ops.refuse("3 requests shed at the reference rate", 3)
    assert (ops.failed, ops.refused, ops.correct) == (3, 3, True)
    assert ops.ok_share == pytest.approx(0.97)
    ops.check("broken", False)
    assert not ops.correct


def test_calmest_is_the_fastest_repetition():
    assert harness.calmest(iter([3.0, 1.5, 2.0])) == 1.5


def test_percentiles_pool_the_fastest_rounds_that_hold_the_samples():
    assert [harness.samples_for(q) for q in (50, 80, 90, 95)] == [20, 50, 100, 200]
    for q in (50, 80, 95):
        assert harness.supported_percentile(harness.samples_for(q)) == q
    samples = [[1.0] * 30, [2.0] * 30, [3.0] * 30]
    pooled = harness.calmest_pool(samples, walls=[0.9, 0.5, 0.7], needed=50)
    assert sorted(set(pooled)) == [2.0, 3.0] and len(pooled) == 60
    assert len(harness.calmest_pool(samples, [0.9, 0.5, 0.7], needed=500)) == 90


def test_environment_is_scrubbed_and_stamped():
    environ = {"REPRO_CBO": "1", "REPRO_TRACE": "t.json", "PATH": "/bin"}
    assert harness.scrub_environment(environ) == ["REPRO_CBO", "REPRO_TRACE"]
    assert environ == {"PATH": "/bin"}
    stamp = harness.environment_stamp()
    assert {"nproc", "cpu_affinity", "python", "numpy", "git_sha", "dirty_tree"} <= set(stamp)


def test_rounds_run_at_least_the_minimum():
    seen = []
    tracer = Tracer("w", enabled=True)
    walls = harness.run_rounds(
        tracer, 0.0, 3, lambda i, t: seen.append(t.enabled) or float(i)
    )
    assert walls == [0.0, 1.0, 2.0]
    assert seen == [False, True, False], "a traced run alternates, untraced first"
    assert harness.split_walls(tracer, walls) == (0.0, 1.0), "fastest of each kind"
    assert [s.name for s in tracer.spans] == [harness.ROUND_SPAN]
