"""Same seed, same inputs; another seed, other inputs of the same shape."""

from collections import Counter

import numpy as np
import pytest

import inputs


@pytest.fixture(scope="module")
def world():
    return inputs.simulate_world(200, seed=5)[1]


def test_statement_stream_repeats_and_keeps_its_composition(world):
    again = inputs.simulate_world(200, seed=5)[1]
    first = inputs.sql_round(world, 5, 0)
    assert first == inputs.sql_round(again, 5, 0)
    other = inputs.sql_round(world, 6, 0)
    assert first != other and first != inputs.sql_round(world, 5, 1)

    def composition(statements):
        return Counter((s.cls, s.phase) for s in statements)

    assert composition(first) == composition(other)
    expected = {
        (cls, phase): counts[i]
        for cls, counts in inputs.SQL_CLASS_MIX.items()
        for i, phase in enumerate(("cold", "warm"))
    }
    assert composition(first) == expected
    phases = [s.phase for s in first]
    assert phases == sorted(phases), "cold segment first, then warm"


def test_sharded_stream_repeats():
    first = inputs.sharded_round(5, 0, 2)
    assert first == inputs.sharded_round(5, 0, 2)
    assert first != inputs.sharded_round(6, 0, 2)
    assert Counter(s.cls for s in first) == {c: 2 for c in inputs.SHARDED_CLASSES}


def test_arrival_plan_repeats():
    ids = np.arange(1000, dtype=np.int64)
    step = inputs.serve_schedule(2.0)[2]
    first = inputs.step_arrivals(step, 2, 5, ids)
    again = inputs.step_arrivals(step, 2, 5, ids)
    assert np.array_equal(first.times_s, again.times_s)
    assert np.array_equal(first.customer_ids, again.customer_ids)
    other = inputs.step_arrivals(step, 2, 6, ids)
    assert not np.array_equal(first.customer_ids[:50], other.customer_ids[:50])
    assert first.times_s.max() < step.duration_s


def test_record_stream_repeats(world):
    first = inputs.vendor_records(world, 5)
    assert first == inputs.vendor_records(world, 5)
    assert first != inputs.vendor_records(world, 6)
    assert sorted(first) == list(range(1, inputs.MONTHS + 1))
    assert sum(inputs.malformed(r) for r in first.values()) > 0


def test_skewed_world_and_snapshot_repeat():
    a, b = inputs.skewed_world(5, 500, 40), inputs.skewed_world(5, 500, 40)
    assert all(a[name] == b[name] for name in a)
    m1, y1 = inputs.serve_snapshot(300, 5)
    m2, y2 = inputs.serve_snapshot(300, 5)
    assert np.array_equal(m1.values, m2.values) and np.array_equal(y1, y2)
