"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.dataplat.catalog import Catalog
from repro.dataplat.etl import ETLJob, QUARANTINE_SUFFIX
from repro.dataplat.observability import Histogram
from repro.dataplat.resilience import (
    FAULT_KINDS,
    FaultInjector,
    FaultPolicy,
    RetryPolicy,
)
from repro.dataplat.schema import Schema
from repro.dataplat.sql import SQLEngine
from repro.dataplat.table import Table
from repro.ml.graphalgo import label_propagation, pagerank
from repro.ml.metrics import pr_auc, precision_at, recall_at, roc_auc
from repro.ml.preprocess import QuantileBinner, one_hot
from repro.ml.sampling import rebalance
from repro.core.labeling import labels_from_delays
from test_table import decode_table_bytes

# Bounded float columns (no NaN/inf) keep the relational algebra exact.
floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def tables(draw, min_rows=0, max_rows=40):
    n = draw(st.integers(min_rows, max_rows))
    keys = draw(
        st.lists(st.integers(0, 5), min_size=n, max_size=n)
    )
    values = draw(st.lists(floats, min_size=n, max_size=n))
    return Table.from_arrays(
        k=np.asarray(keys, dtype=np.int64),
        v=np.asarray(values, dtype=np.float64),
    )


class TestTableProperties:
    @given(tables())
    @settings(max_examples=50, deadline=None)
    def test_serialization_round_trip(self, table):
        assert decode_table_bytes(table.to_bytes()) == table

    @given(tables(min_rows=1))
    @settings(max_examples=50, deadline=None)
    def test_sort_is_permutation(self, table):
        out = table.sort_by(["v"])
        assert sorted(out["v"].tolist()) == sorted(table["v"].tolist())
        assert np.all(np.diff(out["v"]) >= 0)

    @given(tables())
    @settings(max_examples=50, deadline=None)
    def test_mask_then_concat_partitions_rows(self, table):
        mask = table["k"] % 2 == 0
        parts = table.mask(mask).concat_rows(table.mask(~mask))
        assert parts.num_rows == table.num_rows
        assert sorted(parts["v"].tolist()) == sorted(table["v"].tolist())

    @given(tables(min_rows=1))
    @settings(max_examples=50, deadline=None)
    def test_group_by_sum_conserves_total(self, table):
        grouped = table.group_by(["k"], {"s": ("sum", "v")})
        assert grouped["s"].sum() == pytest.approx(
            table["v"].sum(), rel=1e-9, abs=1e-6
        )

    @given(tables(min_rows=1), tables(min_rows=1))
    @settings(max_examples=30, deadline=None)
    def test_inner_join_row_count_formula(self, left, right):
        out = left.join(right, on=["k"])
        expected = 0
        right_counts = {}
        for k in right["k"].tolist():
            right_counts[k] = right_counts.get(k, 0) + 1
        for k in left["k"].tolist():
            expected += right_counts.get(k, 0)
        assert out.num_rows == expected


class TestSQLProperties:
    @given(tables(min_rows=1))
    @settings(max_examples=30, deadline=None)
    def test_sql_sum_matches_numpy(self, table):
        engine = SQLEngine()
        engine.register(table, "t")
        out = engine.query("SELECT SUM(v) AS s, COUNT(*) AS n FROM t")
        assert out["s"][0] == pytest.approx(table["v"].sum(), rel=1e-9, abs=1e-6)
        assert out["n"][0] == table.num_rows

    @given(tables(min_rows=1), st.integers(-5, 5))
    @settings(max_examples=30, deadline=None)
    def test_where_equivalent_to_mask(self, table, threshold):
        engine = SQLEngine()
        engine.register(table, "t")
        out = engine.query(f"SELECT v FROM t WHERE k > {threshold}")
        assert sorted(out["v"].tolist()) == sorted(
            table.mask(table["k"] > threshold)["v"].tolist()
        )

    @given(tables(min_rows=1))
    @settings(max_examples=30, deadline=None)
    def test_group_count_covers_all_rows(self, table):
        engine = SQLEngine()
        engine.register(table, "t")
        out = engine.query("SELECT k, COUNT(*) AS n FROM t GROUP BY k")
        assert out["n"].sum() == table.num_rows


#: Floats that include both infinities, for the min/max corner.
floats_with_inf = st.one_of(floats, st.sampled_from([np.inf, -np.inf]))


class TestGroupByMatchesSQL:
    """``Table.group_by`` against ``SQLEngine``'s ``GROUP BY``, one key and
    two: every aggregate, over floats that include ±inf."""

    @given(st.data(), st.integers(1, 40), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_aggregates_match(self, data, n, two_keys):
        ints = st.integers(0, 4)
        table = Table.from_arrays(
            k=np.asarray(data.draw(st.lists(ints, min_size=n, max_size=n)), dtype=np.int64),
            g=np.asarray(
                data.draw(st.lists(st.sampled_from("xyz"), min_size=n, max_size=n)),
                dtype=object,
            ),
            v=np.asarray(
                data.draw(st.lists(floats_with_inf, min_size=n, max_size=n)),
                dtype=np.float64,
            ),
        )
        keys = ["k", "g"] if two_keys else ["k"]
        grouped = table.group_by(
            keys,
            {
                "s": ("sum", "v"),
                "m": ("mean", "v"),
                "lo": ("min", "v"),
                "hi": ("max", "v"),
                "n": ("count", None),
                "d": ("count_distinct", "v"),
                "f": ("first", "v"),
            },
        )
        engine = SQLEngine()
        engine.register(table, "t")
        key_list = ", ".join(keys)
        sql = engine.query(
            f"SELECT {key_list}, SUM(v) AS s, AVG(v) AS m, MIN(v) AS lo, "
            f"MAX(v) AS hi, COUNT(*) AS n, COUNT(DISTINCT v) AS d, v AS f "
            f"FROM t GROUP BY {key_list} ORDER BY {key_list}"
        )
        for name in keys + ["lo", "hi", "n", "d", "f"]:
            assert grouped[name].tolist() == sql[name].tolist(), name
        for name in ("s", "m"):
            np.testing.assert_allclose(grouped[name], sql[name], rtol=1e-9, atol=1e-6)

    def test_infinite_extremes_survive(self):
        table = Table.from_arrays(
            k=np.array([1, 1, 2]), v=np.array([-np.inf, 3.0, np.inf])
        )
        out = table.group_by(["k"], {"lo": ("min", "v"), "hi": ("max", "v")})
        assert out["lo"].tolist() == [-np.inf, np.inf]
        assert out["hi"].tolist() == [3.0, np.inf]


@st.composite
def scored_labels(draw):
    n = draw(st.integers(10, 200))
    scores = draw(
        hnp.arrays(np.float64, n, elements=st.floats(0, 1, allow_nan=False))
    )
    labels = draw(
        hnp.arrays(np.int64, n, elements=st.integers(0, 1))
    )
    # Guarantee both classes.
    labels[0] = 0
    labels[1] = 1
    return labels, scores


class TestMetricProperties:
    @given(scored_labels())
    @settings(max_examples=60, deadline=None)
    def test_auc_complement_under_score_negation(self, data):
        y, s = data
        assert roc_auc(y, s) + roc_auc(y, -s) == pytest.approx(1.0)

    @given(scored_labels())
    @settings(max_examples=60, deadline=None)
    def test_metric_ranges(self, data):
        y, s = data
        assert 0.0 <= roc_auc(y, s) <= 1.0
        assert 0.0 <= pr_auc(y, s) <= 1.0

    @given(scored_labels())
    @settings(max_examples=60, deadline=None)
    def test_recall_monotone_in_u(self, data):
        y, s = data
        values = [recall_at(y, s, u) for u in (1, 5, len(y))]
        assert values == sorted(values)
        assert values[-1] == 1.0

    @given(scored_labels())
    @settings(max_examples=60, deadline=None)
    def test_precision_at_full_list_is_base_rate(self, data):
        y, s = data
        assert precision_at(y, s, len(y)) == pytest.approx(y.mean())

    @given(scored_labels())
    @settings(max_examples=60, deadline=None)
    def test_auc_invariant_to_monotone_transform(self, data):
        # Scaling by a power of two is exact in floating point, so it is a
        # strictly monotone transform that cannot create new ties.
        y, s = data
        assert roc_auc(y, s) == pytest.approx(roc_auc(y, 4.0 * s))


class TestSamplingProperties:
    @given(st.integers(5, 50), st.integers(5, 50), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_up_down_balance_exactly(self, n_pos, n_neg, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n_pos + n_neg, 2))
        y = np.concatenate([np.ones(n_pos, int), np.zeros(n_neg, int)])
        for strategy in ("up", "down"):
            _, yb, w = rebalance(x, y, strategy, np.random.default_rng(seed))
            assert (yb == 1).sum() == (yb == 0).sum()
            assert np.all(w == 1.0)

    @given(st.integers(5, 50), st.integers(5, 50), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_weighted_mass_equal(self, n_pos, n_neg, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n_pos + n_neg, 2))
        y = np.concatenate([np.ones(n_pos, int), np.zeros(n_neg, int)])
        _, _, w = rebalance(x, y, "weighted")
        assert w[y == 1].sum() == pytest.approx(w[y == 0].sum())


class TestGraphProperties:
    @st.composite
    @staticmethod
    def graphs(draw):
        n = draw(st.integers(2, 30))
        m = draw(st.integers(1, 60))
        edges = []
        for _ in range(m):
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(0, n - 1))
            if a != b:
                edges.append((a, b))
        if not edges:
            edges = [(0, 1)]
        weights = draw(
            st.lists(
                st.floats(0.1, 10, allow_nan=False),
                min_size=len(edges),
                max_size=len(edges),
            )
        )
        return np.asarray(edges), np.asarray(weights), n

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_pagerank_mass_bounds(self, graph):
        # The paper's Eq. 1 hands isolated nodes the teleport mass but they
        # contribute nothing back, so total mass is conserved only on
        # graphs without isolated nodes and otherwise shrinks.
        edges, weights, n = graph
        scores = pagerank(edges, weights, n)
        assert np.all(scores > 0)
        assert scores.sum() <= 1.0 + 1e-4  # iteration tolerance headroom
        touched = np.zeros(n, dtype=bool)
        touched[edges.ravel()] = True
        if touched.all():
            assert scores.sum() == pytest.approx(1.0, abs=1e-3)
        else:
            assert scores[~touched].max() == pytest.approx(0.15 / n, abs=1e-9)

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_label_propagation_rows_are_distributions(self, graph):
        edges, weights, n = graph
        beliefs = label_propagation(edges, weights, n, {0: 1})
        assert np.allclose(beliefs.sum(axis=1), 1.0)
        assert np.all(beliefs >= 0)
        assert beliefs[0, 1] == pytest.approx(1.0)


class TestPreprocessProperties:
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(10, 100), st.integers(1, 5)),
            elements=floats,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_one_hot_rows_sum_to_columns(self, x):
        binner = QuantileBinner(n_bins=4).fit(x)
        onehot = one_hot(binner.transform(x), binner.bin_counts())
        assert np.all(onehot.sum(axis=1) == x.shape[1])


class TestRetryProperties:
    @given(
        st.integers(0, 10_000),
        st.integers(2, 8),
        st.floats(0.01, 2.0, allow_nan=False),
        st.floats(1.1, 4.0, allow_nan=False),
        st.floats(0.0, 0.99, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_schedule_deterministic_for_seed(
        self, seed, attempts, base, multiplier, jitter
    ):
        make = lambda: RetryPolicy(  # noqa: E731
            max_attempts=attempts,
            base_delay=base,
            multiplier=multiplier,
            jitter=jitter,
            seed=seed,
        )
        first, second = make().schedule(), make().schedule()
        assert first == second
        assert len(first) == attempts - 1
        for k, pause in enumerate(first):
            assert 0.0 < pause <= make().max_delay
            # Jitter only ever shortens the pause below the exponential cap.
            assert pause <= min(make().max_delay, base * multiplier**k)

    @given(st.integers(0, 10_000), st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_zero_jitter_schedule_is_pure_exponential(self, seed, attempts):
        policy = RetryPolicy(
            max_attempts=attempts,
            base_delay=1.0,
            multiplier=2.0,
            jitter=0.0,
            max_delay=1e9,
            seed=seed,
        )
        assert policy.schedule() == [2.0**k for k in range(attempts - 1)]

    @given(
        st.integers(0, 10_000),
        st.floats(0.0, 0.9, allow_nan=False),
        st.integers(1, 80),
    )
    @settings(max_examples=60, deadline=None)
    def test_injector_decisions_replay_exactly(self, seed, rate, n_draws):
        policy = FaultPolicy(read_failure_rate=rate)
        a = FaultInjector(policy, seed=seed)
        b = FaultInjector(policy, seed=seed)
        decisions_a = [a.should("read_failure") for _ in range(n_draws)]
        decisions_b = [b.should("read_failure") for _ in range(n_draws)]
        assert decisions_a == decisions_b
        assert a.injected["read_failure"] == sum(decisions_a)


class TestQuarantineProperties:
    schema = Schema.of(k="int", v="float")

    @st.composite
    @staticmethod
    def raw_records(draw, max_records=30):
        n = draw(st.integers(0, max_records))
        records = []
        for _ in range(n):
            record = {}
            if draw(st.booleans()):
                record["k"] = draw(st.one_of(st.integers(0, 9), st.just("bad")))
            record["v"] = draw(st.one_of(floats, st.just("oops")))
            records.append(record)
        return records

    @given(raw_records())
    @settings(max_examples=40, deadline=None)
    def test_every_row_is_loaded_or_quarantined(self, records):
        catalog = Catalog()
        job = ETLJob(self.schema, target="feed")
        stats = job.run(records, catalog)
        assert stats.rows_read == len(records)
        assert stats.rows_loaded + stats.rows_rejected == stats.rows_read
        assert stats.rows_quarantined == stats.rows_rejected
        assert catalog.load("feed").num_rows == stats.rows_loaded
        if stats.rows_rejected:
            dead = catalog.load(f"feed{QUARANTINE_SUFFIX}")
            assert dead.num_rows == stats.rows_rejected
        else:
            assert not catalog.exists(f"feed{QUARANTINE_SUFFIX}")

    @given(raw_records())
    @settings(max_examples=40, deadline=None)
    def test_quarantine_off_only_counts(self, records):
        catalog = Catalog()
        job = ETLJob(self.schema, target="feed")
        stats = job.run(records, catalog, quarantine=False)
        assert stats.rows_quarantined == 0
        assert not catalog.exists(f"feed{QUARANTINE_SUFFIX}")
        assert stats.rows_loaded + stats.rows_rejected == stats.rows_read


class TestZeroFaultIdentity:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_disabled_injector_never_fires(self, seed):
        injector = FaultInjector(FaultPolicy(), seed=seed)
        for kind in FAULT_KINDS:
            assert not any(injector.should(kind) for _ in range(50))
        assert injector.total_injected == 0


class TestLabelingProperties:
    @given(
        hnp.arrays(
            np.int64, st.integers(1, 200), elements=st.integers(-1, 60)
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_rule_matches_direct_definition(self, delays):
        labels = labels_from_delays(delays)
        for d, label in zip(delays.tolist(), labels.tolist()):
            assert label == (d < 0 or d > 15)


class TestHistogramProperties:
    """Merge algebra of fixed-boundary histograms (observability layer)."""

    @staticmethod
    def _fill(name, values, boundaries):
        h = Histogram(name, boundaries)
        for v in values:
            h.observe(v)
        return h

    boundary_lists = st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        min_size=1,
        max_size=8,
        unique=True,
    ).map(sorted)
    samples = st.lists(
        st.floats(min_value=-1e4, max_value=1e4, allow_nan=False), max_size=50
    )

    @given(boundary_lists, samples)
    @settings(max_examples=100, deadline=None)
    def test_bucket_count_conservation(self, boundaries, values):
        h = self._fill("h", values, boundaries)
        assert sum(h.counts) == h.total == len(values)

    @given(boundary_lists, samples, samples, samples)
    @settings(max_examples=100, deadline=None)
    def test_merge_associativity(self, boundaries, va, vb, vc):
        a = self._fill("a", va, boundaries)
        b = self._fill("b", vb, boundaries)
        c = self._fill("c", vc, boundaries)
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.counts == right.counts
        assert left.total == right.total
        assert left.sum == pytest.approx(right.sum)
        assert left.min == right.min
        assert left.max == right.max

    @given(boundary_lists, samples, samples)
    @settings(max_examples=100, deadline=None)
    def test_merge_conserves_counts_and_matches_union(self, boundaries, va, vb):
        merged = self._fill("a", va, boundaries).merge(
            self._fill("b", vb, boundaries)
        )
        union = self._fill("u", va + vb, boundaries)
        assert merged.counts == union.counts
        assert merged.total == union.total == len(va) + len(vb)
        assert sum(merged.counts) == merged.total

    @given(boundary_lists, samples)
    @settings(max_examples=60, deadline=None)
    def test_merge_identity(self, boundaries, values):
        h = self._fill("h", values, boundaries)
        empty = Histogram("e", boundaries)
        merged = h.merge(empty)
        assert merged.counts == h.counts
        assert merged.total == h.total
        assert merged.sum == h.sum

    @given(boundary_lists, samples, samples)
    @settings(max_examples=60, deadline=None)
    def test_merge_commutative(self, boundaries, va, vb):
        a = self._fill("a", va, boundaries)
        b = self._fill("b", vb, boundaries)
        ab = a.merge(b)
        ba = b.merge(a)
        assert ab.counts == ba.counts
        assert ab.sum == pytest.approx(ba.sum)

    @given(boundary_lists, samples)
    @settings(max_examples=60, deadline=None)
    def test_merge_leaves_operands_untouched(self, boundaries, values):
        a = self._fill("a", values, boundaries)
        b = self._fill("b", values, boundaries)
        before = (list(a.counts), a.total, a.sum)
        a.merge(b)
        assert (list(a.counts), a.total, a.sum) == before
