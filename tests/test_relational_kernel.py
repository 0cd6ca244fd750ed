"""The shared relational kernel: ``factorize`` under ``Table.group_by``,
SQL ``GROUP BY`` and ``SELECT DISTINCT``.

Combining per-key codes mixed-radix in int64 without re-densifying
overflows once the key cardinalities multiply past 2**64, and distinct
keys then merge silently.  Five int key columns holding a diagonal of
8 192 values are enough; the pairs below collide under the radix
(8 192 or 8 193) of the two factorizers that used to exist.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dataplat.sql import SQLEngine
from repro.dataplat.table import Table, factorize

KEYS = [f"k{i}" for i in range(5)]
DIAGONAL = 8192


def key_table(rows) -> Table:
    arr = np.asarray(rows, dtype=np.int64)
    return Table.from_arrays(**{k: arr[:, i] for i, k in enumerate(KEYS)})


def diagonal(extra, n=DIAGONAL) -> list[tuple]:
    return [(i,) * 5 for i in range(n)] + list(extra)


def group_counts(table: Table, n_col: str = "n") -> Counter:
    keys = zip(*(table[k].tolist() for k in KEYS))
    return Counter(dict(zip(keys, table[n_col].tolist())))


def sql_group_by(table: Table) -> Table:
    engine = SQLEngine()
    engine.register(table, "t")
    keys = ", ".join(KEYS)
    return engine.query(f"SELECT {keys}, COUNT(*) AS n FROM t GROUP BY {keys}")


def sql_distinct(table: Table) -> Table:
    engine = SQLEngine()
    engine.register(table, "t")
    return engine.query(f"SELECT DISTINCT {', '.join(KEYS)} FROM t")


def test_table_group_by_keeps_colliding_keys_apart():
    # 4096 * 8192**4 == 2**64: the old radix-8192 code folded these two.
    rows = diagonal([(0, 1, 0, 0, 0), (4096, 1, 0, 0, 0)])
    out = key_table(rows).group_by(KEYS, {"n": ("count", None)})
    assert out.num_rows == len(set(rows)) == 8194
    assert group_counts(out) == Counter(rows)


def test_sql_group_by_and_distinct_keep_colliding_keys_apart():
    # A short lattice vector of the old radix 8193: the two extra keys
    # differ by (-4094, -5, 5, -2, -4096), which folds to 0 mod 2**64.
    rows = diagonal([(0, 0, 5, 0, 0), (4094, 5, 0, 2, 4096)])
    table = key_table(rows)
    grouped = sql_group_by(table)
    assert grouped.num_rows == 8194
    assert group_counts(grouped) == Counter(rows)
    distinct = sql_distinct(table)
    assert distinct.num_rows == 8194
    assert set(zip(*(distinct[k].tolist() for k in KEYS))) == set(rows)


@st.composite
def wide_keys(draw):
    """Rows over five int keys whose cardinality product exceeds 2**64.

    The diagonal sets every column's cardinality to ``n`` (8 191 or 8 192,
    so one of the two old radices is 2**13).  Each drawn key comes 2-3
    times, some with a twin shifted by 4 096 in the leading column — the
    difference that folds to 0 mod 2**64 under a radix of 2**13.
    """
    n = draw(st.sampled_from((DIAGONAL - 1, DIAGONAL)))
    value = st.integers(0, n - 1)
    drawn = []
    for key in draw(st.lists(st.tuples(*[value] * 5), min_size=1, max_size=6)):
        drawn.append(key)
        if draw(st.booleans()):
            lead = key[0] + 4096 if key[0] < n - 4096 else key[0] - 4096
            drawn.append((lead,) + key[1:])
    rows = diagonal(
        [k for k in drawn for _ in range(draw(st.integers(2, 3)))], n
    )
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(
        len(rows)
    )
    return [rows[i] for i in order.tolist()]


@given(wide_keys())
@settings(max_examples=25, deadline=None)
def test_group_counts_match_a_dict_oracle(rows):
    want = Counter(rows)
    table = key_table(rows)
    grouped = table.group_by(KEYS, {"n": ("count", None)})
    assert grouped.num_rows == len(want)
    assert group_counts(grouped) == want
    sql = sql_group_by(table)
    assert sql.num_rows == len(want)
    assert group_counts(sql) == want
    distinct = sql_distinct(table)
    assert distinct.num_rows == len(want)
    # DISTINCT keeps each key's first row, in input order.
    assert list(zip(*(distinct[k].tolist() for k in KEYS))) == list(want)


def test_factorize_contract():
    a = np.array([2.0, np.nan, 1.0, np.nan, 2.0])
    b = np.array(["y", "x", "x", "x", "x"], dtype=object)
    ids, n_groups, first_idx = factorize([a, b])
    # Lexicographic ids, NaN last and grouped; each group's first row.
    assert ids.tolist() == [2, 3, 0, 3, 1]
    assert n_groups == 4
    assert first_idx.tolist() == [2, 4, 0, 1]
    # For joins every NaN is a key of its own.
    ids, n_groups, _ = factorize([a], equal_nan=False)
    assert n_groups == 4
    assert ids[1] != ids[3]
