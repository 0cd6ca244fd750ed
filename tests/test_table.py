"""Unit tests for repro.dataplat.table."""

import io

import numpy as np
import pytest

from repro.dataplat.schema import Column, ColumnType, Schema
from repro.dataplat.table import Table
from repro.errors import SchemaError


@pytest.fixture()
def sample() -> Table:
    return Table.from_arrays(
        imsi=np.array([1, 2, 3, 4]),
        dur=np.array([10.0, 20.0, 5.0, 7.5]),
        kind=np.array(["a", "b", "a", "c"], dtype=object),
        vip=np.array([True, False, False, True]),
    )


class TestConstruction:
    def test_from_arrays_infers_schema(self, sample):
        assert sample.schema.names == ("imsi", "dur", "kind", "vip")
        assert sample.num_rows == 4
        assert sample.num_columns == 4

    def test_from_rows(self):
        schema = Schema.of(a="int", b="string")
        t = Table.from_rows(schema, [(1, "x"), (2, "y")])
        assert t["a"].tolist() == [1, 2]
        assert t["b"].tolist() == ["x", "y"]

    def test_from_rows_wrong_width(self):
        schema = Schema.of(a="int", b="string")
        with pytest.raises(SchemaError):
            Table.from_rows(schema, [(1,)])

    def test_empty(self):
        t = Table.empty(Schema.of(a="int"))
        assert t.num_rows == 0
        assert t["a"].dtype == np.int64

    def test_missing_column_rejected(self):
        with pytest.raises(SchemaError):
            Table(Schema.of(a="int", b="int"), {"a": [1]})

    def test_extra_column_rejected(self):
        with pytest.raises(SchemaError):
            Table(Schema.of(a="int"), {"a": [1], "b": [2]})

    def test_ragged_columns_rejected(self):
        with pytest.raises(SchemaError):
            Table(Schema.of(a="int", b="int"), {"a": [1], "b": [1, 2]})

    def test_2d_column_rejected(self):
        with pytest.raises(SchemaError):
            Table(Schema.of(a="int"), {"a": np.zeros((2, 2), dtype=np.int64)})


class TestAccess:
    def test_unknown_column(self, sample):
        with pytest.raises(SchemaError):
            sample.column("nope")

    def test_rows_iteration(self, sample):
        rows = list(sample.rows())
        assert rows[0] == (1, 10.0, "a", True)
        assert len(rows) == 4

    def test_equality(self, sample):
        other = Table.from_arrays(
            imsi=sample["imsi"],
            dur=sample["dur"],
            kind=sample["kind"],
            vip=sample["vip"],
        )
        assert sample == other

    def test_inequality_different_values(self, sample):
        other = sample.with_column("dur", np.array([1.0, 2.0, 3.0, 4.0]))
        assert sample != other


class TestTransforms:
    def test_select(self, sample):
        out = sample.select(["kind", "imsi"])
        assert out.schema.names == ("kind", "imsi")

    def test_rename(self, sample):
        out = sample.rename({"dur": "duration"})
        assert "duration" in out.schema
        assert out["duration"].tolist() == sample["dur"].tolist()

    def test_with_column_append_and_replace(self, sample):
        appended = sample.with_column("extra", np.arange(4))
        assert appended.num_columns == 5
        replaced = sample.with_column("dur", np.zeros(4))
        assert replaced.num_columns == 4
        assert replaced["dur"].sum() == 0.0

    def test_drop(self, sample):
        out = sample.drop(["kind", "vip"])
        assert out.schema.names == ("imsi", "dur")

    def test_drop_unknown_raises(self, sample):
        with pytest.raises(SchemaError):
            sample.drop(["nope"])

    def test_take_reorders(self, sample):
        out = sample.take(np.array([3, 0]))
        assert out["imsi"].tolist() == [4, 1]

    def test_mask(self, sample):
        out = sample.mask(sample["dur"] > 8)
        assert out["imsi"].tolist() == [1, 2]

    def test_mask_wrong_length(self, sample):
        with pytest.raises(SchemaError):
            sample.mask(np.array([True]))

    def test_filter_callable(self, sample):
        out = sample.mask(sample["kind"] == "a")
        assert out["imsi"].tolist() == [1, 3]

    def test_head(self, sample):
        assert sample.head(2).num_rows == 2
        assert sample.head(99).num_rows == 4

    def test_sort_by_single(self, sample):
        out = sample.sort_by(["dur"])
        assert out["dur"].tolist() == sorted(sample["dur"].tolist())

    def test_sort_by_descending(self, sample):
        out = sample.sort_by(["dur"], descending=True)
        assert out["dur"].tolist() == sorted(sample["dur"].tolist(), reverse=True)

    def test_sort_by_multi_is_stable(self):
        t = Table.from_arrays(
            k=np.array([1, 1, 0, 0]), v=np.array([2, 1, 2, 1])
        )
        out = t.sort_by(["k", "v"])
        assert list(zip(out["k"].tolist(), out["v"].tolist())) == [
            (0, 1), (0, 2), (1, 1), (1, 2),
        ]

    def test_concat_rows(self, sample):
        out = sample.concat_rows(sample)
        assert out.num_rows == 8

    def test_concat_rows_schema_mismatch(self, sample):
        with pytest.raises(SchemaError):
            sample.concat_rows(sample.select(["imsi"]))


class TestJoin:
    def test_inner_join(self, sample):
        right = Table.from_arrays(imsi=np.array([1, 3, 9]), age=np.array([30, 40, 50]))
        out = sample.join(right, on=["imsi"])
        assert sorted(out["imsi"].tolist()) == [1, 3]
        assert "age" in out.schema

    def test_inner_join_duplicates_multiply(self):
        left = Table.from_arrays(k=np.array([1, 1]), a=np.array([1, 2]))
        right = Table.from_arrays(k=np.array([1, 1]), b=np.array([3, 4]))
        out = left.join(right, on=["k"])
        assert out.num_rows == 4

    def test_left_join_fills(self, sample):
        right = Table.from_arrays(imsi=np.array([1]), age=np.array([30]))
        out = sample.join(right, on=["imsi"], how="left")
        assert out.num_rows == 4
        by_imsi = dict(zip(out["imsi"].tolist(), out["age"].tolist()))
        assert by_imsi[1] == 30
        assert by_imsi[2] == 0  # numeric fill

    def test_left_join_string_fill(self):
        left = Table.from_arrays(k=np.array([1, 2]))
        right = Table.from_arrays(k=np.array([1]), s=np.array(["x"], dtype=object))
        out = left.join(right, on=["k"], how="left")
        by_k = dict(zip(out["k"].tolist(), out["s"].tolist()))
        assert by_k[2] == ""

    def test_join_name_collision_suffix(self):
        left = Table.from_arrays(k=np.array([1]), v=np.array([1.0]))
        right = Table.from_arrays(k=np.array([1]), v=np.array([2.0]))
        out = left.join(right, on=["k"])
        assert "v" in out.schema and "v_r" in out.schema

    def test_multi_key_join(self):
        left = Table.from_arrays(a=np.array([1, 1]), b=np.array([1, 2]), x=np.array([10, 20]))
        right = Table.from_arrays(a=np.array([1]), b=np.array([2]), y=np.array([99]))
        out = left.join(right, on=["a", "b"])
        assert out.num_rows == 1
        assert out["x"].tolist() == [20]

    def test_unsupported_join_kind(self, sample):
        with pytest.raises(SchemaError):
            sample.join(sample, on=["imsi"], how="outer")


class TestGroupBy:
    def test_sum_and_count(self):
        t = Table.from_arrays(k=np.array([1, 1, 2]), v=np.array([1.0, 2.0, 3.0]))
        g = t.group_by(["k"], {"s": ("sum", "v"), "n": ("count", "v")})
        by_k = {k: (s, n) for k, s, n in zip(g["k"], g["s"], g["n"])}
        assert by_k[1] == (3.0, 2)
        assert by_k[2] == (3.0, 1)

    def test_mean_min_max(self):
        t = Table.from_arrays(k=np.array([1, 1]), v=np.array([2.0, 4.0]))
        g = t.group_by(["k"], {"m": ("mean", "v"), "lo": ("min", "v"), "hi": ("max", "v")})
        assert g["m"].tolist() == [3.0]
        assert g["lo"].tolist() == [2.0]
        assert g["hi"].tolist() == [4.0]

    def test_count_distinct(self):
        t = Table.from_arrays(k=np.array([1, 1, 1]), v=np.array([5, 5, 7]))
        g = t.group_by(["k"], {"d": ("count_distinct", "v")})
        assert g["d"].tolist() == [2]

    def test_first(self):
        t = Table.from_arrays(k=np.array([1, 1, 2]), v=np.array([9, 8, 7]))
        g = t.group_by(["k"], {"f": ("first", "v")})
        by_k = dict(zip(g["k"].tolist(), g["f"].tolist()))
        assert by_k[1] == 9
        assert by_k[2] == 7

    def test_multi_key(self):
        t = Table.from_arrays(
            a=np.array([1, 1, 2]), b=np.array(["x", "x", "y"], dtype=object),
            v=np.array([1.0, 1.0, 1.0]),
        )
        g = t.group_by(["a", "b"], {"n": ("count", "v")})
        assert g.num_rows == 2

    def test_no_keys_rejected(self):
        t = Table.from_arrays(v=np.array([1.0]))
        with pytest.raises(SchemaError):
            t.group_by([], {"n": ("count", "v")})

    def test_unknown_aggregate_rejected(self):
        t = Table.from_arrays(k=np.array([1]), v=np.array([1.0]))
        with pytest.raises(SchemaError):
            t.group_by(["k"], {"x": ("median", "v")})


def decode_table_bytes(payload: bytes) -> Table:
    """Read :meth:`Table.to_bytes` back: an npz archive with a
    ``__schema__`` array of ``name:type`` entries, strings as unicode."""
    with np.load(io.BytesIO(payload), allow_pickle=False) as npz:
        cols, data = [], {}
        for entry in npz["__schema__"].tolist():
            name, _, ctype_name = entry.rpartition(":")
            col = Column(name, ColumnType(ctype_name))
            cols.append(col)
            arr = npz[name]
            data[name] = arr.astype(object) if col.ctype is ColumnType.STRING else arr
    return Table(Schema(cols), data)


class TestSerialization:
    def test_round_trip(self, sample):
        assert decode_table_bytes(sample.to_bytes()) == sample

    def test_round_trip_empty(self):
        t = Table.empty(Schema.of(a="int", s="string"))
        assert decode_table_bytes(t.to_bytes()) == t

    def test_round_trip_preserves_types(self, sample):
        out = decode_table_bytes(sample.to_bytes())
        assert out.schema == sample.schema


class TestJoinVectorizedParity:
    """The factorized join must be bit-identical to the dict-bucket oracle
    in ``tests/reference_join.py`` — same pairs, same row order, same
    unmatched set."""

    @staticmethod
    def _random_tables(rng, trial):
        nl, nr = rng.integers(1, 40, size=2)
        kind = trial % 3
        if kind == 0:
            kl = rng.integers(0, 8, size=nl)
            kr = rng.integers(0, 8, size=nr)
        elif kind == 1:
            kl = rng.choice([0.25, 1.5, np.nan, 3.0], size=nl)
            kr = rng.choice([0.25, 1.5, np.nan, 3.0], size=nr)
        else:
            kl = np.asarray(rng.choice(list("abcde"), size=nl), dtype=object)
            kr = np.asarray(rng.choice(list("abcde"), size=nr), dtype=object)
        left = Table.from_arrays(
            k=kl, k2=rng.integers(0, 3, size=nl), lv=rng.normal(size=nl)
        )
        right = Table.from_arrays(
            k=kr, k2=rng.integers(0, 3, size=nr), rv=rng.normal(size=nr)
        )
        return left, right

    def test_indices_match_hashed_reference(self):
        from reference_join import join_indices_hashed
        from repro.dataplat.table import _join_indices

        rng = np.random.default_rng(7)
        for trial in range(200):
            left, right = self._random_tables(rng, trial)
            on = ["k"] if trial % 2 else ["k", "k2"]
            how = "left" if trial % 4 < 2 else "inner"
            got = _join_indices(left, right, on, how)
            want = join_indices_hashed(left, right, on, how)
            for g, w in zip(got, want):
                assert np.array_equal(g, w), (trial, on, how)

    def test_nan_keys_never_match(self):
        left = Table.from_arrays(
            k=np.array([np.nan, 1.0]), lv=np.array([10.0, 20.0])
        )
        right = Table.from_arrays(
            k=np.array([np.nan, 1.0]), rv=np.array([1.0, 2.0])
        )
        out = left.join(right, on=["k"], how="left")
        # Row 0 (NaN key) is unmatched -> padded; row 1 matches.
        assert out["rv"].tolist() == [2.0, 0.0]

    def test_mixed_type_keys_never_match(self):
        # A STRING key never equals a numeric one (numpy could not even
        # sort the two together): the pair is decided from the dtypes.
        left = Table.from_arrays(k=np.array([1, 2]), lv=np.array([1.0, 2.0]))
        right = Table.from_arrays(
            k=np.asarray(["1", "2"], dtype=object), rv=np.array([9.0, 8.0])
        )
        out = left.join(right, on=["k"], how="left")
        assert out.num_rows == 2
        assert out["rv"].tolist() == [0.0, 0.0]
