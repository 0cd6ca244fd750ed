"""Unit tests for repro.dataplat.schema."""

import numpy as np
import pytest

from repro.dataplat.schema import Column, ColumnType, Schema
from repro.errors import SchemaError


class TestColumnType:
    def test_dtype_mapping(self):
        assert ColumnType.INT.dtype == np.dtype(np.int64)
        assert ColumnType.FLOAT.dtype == np.dtype(np.float64)
        assert ColumnType.BOOL.dtype == np.dtype(np.bool_)
        assert ColumnType.STRING.dtype == np.dtype(object)

    def test_infer_int(self):
        assert ColumnType.infer(np.array([1, 2])) is ColumnType.INT

    def test_infer_unsigned_is_int(self):
        assert ColumnType.infer(np.array([1, 2], dtype=np.uint32)) is ColumnType.INT

    def test_infer_float(self):
        assert ColumnType.infer(np.array([1.5])) is ColumnType.FLOAT

    def test_infer_bool(self):
        assert ColumnType.infer(np.array([True])) is ColumnType.BOOL

    def test_infer_string_unicode(self):
        assert ColumnType.infer(np.array(["a"])) is ColumnType.STRING

    def test_infer_string_object(self):
        arr = np.array(["a"], dtype=object)
        assert ColumnType.infer(arr) is ColumnType.STRING

    def test_infer_rejects_complex(self):
        with pytest.raises(SchemaError):
            ColumnType.infer(np.array([1j]))


class TestColumn:
    def test_valid_names(self):
        Column("a", ColumnType.INT)
        Column("call_dur_2", ColumnType.FLOAT)
        Column("t.qualified", ColumnType.INT)  # SQL-internal form

    @pytest.mark.parametrize("name", ["", "a b", "x-y", "a$"])
    def test_invalid_names(self, name):
        with pytest.raises(SchemaError):
            Column(name, ColumnType.INT)

    def test_cast_coerces_dtype(self):
        col = Column("x", ColumnType.FLOAT)
        out = col.cast([1, 2, 3])
        assert out.dtype == np.float64

    def test_cast_string_to_object(self):
        col = Column("x", ColumnType.STRING)
        out = col.cast(np.array(["a", "b"]))
        assert out.dtype == object

    def test_cast_failure_raises(self):
        col = Column("x", ColumnType.INT)
        with pytest.raises(SchemaError):
            col.cast(np.array(["not-an-int"]))


class TestSchema:
    def test_of_builder(self):
        s = Schema.of(a="int", b="float", c="string", d="bool")
        assert s.names == ("a", "b", "c", "d")
        assert s["b"].ctype is ColumnType.FLOAT

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema([Column("a", ColumnType.INT), Column("a", ColumnType.INT)])

    def test_contains_and_getitem(self):
        s = Schema.of(a="int")
        assert "a" in s
        assert "b" not in s
        with pytest.raises(SchemaError):
            s["b"]

    def test_select_preserves_order(self):
        s = Schema.of(a="int", b="float", c="bool")
        assert s.select(["c", "a"]).names == ("c", "a")

    def test_rename(self):
        s = Schema.of(a="int", b="float")
        out = s.rename({"a": "z"})
        assert out.names == ("z", "b")
        assert out["z"].ctype is ColumnType.INT

    def test_equality_and_hash(self):
        assert Schema.of(a="int") == Schema.of(a="int")
        assert Schema.of(a="int") != Schema.of(a="float")
        assert hash(Schema.of(a="int")) == hash(Schema.of(a="int"))

    def test_len_and_iter(self):
        s = Schema.of(a="int", b="float")
        assert len(s) == 2
        assert [c.name for c in s] == ["a", "b"]
