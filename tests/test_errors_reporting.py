"""Tests for the exception hierarchy and report formatting helpers."""

import pytest

from repro import errors
from repro.core.reporting import fmt, render_table


class TestErrorHierarchy:
    ALL_ERRORS = [
        errors.ConfigError,
        errors.DataPlatformError,
        errors.StorageError,
        errors.SchemaError,
        errors.CatalogError,
        errors.SQLError,
        errors.SQLSyntaxError,
        errors.SQLAnalysisError,
        errors.ExecutionError,
        errors.ETLError,
        errors.ModelError,
        errors.NotFittedError,
        errors.TrainingError,
        errors.FeatureError,
        errors.SimulationError,
        errors.ExperimentError,
    ]

    @pytest.mark.parametrize("exc", ALL_ERRORS)
    def test_all_errors_are_repro_errors(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_platform_errors_share_a_base(self):
        for exc in (
            errors.StorageError,
            errors.SchemaError,
            errors.CatalogError,
            errors.SQLError,
            errors.ExecutionError,
            errors.ETLError,
        ):
            assert issubclass(exc, errors.DataPlatformError)

    def test_sql_errors_share_a_base(self):
        assert issubclass(errors.SQLSyntaxError, errors.SQLError)
        assert issubclass(errors.SQLAnalysisError, errors.SQLError)

    def test_model_errors_share_a_base(self):
        assert issubclass(errors.NotFittedError, errors.ModelError)
        assert issubclass(errors.TrainingError, errors.ModelError)

    def test_syntax_error_carries_position(self):
        err = errors.SQLSyntaxError("bad token", position=17)
        assert err.position == 17
        assert "offset 17" in str(err)

    def test_syntax_error_without_position(self):
        err = errors.SQLSyntaxError("bad token")
        assert err.position is None
        assert "offset" not in str(err)

    def test_one_except_clause_catches_everything(self):
        caught = 0
        for exc in self.ALL_ERRORS:
            try:
                raise exc("boom")
            except errors.ReproError:
                caught += 1
        assert caught == len(self.ALL_ERRORS)


class TestRendering:
    def test_fmt_digits(self):
        assert fmt(0.123456789) == "0.12346"

    def test_render_table_pads_cells(self):
        text = render_table(["col", "x"], [["a", "12345"]])
        lines = text.split("\n")
        assert len(lines) == 3
        assert lines[0].index("x") == lines[2].index("1")

    def test_render_table_empty_rows(self):
        text = render_table(["a"], [])
        assert "a" in text
