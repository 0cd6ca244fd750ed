"""Scalar and aggregate function registry for the SQL engine.

Scalar functions operate on whole numpy arrays (vectorized).  Aggregates
are only named here; :func:`repro.dataplat.table.aggregate`, the kernel
``Table.group_by`` shares, computes them over dense group ids.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ...errors import SQLAnalysisError
from ..table import COUNT_MERGE

ScalarFn = Callable[..., np.ndarray]

#: Aggregate function names understood by the planner.  ``count`` supports
#: ``COUNT(*)`` and ``COUNT(DISTINCT x)``.
AGGREGATE_FUNCTIONS = {
    "COUNT", "SUM", "AVG", "MIN", "MAX", "STDDEV", "VARIANCE", "MEDIAN",
    COUNT_MERGE,
}


def _as_float(arr: np.ndarray) -> np.ndarray:
    return np.asarray(arr, dtype=np.float64)


def _abs(x: np.ndarray) -> np.ndarray:
    return np.abs(x)


def _coalesce(*args: np.ndarray) -> np.ndarray:
    """First non-NaN value across arguments (numeric columns)."""
    out = _as_float(args[0]).copy()
    for arr in args[1:]:
        nan_mask = np.isnan(out)
        if not nan_mask.any():
            break
        out[nan_mask] = _as_float(arr)[nan_mask] if np.ndim(arr) else arr
    return out


def _greatest(*args: np.ndarray) -> np.ndarray:
    out = _as_float(args[0])
    for arr in args[1:]:
        out = np.maximum(out, _as_float(arr))
    return out


def _least(*args: np.ndarray) -> np.ndarray:
    out = _as_float(args[0])
    for arr in args[1:]:
        out = np.minimum(out, _as_float(arr))
    return out


def _log(x: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(_as_float(x), 1e-300))


def _log1p(x: np.ndarray) -> np.ndarray:
    return np.log1p(np.maximum(_as_float(x), 0.0))


def _safe_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a / b with 0 where b == 0 (telco rate features divide by counts)."""
    a = _as_float(a)
    b = _as_float(b)
    b_arr = np.broadcast_to(b, np.broadcast_shapes(np.shape(a), np.shape(b)))
    a_arr = np.broadcast_to(a, b_arr.shape)
    out = np.zeros(b_arr.shape, dtype=np.float64)
    nz = b_arr != 0
    out[nz] = a_arr[nz] / b_arr[nz]
    return out


def _length(x: np.ndarray) -> np.ndarray:
    return np.asarray([len(str(v)) for v in np.atleast_1d(x)], dtype=np.int64)


def _lower(x: np.ndarray) -> np.ndarray:
    return np.asarray([str(v).lower() for v in np.atleast_1d(x)], dtype=object)


def _upper(x: np.ndarray) -> np.ndarray:
    return np.asarray([str(v).upper() for v in np.atleast_1d(x)], dtype=object)


SCALAR_FUNCTIONS: dict[str, ScalarFn] = {
    "ABS": _abs,
    "SQRT": lambda x: np.sqrt(np.maximum(_as_float(x), 0.0)),
    "LOG": _log,
    "LOG1P": _log1p,
    "EXP": lambda x: np.exp(_as_float(x)),
    "FLOOR": lambda x: np.floor(_as_float(x)),
    "CEIL": lambda x: np.ceil(_as_float(x)),
    "ROUND": lambda x: np.round(_as_float(x)),
    "COALESCE": _coalesce,
    "GREATEST": _greatest,
    "LEAST": _least,
    "SAFE_DIV": _safe_div,
    "LENGTH": _length,
    "LOWER": _lower,
    "UPPER": _upper,
}


def scalar_function(name: str) -> ScalarFn:
    """Look up a scalar function, raising on unknown names."""
    try:
        return SCALAR_FUNCTIONS[name]
    except KeyError:
        raise SQLAnalysisError(
            f"unknown function {name}; "
            f"scalar functions: {sorted(SCALAR_FUNCTIONS)}"
        ) from None
