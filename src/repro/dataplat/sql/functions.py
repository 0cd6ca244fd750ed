"""Scalar and aggregate function registry for the SQL engine.

Scalar functions operate on whole numpy arrays (vectorized).  Aggregate
functions receive the column values of one group plus optional distinct flag
and return a scalar; the executor vectorizes common ones (SUM/COUNT/AVG/...)
via grouped kernels and only falls back to the per-group path for the rest.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ...errors import SQLAnalysisError

ScalarFn = Callable[..., np.ndarray]

#: Internal aggregate merging partial ``COUNT`` columns: an *integer* sum,
#: so a count is int64 whichever plan answers it (user-visible ``SUM`` is
#: float by contract).  Only the partial-aggregate rewrites in :mod:`.cbo`
#: and :mod:`.scatter` emit it; the ``$`` is a character the lexer rejects,
#: so no SQL text can name it.
COUNT_MERGE = "$SUM_COUNTS"

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


def aggregate_grouped(
    name: str,
    values: np.ndarray | None,
    group_ids: np.ndarray,
    n_groups: int,
    distinct: bool = False,
) -> np.ndarray:
    """Vectorized grouped aggregation.

    ``values`` is ``None`` only for ``COUNT(*)``.  ``group_ids`` are dense
    group indices in ``[0, n_groups)``.
    """
    if name == "COUNT":
        if values is None:
            return np.bincount(group_ids, minlength=n_groups).astype(np.int64)
        if distinct:
            out = np.zeros(n_groups, dtype=np.int64)
            seen: dict[int, set] = {}
            for gid, val in zip(group_ids.tolist(), values.tolist()):
                seen.setdefault(gid, set()).add(val)
            for gid, vals in seen.items():
                out[gid] = len(vals)
            return out
        return np.bincount(group_ids, minlength=n_groups).astype(np.int64)
    if values is None:
        raise SQLAnalysisError(f"{name} requires an argument")
    if distinct:
        raise SQLAnalysisError(f"DISTINCT is only supported inside COUNT, not {name}")
    if name == COUNT_MERGE:
        out = np.zeros(n_groups, dtype=np.int64)
        np.add.at(out, group_ids, np.asarray(values, dtype=np.int64))
        return out
    numeric = _as_float(values)
    if name == "SUM":
        # bincount returns int64 on empty input even with float weights.
        return np.bincount(
            group_ids, weights=numeric, minlength=n_groups
        ).astype(np.float64)
    if name == "AVG":
        totals = np.bincount(group_ids, weights=numeric, minlength=n_groups)
        counts = np.bincount(group_ids, minlength=n_groups)
        return totals / np.maximum(counts, 1)
    if name in ("MIN", "MAX"):
        sentinel = np.inf if name == "MIN" else -np.inf
        out = np.full(n_groups, sentinel)
        if name == "MIN":
            np.minimum.at(out, group_ids, numeric)
        else:
            np.maximum.at(out, group_ids, numeric)
        # Zero only the genuinely empty groups — a group whose true
        # extremum is ±inf (e.g. an infinite PSI) must keep it.
        out[np.bincount(group_ids, minlength=n_groups) == 0] = 0.0
        return out
    if name == "MEDIAN":
        out = np.zeros(n_groups)
        order = np.argsort(group_ids, kind="mergesort")
        sorted_ids = group_ids[order]
        sorted_vals = numeric[order]
        boundaries = np.flatnonzero(np.diff(sorted_ids)) + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [len(sorted_ids)]])
        for lo, hi in zip(starts.tolist(), ends.tolist()):
            if hi > lo:
                out[sorted_ids[lo]] = np.median(sorted_vals[lo:hi])
        return out
    if name in ("STDDEV", "VARIANCE"):
        counts = np.bincount(group_ids, minlength=n_groups)
        totals = np.bincount(group_ids, weights=numeric, minlength=n_groups)
        sq = np.bincount(group_ids, weights=numeric * numeric, minlength=n_groups)
        denom = np.maximum(counts, 1)
        mean = totals / denom
        var = np.maximum(sq / denom - mean * mean, 0.0)
        return np.sqrt(var) if name == "STDDEV" else var
    raise SQLAnalysisError(f"unknown aggregate function {name}")
