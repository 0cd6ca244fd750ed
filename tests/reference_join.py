"""The dict-bucket equi-join, kept as the oracle for the vectorized join.

Python tuples in a dict of buckets: slow and obviously right, which is
what an oracle should be.  Equality is Python's, so NaN keys (distinct
float objects) never match and a string never equals a number.  The
library join must return the same pairs, in the same order, and the same
unmatched left rows.  Tests only — nothing under ``src/`` imports it.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np


def key_ids(table, on: Sequence[str]) -> list:
    """Row keys for join hashing."""
    arrays = [table.column(n) for n in on]
    if len(arrays) == 1:
        return arrays[0].tolist()
    return list(zip(*(a.tolist() for a in arrays)))


def join_indices_hashed(
    left, right, on: Sequence[str], how: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(left, right, unmatched-left) row indices: pairs ordered by left
    row, ties by right row."""
    buckets: dict[Any, list[int]] = {}
    for idx, key in enumerate(key_ids(right, on)):
        buckets.setdefault(key, []).append(idx)
    left_idx: list[int] = []
    right_idx: list[int] = []
    unmatched: list[int] = []
    for idx, key in enumerate(key_ids(left, on)):
        matches = buckets.get(key)
        if matches:
            left_idx.extend([idx] * len(matches))
            right_idx.extend(matches)
        elif how == "left":
            unmatched.append(idx)
    return (
        np.asarray(left_idx, dtype=np.intp),
        np.asarray(right_idx, dtype=np.intp),
        np.asarray(unmatched, dtype=np.intp),
    )
