"""Model persistence for the monthly retrain cycle.

The deployed system retrains every month and serves the previous model
until the new one is validated; that requires storing models.  A random
forest is stored as what it is in memory: its
:class:`~repro.ml.tree.NodeTable` arrays, its summed Eq. 7 importances and
its config, as npz bytes (the same codec family the platform's tables
use), so a fitted model can live in the block store next to the feature
tables that produced it
(:meth:`~repro.serve.registry.ModelRegistry.publish_durable` writes it
there).  The member count does not depend on the tree count, and loading
checks the table's layout instead of trusting it.
"""

from __future__ import annotations

import io
import zipfile

import numpy as np

from ..errors import ModelError, NotFittedError
from .forest import RandomForestClassifier
from .tree import NodeTable

#: Format marker stored with every serialized model.
_MAGIC = "repro-rf-v2"

#: The stored node-table arrays, in :class:`NodeTable` constructor order.
_TABLE = ("feature", "threshold", "child", "value", "roots")


def forest_to_bytes(forest: RandomForestClassifier) -> bytes:
    """Serialize a fitted forest to npz bytes."""
    table, importances = forest._table, forest._importances
    if table is None or importances is None:
        raise NotFittedError("cannot serialize an unfitted forest")
    buf = io.BytesIO()
    np.savez(
        buf,
        __magic__=np.asarray([_MAGIC], dtype=str),
        __config__=np.asarray(
            [
                forest.n_trees,
                forest.min_samples_leaf,
                forest.max_depth,
                forest.seed,
                table.n_features,
            ],
            dtype=np.int64,
        ),
        importances=importances,
        **{name: getattr(table, name) for name in _TABLE},
    )
    return buf.getvalue()


def forest_from_bytes(payload: bytes) -> RandomForestClassifier:
    """Inverse of :func:`forest_to_bytes` — a predict-ready forest.

    Raises ``ModelError`` for bytes that are not a well-formed
    ``repro-rf-v2`` forest, whatever is wrong with them.
    """
    try:
        loaded = np.load(io.BytesIO(payload), allow_pickle=False)
        if not isinstance(loaded, np.lib.npyio.NpzFile):
            raise ModelError("model payload is a bare array, not an npz archive")
        with loaded as npz:
            arrays = {name: npz[name] for name in npz.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ModelError(f"unreadable model payload: {exc}") from exc
    marker = arrays.get("__magic__", np.asarray([]))
    if marker.tolist() != [_MAGIC]:
        raise ModelError(f"not a {_MAGIC} forest (marker {marker.tolist()!r})")
    missing = {"__config__", "importances", *_TABLE} - arrays.keys()
    if missing:
        raise ModelError(f"model payload lacks {sorted(missing)}")
    config = arrays["__config__"]
    if config.dtype != np.int64 or config.shape != (5,):
        raise ModelError(f"bad model config {config!r}")
    n_trees, min_leaf, max_depth, seed, n_features = (int(v) for v in config)
    table = NodeTable(*(arrays[name] for name in _TABLE), n_features)
    if len(table.roots) != n_trees:
        raise ModelError(
            f"config says {n_trees} trees, node table holds {len(table.roots)}"
        )
    importances = arrays["importances"]
    if importances.dtype != np.float64 or importances.shape != (n_features,):
        raise ModelError(
            f"importances must be {n_features} float64 values, "
            f"got {importances.shape} {importances.dtype}"
        )
    forest = RandomForestClassifier(
        n_trees=n_trees,
        min_samples_leaf=min_leaf,
        max_depth=max_depth,
        seed=seed,
    )
    forest._table = table
    forest._importances = importances
    return forest
