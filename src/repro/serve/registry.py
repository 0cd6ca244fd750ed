"""Versioned model registry with atomic, no-downtime swaps.

The registry holds fitted scoring models (anything with a vectorized
``predict_proba``) keyed by version string.  :meth:`ModelRegistry.activate`
replaces the active model with a single reference assignment, so an
in-flight batch that captured ``(version, model)`` before the swap keeps
scoring against the old model while the next batch picks up the new one —
no downtime, and never a mixed-version response.

Swaps notify subscribers (the :class:`~repro.serve.service.ScoringService`
uses this to drop memoized per-customer scores, which are only valid for
the model that produced them) and bump the ``serve.model_swaps`` counter.
A swap whose loader fails on storage falls back to the stale model —
serving a slightly old score beats serving none — recorded by the
``serve.model_swap_failures`` counter the watchtower rules alert on.
"""

from __future__ import annotations

from collections.abc import Callable

from ..dataplat.observability import get_metrics, span
from ..errors import ServeError, StorageError, TransientError
from ..ml.persistence import forest_from_bytes, forest_to_bytes


def model_path(version: str) -> str:
    """Where :meth:`ModelRegistry.publish_durable` stores ``version`` in
    the block store."""
    return f"/models/serve/{version}.npz"


class ModelRegistry:
    """In-memory model versions plus an atomically swappable active slot."""

    def __init__(self) -> None:
        self._models: dict[str, object] = {}
        self._current: tuple[str, object] | None = None
        self._subscribers: list[Callable[[str], None]] = []
        self._swaps = 0

    @property
    def versions(self) -> tuple[str, ...]:
        return tuple(self._models)

    @property
    def active_version(self) -> str | None:
        return self._current[0] if self._current is not None else None

    @property
    def swaps(self) -> int:
        return self._swaps

    def subscribe(self, callback: Callable[[str], None]) -> None:
        """Register a callback invoked with the new version after a swap."""
        self._subscribers.append(callback)

    def publish(
        self, version: str, model, *, activate: bool = False
    ) -> None:
        """Register ``model`` under ``version`` (optionally activating it)."""
        if not version:
            raise ServeError("model version must be non-empty")
        if version in self._models:
            raise ServeError(f"model version {version!r} already published")
        if not callable(getattr(model, "predict_proba", None)):
            raise ServeError(
                f"model for version {version!r} has no predict_proba"
            )
        self._models[version] = model
        if activate:
            self.activate(version)

    def publish_durable(self, catalog, version: str, forest) -> None:
        """Publish a random forest and persist its bytes to the block store.

        The payload lands at :func:`model_path` on the same replicated
        storage as the feature tables, so another process can
        :meth:`activate_from_store` the version.
        """
        catalog.store.write(model_path(version), forest_to_bytes(forest))
        self.publish(version, forest)

    def activate(
        self,
        version: str,
        loader: Callable[[], object] | None = None,
    ) -> bool:
        """Make ``version`` the active model; returns ``True`` on success.

        With ``loader``, the model object is (re)loaded first — e.g. read
        from the block store — and a transient/storage failure leaves the
        previously active model serving (*stale-model fallback*), bumps
        ``serve.model_swap_failures`` and returns ``False`` instead of
        raising: mid-traffic, a failed swap must degrade, not crash.
        """
        metrics = get_metrics()
        with span("serve.model_swap", version=version) as sp:
            if loader is not None:
                try:
                    model = loader()
                except (TransientError, StorageError):
                    metrics.counter("serve.model_swap_failures").inc()
                    sp.set_tag("outcome", "stale-fallback")
                    return False
                if not callable(getattr(model, "predict_proba", None)):
                    raise ServeError(
                        f"loaded model for {version!r} has no predict_proba"
                    )
                self._models[version] = model
            else:
                model = self._models.get(version)
                if model is None:
                    raise ServeError(f"unknown model version {version!r}")
            self._current = (version, model)
            self._swaps += 1
            metrics.counter("serve.model_swaps").inc()
            sp.set_tag("outcome", "swapped")
        for callback in list(self._subscribers):
            callback(version)
        return True

    def activate_from_store(self, catalog, version: str) -> bool:
        """Activate ``version`` by loading its persisted bytes.

        Bytes that are not a well-formed forest raise ``ModelError`` and
        leave the active model serving.
        """
        return self.activate(
            version,
            loader=lambda: forest_from_bytes(
                catalog.store.read(model_path(version))
            ),
        )

    def current(self) -> tuple[str, object]:
        """The active ``(version, model)`` pair, atomically read."""
        current = self._current
        if current is None:
            raise ServeError("no active model; call activate() first")
        return current
