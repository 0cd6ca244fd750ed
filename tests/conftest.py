"""Shared fixtures.

World simulation is the expensive part, so worlds are session-scoped and
shared read-only across test modules.  ``tiny_world`` is for structural
checks (fast); ``small_world`` for statistical/learning checks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ModelConfig, ScaleConfig
from repro.datagen import TelcoSimulator
from repro.dataplat import executor, observability
from repro.features import WideTableBuilder


TINY_SCALE = ScaleConfig(population=600, months=9, seed=11)
SMALL_SCALE = ScaleConfig(population=1500, months=9, seed=7)
SMALL_MODEL = ModelConfig(n_trees=12, min_samples_leaf=15, max_depth=10)


@pytest.fixture(scope="session")
def tiny_scale() -> ScaleConfig:
    return TINY_SCALE


@pytest.fixture(scope="session")
def small_scale() -> ScaleConfig:
    return SMALL_SCALE


@pytest.fixture(scope="session")
def small_model() -> ModelConfig:
    return SMALL_MODEL


@pytest.fixture(scope="session")
def tiny_world():
    return TelcoSimulator(TINY_SCALE).run()


@pytest.fixture(scope="session")
def small_world():
    return TelcoSimulator(SMALL_SCALE).run()


@pytest.fixture(scope="session")
def small_builder(small_world) -> WideTableBuilder:
    return WideTableBuilder(small_world)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


class SpanCapture:
    """Assertion helpers over one test's trace and metrics.

    Wraps the tracer/registry installed by the ``capture_spans`` fixture;
    tests assert on span structure via :meth:`assert_span` and on metric
    counters via :meth:`counter` without touching process-wide state.
    """

    def __init__(
        self, tracer: observability.Tracer, metrics: observability.MetricsRegistry
    ) -> None:
        self.tracer = tracer
        self.metrics = metrics

    @property
    def roots(self):
        return self.tracer.roots

    def names(self) -> list[str]:
        """Every span name in document order (repeats included)."""
        return [s.name for s in self.tracer.iter_spans()]

    def find(self, name: str):
        return self.tracer.find(name)

    def assert_span(self, name: str, **tags) -> observability.Span:
        """The first span named ``name`` whose tags include ``tags``."""
        candidates = self.find(name)
        for span in candidates:
            if all(span.tags.get(k) == v for k, v in tags.items()):
                return span
        raise AssertionError(
            f"no span {name!r} with tags {tags}; "
            f"have {[(s.name, s.tags) for s in candidates] or self.names()}"
        )

    def counter(self, name: str) -> float:
        """Current value of a metrics-registry counter (0 if never touched)."""
        return self.metrics.counter(name).value


@pytest.fixture()
def capture_spans():
    """Install a fresh tracer + metrics registry; restore on teardown.

    Yields a :class:`SpanCapture`, so tests can exercise traced code paths
    and assert on the resulting span tree and counters in isolation.
    """
    tracer = observability.Tracer()
    previous_tracer = observability.set_tracer(tracer)
    previous_metrics = observability.set_metrics(observability.MetricsRegistry())
    try:
        yield SpanCapture(tracer, observability.get_metrics())
    finally:
        observability.set_tracer(previous_tracer)
        observability.set_metrics(previous_metrics)


@pytest.fixture()
def use_backend():
    """Select the process-wide default backend for one test.

    Entry points never pass a backend to a pipeline, predictor, forest or
    wide-table builder: each fan-out resolves the process default.  A test
    picks it with ``use_backend(spec)`` (an instance, ``"serial"`` or
    ``"process"``), which returns the backend; the previous default comes
    back on teardown.
    """
    previous = executor.get_default_backend()

    def use(spec):
        backend = executor.resolve_backend(spec)
        executor.set_default_backend(backend)
        return backend

    try:
        yield use
    finally:
        executor.set_default_backend(previous)
