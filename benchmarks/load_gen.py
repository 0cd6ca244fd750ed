"""Deterministic load generator CLI for the online scoring service.

Builds a synthetic feature snapshot, trains a compact forest, and drives
a seeded open-loop arrival process through the
:class:`~repro.serve.service.ScoringService`, printing the resulting
:class:`~repro.serve.loadgen.LoadReport` (or JSON with ``--json``).  The
``serve-soak`` CI job runs it longer than the tests do, and the gated
serve numbers are the ``serve_load`` workload of ``benchmarks/e2e/run.py``
(which builds its service the same way)::

    python benchmarks/load_gen.py --population 5000 --rate 6000 --duration 2

Logical arrival times come from the seeded plan; *service* time per
batch is measured wall-clock around the feature fetch + vectorized
predict (:class:`MeasuredServiceTime`), so the reported p50/p99 reflect
real model latency under the configured batch window while the request
sequence stays reproducible.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.features.spec import FeatureMatrix
from repro.ml.forest import RandomForestClassifier
from repro.serve import (
    FeatureStore,
    LoadProfile,
    ModelRegistry,
    ScoringService,
    ServeConfig,
    arrival_plan,
    drive,
)


def build_service(
    population: int,
    n_features: int = 20,
    seed: int = 0,
    config: ServeConfig | None = None,
    service_time=None,
    buckets: int = 8,
) -> tuple[ScoringService, FeatureStore, np.ndarray]:
    """A served snapshot + trained model over a synthetic population."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(population, n_features))
    imsi = (100_000 + np.arange(population)).astype(np.int64)
    matrix = FeatureMatrix(
        imsi=imsi,
        names=[f"f{i}" for i in range(n_features)],
        values=values,
    )
    store = FeatureStore()
    store.materialize(matrix, "bench", buckets=buckets)
    train_n = min(population, 2000)
    y = (
        values[:train_n, 0] + 0.3 * rng.normal(size=train_n) > 0
    ).astype(np.int64)
    forest = RandomForestClassifier(
        n_trees=8, max_depth=8, min_samples_leaf=20, seed=seed
    ).fit(values[:train_n], y)
    registry = ModelRegistry()
    registry.publish("bench-v1", forest, activate=True)
    service = ScoringService(
        store,
        registry,
        config if config is not None else ServeConfig(),
        service_time=service_time,
    )
    return service, store, imsi


def run_load(
    population: int = 5000,
    rate_rps: float = 6000.0,
    duration_s: float = 2.0,
    seed: int = 7,
    batch_window_s: float = 0.005,
    max_batch: int = 64,
    max_queue_depth: int = 1024,
) -> dict:
    """One load run; returns the report as a flat dict (``--json`` prints it)."""
    config = ServeConfig(
        max_batch=max_batch,
        batch_window_s=batch_window_s,
        max_queue_depth=max_queue_depth,
        default_deadline_s=0.250,
    )
    service, _, imsi = build_service(population, seed=seed, config=config)
    profile = LoadProfile(
        rate_rps=rate_rps,
        duration_s=duration_s,
        population=population,
        seed=seed,
    )
    report = drive(service, arrival_plan(profile, customer_ids=imsi))
    assert report.unaccounted == 0, "request lost without a terminal outcome"
    return {
        "requests": report.submitted,
        "scored": report.scored,
        "shed": report.shed,
        "expired": report.expired,
        "failed": report.failed,
        "wall_s": report.wall_s,
        "throughput_rps": report.throughput_rps,
        "p50_ms": report.p50_s * 1e3,
        "p99_ms": report.p99_s * 1e3,
        "mean_batch_size": report.mean_batch_size,
        "max_queue_depth": report.max_queue_depth,
        "batch_window_ms": batch_window_s * 1e3,
        "offered_rate_rps": rate_rps,
        "population": population,
        "floor": {"throughput_rps": 5000.0, "p99_ms": 50.0},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--population", type=int, default=5000)
    parser.add_argument("--rate", type=float, default=6000.0)
    parser.add_argument("--duration", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--window-ms", type=float, default=5.0)
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument("--json", action="store_true", help="emit JSON")
    args = parser.parse_args(argv)

    section = run_load(
        population=args.population,
        rate_rps=args.rate,
        duration_s=args.duration,
        seed=args.seed,
        batch_window_s=args.window_ms / 1e3,
        max_batch=args.max_batch,
    )
    if args.json:
        print(json.dumps(section, indent=2))
    else:
        print(
            f"serve load: {section['requests']} requests at "
            f"{section['offered_rate_rps']:,.0f} req/s offered"
        )
        print(
            f"  throughput {section['throughput_rps']:,.0f} req/s, "
            f"p50 {section['p50_ms']:.2f} ms, p99 {section['p99_ms']:.2f} ms"
        )
        print(
            f"  scored {section['scored']}, shed {section['shed']}, "
            f"expired {section['expired']}, failed {section['failed']}, "
            f"mean batch {section['mean_batch_size']:.1f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
