"""End-to-end benchmark of the churn platform: one command, five workloads.

One workload (what ``BENCHMARK.json`` declares and its driver calls)::

    python3 benchmarks/e2e/run.py --workload sql_analytics --seed 7 \\
        --seconds 10 --trace 0

prints the workload's detail and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.

Every workload, each in its own subprocess, untraced then traced::

    python3 benchmarks/e2e/run.py                 # prints every metric
    python3 benchmarks/e2e/run.py --selfcheck     # two sets of runs, side by side

See ``README.md`` beside this file for why each workload exists and how
to read the output.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import subprocess
import sys
import time

import harness
from harness import BenchmarkSpec, HarnessError, Ops, RunConfig, Tracer

WORKLOADS = (
    "batch_window",
    "sql_analytics",
    "sharded_sql",
    "ingest_write",
    "serve_load",
)


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------


def run_workload(cfg: RunConfig, spec: BenchmarkSpec) -> tuple[dict, list[str], Tracer]:
    """Run one workload; returns ``(result, notes, tracer)``.

    ``result`` is the contract's result object.  Both runs measure for
    ``cfg.seconds``; the traced run alternates untraced rounds (the base
    of ``bench.tracing_overhead_ratio``) with traced ones, then runs the
    workload's layer probes.
    """
    harness.add_src_to_path()
    module = importlib.import_module(f"workloads.{cfg.workload}")
    ops = Ops()
    tracer = Tracer(cfg.workload, enabled=cfg.trace)

    with tracer.span("bench.setup"):
        state, setup_s = harness.repeat_setup(cfg, lambda: module.setup(cfg, tracer))

    with tracer.span("bench.measure"):
        measured = module.measure(state, cfg, tracer, ops, cfg.seconds)
    notes = measured.notes
    if not cfg.trace:
        values = dict(measured.metrics)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = harness.peak_rss_mib(
            include_children=getattr(module, "COUNTS_CHILDREN", False)
        )
        values["ok_share"] = ops.ok_share
        declared = spec.end_to_end
        missing = sorted(set(declared) - set(values))
        if missing:
            raise HarnessError(f"{cfg.workload} did not report {missing}")
    else:
        with tracer.span("bench.probes"):
            values = module.layers(state, cfg, tracer, ops, measured)
        # A probe that stops emitting its metric must not read as an idle layer.
        if set(values) != module.LAYER_METRICS:
            raise HarnessError(
                f"{cfg.workload} layers() and LAYER_METRICS differ on "
                f"{sorted(set(values) ^ module.LAYER_METRICS)}"
            )
        base, traced = harness.split_walls(tracer, measured.walls)
        values["bench.tracing_overhead_ratio"] = traced / base - 1.0
        declared = spec.per_layer
        # Only a layer this workload never enters reads 0: the "none" cell
        # of the layer-by-workload map.
        values = {name: 0.0 for name in declared} | values
        notes = notes + _layer_share_notes(tracer)

    undeclared = sorted(set(values) - set(declared))
    if undeclared:
        raise HarnessError(f"{cfg.workload} reported undeclared {undeclared}")
    result = {
        "correct": ops.correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": declared[name].unit}
            for name in declared
        },
    }
    notes = notes + [f"FAILED: {reason}" for reason in ops.failures]
    return result, notes, tracer


def _layer_share_notes(tracer: Tracer) -> list[str]:
    rows = harness.layer_shares(tracer, under=harness.ROUND_SPAN)
    lines = ["layer share of the traced rounds (self time of bench-side spans):"]
    lines += [f"  {layer:<20s} {secs:9.3f} s  {share:6.1%}" for layer, secs, share in rows]
    return lines


def _write_trace(cfg: RunConfig, stamp: dict, result: dict, tracer: Tracer) -> str:
    harness.OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    path = harness.OUTPUT_DIR / f"trace-{cfg.workload}-seed{cfg.seed}.json"
    doc = {"meta": stamp, "result": result, "spans": tracer.export()}
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return str(path.relative_to(harness.REPO_ROOT))


def _print_metrics(result: dict, zeros: bool) -> None:
    for name, metric in result["metrics"].items():
        if zeros or metric["value"] != 0.0:
            print(f"  {name:<58s} {metric['value']:>16.6g} {metric['unit']}")


def main_single(cfg: RunConfig) -> int:
    spec = BenchmarkSpec.load()
    if cfg.workload not in spec.workloads:
        raise HarnessError(f"unknown workload {cfg.workload!r}")
    stamp = harness.environment_stamp()
    stamp.update(
        workload=cfg.workload,
        seed=cfg.seed,
        seconds=cfg.seconds,
        trace=cfg.trace,
        smoke=cfg.smoke,
        population=cfg.population,
    )
    result, notes, tracer = run_workload(cfg, spec)
    print("meta " + json.dumps(stamp, sort_keys=True))
    for line in notes:
        print(line)
    if cfg.trace:
        print(f"spans written to {_write_trace(cfg, stamp, result, tracer)}")
    _print_metrics(result, zeros=not cfg.trace)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# Every workload, each in its own subprocess
# ----------------------------------------------------------------------


def _child(workload: str, args, trace: int, seed: int | None = None) -> dict:
    """Run one workload in a fresh interpreter and pass its output through."""
    command = [
        sys.executable,
        __file__,
        "--workload", workload,
        "--seed", str(args.seed if seed is None else seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.population is not None:
        command += ["--population", str(args.population)]
    print(f"\n=== {workload} (trace {trace}) ===", flush=True)
    proc = subprocess.run(command, capture_output=True, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise HarnessError(
            f"{workload} (trace {trace}) exited {proc.returncode} without a result"
        ) from None
    result["exit_code"] = proc.returncode
    return result


def run_set(args) -> dict[str, dict]:
    """One full set: every workload untraced, then traced."""
    return {
        workload: {
            "end_to_end": _child(workload, args, trace=0),
            "per_layer": _child(workload, args, trace=1),
        }
        for workload in WORKLOADS
    }


def _set_ok(results: dict[str, dict]) -> bool:
    return all(
        run["correct"] and run["exit_code"] == 0
        for pair in results.values()
        for run in pair.values()
    )


def main_all(args) -> int:
    results = run_set(args)
    summary = {
        "meta": harness.environment_stamp(),
        "seed": args.seed,
        "seconds": args.seconds,
        "correct": _set_ok(results),
        "workloads": results,
        # This benchmark defines the baseline; it compares nothing.
        "claim": None,
    }
    print("\n=== summary ===")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def _selfcheck_set(args) -> dict[str, dict[str, list[float]]]:
    """Every end-to-end metric of every workload over ``args.selfcheck_runs`` seeds."""
    values: dict[str, dict[str, list[float]]] = {}
    for workload in WORKLOADS:
        runs = [
            _child(workload, args, trace=0, seed=args.seed + offset)
            for offset in range(args.selfcheck_runs)
        ]
        if not all(r["correct"] and r["exit_code"] == 0 for r in runs):
            raise HarnessError(f"{workload} failed during the selfcheck")
        values[workload] = {
            name: [r["metrics"][name]["value"] for r in runs]
            for name in runs[0]["metrics"]
        }
    return values


def _spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main_selfcheck(args) -> int:
    """Two sets of runs of the same tree, beside their bounds.

    A set is ``--selfcheck-runs`` runs per workload, one seed each, the
    same seeds in both sets (ten reproduces the check ``BENCHMARK.json``'s
    driver makes).  A metric is ``unresolved`` when the medians of the two
    sets differ by more than its bound, or when its spread over the seeds
    of a set exceeds the bound (``setup_s`` excepted, as the driver does):
    the benchmark cannot tell a change of that size from noise, so it must
    not be reported as ``unchanged``.
    """
    spec = BenchmarkSpec.load()
    first, second = _selfcheck_set(args), _selfcheck_set(args)
    print(
        f"\n=== selfcheck: two sets of the same code, "
        f"{args.selfcheck_runs} seeds each ==="
    )
    print(
        f"{'workload':<14s} {'metric':<28s} {'set 1':>12s} {'set 2':>12s} "
        f"{'apart':>8s} {'spread':>8s} {'bound':>7s}  status"
    )
    unresolved = 0
    for workload in WORKLOADS:
        for name, metric in spec.end_to_end.items():
            a = statistics.median(first[workload][name])
            b = statistics.median(second[workload][name])
            apart = abs(a - b) / statistics.median([a, b])
            spread = max(_spread(first[workload][name]), _spread(second[workload][name]))
            resolved = apart <= metric.bound and (
                spread <= metric.bound or name == "setup_s"
            )
            unresolved += not resolved
            print(
                f"{workload:<14s} {name:<28s} {a:>12.5g} {b:>12.5g} {apart:>8.2%} "
                f"{spread:>8.2%} {metric.bound:>7.1%}  "
                f"{'unchanged' if resolved else 'unresolved'}"
            )
    print(json.dumps({"correct": True, "unresolved": unresolved, "claim": None}))
    return 0 if unresolved == 0 else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes for the harness tests"
    )
    parser.add_argument(
        "--population",
        type=int,
        default=None,
        help="override the recorded population (e.g. 200000); "
        "results are then outside the recorded set",
    )
    parser.add_argument(
        "--selfcheck", action="store_true", help="run two full sets and compare"
    )
    parser.add_argument(
        "--selfcheck-runs",
        type=int,
        default=5,
        help="runs (seeds) per workload in each set of --selfcheck, at least 2",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    harness.scrub_environment()
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(BenchmarkSpec.load().run_seconds)
    if args.workload is not None:
        cfg = RunConfig(
            workload=args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            smoke=args.smoke,
            population=args.population,
        )
        return main_single(cfg)
    started = time.perf_counter()
    code = main_selfcheck(args) if args.selfcheck else main_all(args)
    print(f"total {time.perf_counter() - started:.0f} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
