"""Record the quality ``batch_window`` must keep, seed by seed.

    python3 benchmarks/e2e/record_quality.py 0 128     # seeds 0..127

Runs the Figure-6 window once per seed on the tree it is called from and
writes AUC and PR-AUC to ``reference/batch_window_quality.json``.  The
untraced ``batch_window`` run fails its oracle when a recorded seed's
PR-AUC falls more than ``PR_AUC_TOLERANCE`` below the value here, so this
is rerun only by a PR that means to move the quality, on its parent first.
"""

from __future__ import annotations

import json
import sys

import harness
from harness import RunConfig, Tracer


def main(argv: list[str]) -> int:
    first, last = int(argv[1]), int(argv[2])
    harness.scrub_environment()
    harness.add_src_to_path()
    from workloads import batch_window

    path = batch_window.QUALITY_PATH
    doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    doc.update(population=batch_window.POPULATION, window=str(batch_window.SPEC))
    seeds = doc.setdefault("seeds", {})
    quiet = Tracer("batch_window", enabled=False)
    for seed in range(first, last):
        cfg = RunConfig("batch_window", seed, seconds=0.0, trace=False)
        _scores, auc, prauc, _counts = batch_window._whole_window(
            batch_window.setup(cfg, quiet)
        )
        seeds[str(seed)] = {"auc": round(auc, 6), "pr_auc": round(prauc, 6)}
        print(f"seed {seed}: AUC {auc:.4f} PR-AUC {prauc:.4f}", flush=True)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
