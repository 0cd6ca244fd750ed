"""Render a JSON trace export as a tree plus a per-span-name summary.

Works on anything :meth:`repro.dataplat.observability.Tracer.to_json`
writes (e.g. ``REPRO_TRACE=trace.json python examples/quickstart.py``)::

    python scripts/trace_report.py trace.json [--depth N] [--top K]

The tree view shows nesting, wall/CPU time, tags and counters per span;
the summary aggregates total and *self* wall time by span name (self =
wall minus direct children), which answers both the stage budget question
("how much time went under feature.F5?") and the hot-spot question
("where is that time actually spent?") directly.

A SQL statement shows up as one ``sql.*`` span per plan operator, tagged
with ``est_rows`` and counting actual ``rows``; the storage counters of
its reads (``bytes_decoded``, ``cache_hits``, ``chunks_skipped``, ...)
sit on the ``catalog.scan`` spans below.  ``EXPLAIN ANALYZE`` renders the
same record per plan line.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.dataplat.observability import Span


def _format_tags(span: Span) -> str:
    parts = []
    if span.tags:
        parts.append(
            " ".join(f"{k}={v}" for k, v in sorted(span.tags.items()))
        )
    if span.counters:
        parts.append(
            " ".join(f"{k}:{v:g}" for k, v in sorted(span.counters.items()))
        )
    if span.status != "ok":
        parts.append(f"status={span.status}")
    return f"  [{' | '.join(parts)}]" if parts else ""


def render_tree(span: Span, depth: int, max_depth: int | None) -> list[str]:
    if max_depth is not None and depth > max_depth:
        return []
    indent = "  " * depth
    lines = [
        f"{indent}{span.name}  wall={span.wall_s * 1e3:.2f}ms "
        f"cpu={span.cpu_s * 1e3:.2f}ms{_format_tags(span)}"
    ]
    for child in span.children:
        lines.extend(render_tree(child, depth + 1, max_depth))
    return lines


def render_summary(roots: list[Span], top: int) -> list[str]:
    """Aggregate wall/CPU/self time by span name, wall-time descending.

    *self* is the span's wall time minus its direct children's — the time
    spent in the span's own code.  A stage whose total is large but whose
    self is small is just a wrapper; optimization effort belongs where
    self time concentrates.
    """
    totals: dict[str, dict[str, float]] = {}

    def visit(span: Span) -> None:
        bucket = totals.setdefault(
            span.name, {"count": 0, "wall_s": 0.0, "cpu_s": 0.0, "self_s": 0.0}
        )
        bucket["count"] += 1
        bucket["wall_s"] += span.wall_s
        bucket["cpu_s"] += span.cpu_s
        bucket["self_s"] += max(
            span.wall_s - sum(c.wall_s for c in span.children), 0.0
        )
        for child in span.children:
            visit(child)

    for root in roots:
        visit(root)
    ranked = sorted(totals.items(), key=lambda kv: kv[1]["wall_s"], reverse=True)
    width = max((len(name) for name, _ in ranked[:top]), default=4)
    lines = [
        f"{'span':<{width}}  {'count':>6}  {'wall':>10}  {'self':>10}  "
        f"{'cpu':>10}"
    ]
    for name, agg in ranked[:top]:
        lines.append(
            f"{name:<{width}}  {agg['count']:>6.0f}  "
            f"{agg['wall_s'] * 1e3:>8.2f}ms  {agg['self_s'] * 1e3:>8.2f}ms  "
            f"{agg['cpu_s'] * 1e3:>8.2f}ms"
        )
    return lines


def render_shards(roots: list[Span]) -> list[str]:
    """Per-shard wall/self rollup over spans tagged ``shard=N``.

    A span carrying a ``shard`` tag (e.g. the ``shard.execute`` /
    ``shard.widetable`` roots the scatter-gather paths emit) claims its
    whole subtree for that shard; *wall* accumulates only at those entry
    spans (so nested spans are not double-counted) while *self* sums every
    attributed span's own time.  The closing skew line is the point of the
    report: a max/mean wall ratio well above 1 means the gather is waiting
    on one hot shard.  Returns no lines when the trace has no shard tags,
    so unsharded traces render exactly as before.
    """
    buckets: dict[object, dict[str, float]] = {}

    def visit(span: Span, inherited) -> None:
        tag = span.tags.get("shard", inherited) if span.tags else inherited
        if tag is not None:
            bucket = buckets.setdefault(
                tag, {"spans": 0, "wall_s": 0.0, "self_s": 0.0}
            )
            bucket["spans"] += 1
            if tag != inherited:
                bucket["wall_s"] += span.wall_s
            bucket["self_s"] += max(
                span.wall_s - sum(c.wall_s for c in span.children), 0.0
            )
        for child in span.children:
            visit(child, tag)

    for root in roots:
        visit(root, None)
    if not buckets:
        return []

    def order(key):
        if isinstance(key, (int, float)):
            return (0, key, "")
        return (1, 0, str(key))

    lines = [f"{'shard':>5}  {'spans':>6}  {'wall':>10}  {'self':>10}"]
    for key in sorted(buckets, key=order):
        agg = buckets[key]
        lines.append(
            f"{key!s:>5}  {agg['spans']:>6.0f}  "
            f"{agg['wall_s'] * 1e3:>8.2f}ms  {agg['self_s'] * 1e3:>8.2f}ms"
        )
    walls = [b["wall_s"] for b in buckets.values()]
    mean = sum(walls) / len(walls)
    if mean > 0:
        lines.append(f"skew: max/mean wall = {max(walls) / mean:.2f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", type=pathlib.Path, help="trace JSON file")
    parser.add_argument(
        "--depth", type=int, default=None, help="max tree depth to print"
    )
    parser.add_argument(
        "--top", type=int, default=15, help="summary rows to print"
    )
    args = parser.parse_args(argv)

    data = json.loads(args.trace.read_text())
    roots = [Span.from_dict(d) for d in data.get("spans", [])]
    if not roots:
        print("trace contains no spans")
        return 1

    print("== trace tree ==")
    for root in roots:
        for line in render_tree(root, 0, args.depth):
            print(line)
    print()
    print("== summary (by span name, wall-time descending) ==")
    for line in render_summary(roots, args.top):
        print(line)
    shard_lines = render_shards(roots)
    if shard_lines:
        print()
        print("== shards (scatter-gather rollup) ==")
        for line in shard_lines:
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
