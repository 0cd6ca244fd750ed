"""Differential SQL fuzzing: seeded query generator + naive reference.

The vectorized executor keeps growing fast paths (factorized DISTINCT,
whole-column LIKE kernels, grouped aggregation) — each one a chance to
silently diverge from SQL semantics.  This module pins them down
differentially: a seeded generator produces random-but-valid queries over
small synthetic tables, each query runs through the full production stack
(parser → planner → optimizer → vectorized executor) *and* through a naive
row-at-a-time interpreter written with none of the vectorized machinery,
and the two row sets must match (sorted, with float tolerance).

Everything is seeded through ``numpy.random.default_rng``, so the same seed
always yields the same query list — a failing seed is a reproducer, not a
flake.  ``tests/test_sql_fuzz.py`` drives this with ≥200 queries per run and
writes the failing query to an artifact file for CI to upload.  Tests only —
nothing under ``src/`` imports it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.dataplat.schema import ColumnType
from repro.dataplat.sql.ast_nodes import (
    Between,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Expr,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    SelectStatement,
    Star,
    UnaryOp,
)
from repro.dataplat.sql.executor import _like_regex
from repro.dataplat.sql.parser import parse
from repro.dataplat.table import Table
from repro.errors import SQLAnalysisError

__all__ = [
    "make_fuzz_tables",
    "generate_queries",
    "reference_query",
    "normalize_rows",
    "rows_equal",
]


# ----------------------------------------------------------------------
# Fuzz corpus tables
# ----------------------------------------------------------------------

#: String vocabulary chosen to exercise every LIKE fast path: empty string,
#: shared prefixes/suffixes, substrings, and underscores in the *data*.
_WORDS = ("alpha", "beta", "gamma", "delta", "alde", "a_pha", "", "betamax")


def make_fuzz_tables(seed: int, num_rows: int = 96) -> dict[str, Table]:
    """Three small tables (``t``, ``u``, ``v``) with int/float/string columns.

    Floats are quarter-integer multiples so sums and averages stay exactly
    representable — the engine and the reference then agree bit-for-bit and
    the comparison tolerance only has to absorb genuine rounding, not
    accumulation-order noise.  ``v`` is the smallest and uses a wider
    ``grp`` range so join-chain keys mix selectivities (``grp`` fans out,
    ``id`` is near-unique); it is drawn *after* ``t`` and ``u`` so their
    contents are unchanged for any fixed seed.
    """
    rng = np.random.default_rng((seed, 0xF022))
    t = Table.from_arrays(
        id=np.arange(num_rows, dtype=np.int64),
        grp=rng.integers(0, 6, size=num_rows),
        val=rng.integers(-12, 13, size=num_rows) * 0.25,
        dur=rng.integers(0, 40, size=num_rows) * 0.25,
        cat=np.asarray(rng.choice(_WORDS, size=num_rows)),
    )
    m = max(num_rows // 2, 4)
    u = Table.from_arrays(
        id=np.arange(m, dtype=np.int64),
        grp=rng.integers(0, 6, size=m),
        val2=rng.integers(-8, 9, size=m) * 0.25,
        cat2=np.asarray(rng.choice(_WORDS, size=m)),
    )
    m2 = max(num_rows // 3, 4)
    v = Table.from_arrays(
        id=np.arange(m2, dtype=np.int64),
        grp=rng.integers(0, 7, size=m2),
        val3=rng.integers(-6, 7, size=m2) * 0.25,
        cat3=np.asarray(rng.choice(_WORDS, size=m2)),
    )
    return {"t": t, "u": u, "v": v}


# ----------------------------------------------------------------------
# Seeded query generator
# ----------------------------------------------------------------------

_NUMERIC_COLS = ("id", "grp", "val", "dur")

#: String column per join-alias qualifier (``t a``, ``u b``, ``v c``).
_QUAL_STRING = {"": "cat", "a.": "cat", "b.": "cat2", "c.": "cat3"}
_LIKE_PATTERNS = (
    "al%",       # prefix fast path
    "%ta",       # suffix fast path
    "%a%",       # substring fast path
    "alpha",     # equality fast path
    "",          # empty equality
    "%",         # match-all
    "a_pha",     # underscore → regex path
    "_eta",      # leading underscore → regex path
    "%m%a%",     # interior % → regex path
    "be%ax",     # interior % → regex path
)


def _gen_numeric_expr(rng, depth: int = 0) -> str:
    """A numeric scalar expression over ``t``'s columns."""
    if depth >= 2 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return str(rng.choice(_NUMERIC_COLS))
        return str(int(rng.integers(-6, 7)))
    op = rng.choice(["+", "-", "*", "/", "%"])
    left = _gen_numeric_expr(rng, depth + 1)
    right = _gen_numeric_expr(rng, depth + 1)
    if op in ("/", "%") and rng.random() < 0.5:
        right = str(int(rng.integers(1, 7)))  # often a safe divisor
    return f"({left} {op} {right})"


def _gen_predicate(rng, depth: int = 0, qualifier: str = "") -> str:
    """A boolean expression; ``qualifier`` prefixes column references."""
    q = qualifier
    if depth < 2 and rng.random() < 0.35:
        op = rng.choice(["AND", "OR"])
        left = _gen_predicate(rng, depth + 1, qualifier)
        right = _gen_predicate(rng, depth + 1, qualifier)
        pred = f"({left} {op} {right})"
        if rng.random() < 0.2:
            pred = f"NOT {pred}"
        return pred
    kind = rng.random()
    if kind < 0.45:
        col = rng.choice(_NUMERIC_COLS if not q else ("id", "grp"))
        cmp_op = rng.choice(["=", "<>", "<", "<=", ">", ">="])
        lit = (
            int(rng.integers(-4, 8))
            if col in ("id", "grp")
            else float(rng.integers(-8, 9)) * 0.25
        )
        return f"{q}{col} {cmp_op} {lit}"
    if kind < 0.65:
        pattern = rng.choice(_LIKE_PATTERNS)
        negated = "NOT " if rng.random() < 0.25 else ""
        col = f"{q}{_QUAL_STRING[q]}"
        return f"{col} {negated}LIKE '{pattern}'"
    if kind < 0.8:
        col = rng.choice(("grp", "id"))
        items = ", ".join(
            str(int(v)) for v in rng.integers(0, 8, size=rng.integers(1, 4))
        )
        negated = "NOT " if rng.random() < 0.25 else ""
        return f"{q}{col} {negated}IN ({items})"
    if kind < 0.95:
        col = rng.choice(_NUMERIC_COLS if not q else ("id", "grp"))
        lo = int(rng.integers(-4, 4))
        hi = lo + int(rng.integers(0, 8))
        negated = "NOT " if rng.random() < 0.2 else ""
        return f"{q}{col} {negated}BETWEEN {lo} AND {hi}"
    col = rng.choice(_NUMERIC_COLS if not q else ("id", "grp"))
    negated = " NOT" if rng.random() < 0.5 else ""
    return f"{q}{col} IS{negated} NULL"


def _alias(items: list[str]) -> list[str]:
    """Unique output aliases (the engine rejects duplicate column names)."""
    return [f"{item} AS c{i}" for i, item in enumerate(items)]


def _gen_plain_query(rng) -> str:
    """SELECT [DISTINCT] exprs FROM t [WHERE ...]."""
    n_items = int(rng.integers(1, 4))
    items = []
    for _ in range(n_items):
        roll = rng.random()
        if roll < 0.45:
            items.append(str(rng.choice(_NUMERIC_COLS + ("cat",))))
        elif roll < 0.8:
            items.append(_gen_numeric_expr(rng))
        else:
            thr = float(rng.integers(-4, 5)) * 0.25
            items.append(
                f"CASE WHEN val > {thr} THEN 1 "
                f"WHEN dur > {thr + 2} THEN 2 ELSE 0 END"
            )
    distinct = "DISTINCT " if rng.random() < 0.35 else ""
    if distinct and rng.random() < 0.4:
        items = [str(rng.choice(("grp", "cat")))]  # low-cardinality DISTINCT
    items = _alias(items)
    sql = f"SELECT {distinct}{', '.join(items)} FROM t"
    if rng.random() < 0.75:
        sql += f" WHERE {_gen_predicate(rng)}"
    return sql


def _gen_group_query(rng) -> str:
    """GROUP BY over one or two keys with a random aggregate mix."""
    keys = ["grp"] if rng.random() < 0.6 else ["grp", "cat"]
    if rng.random() < 0.25:
        keys = ["cat"]
    aggs = []
    for _ in range(int(rng.integers(1, 4))):
        roll = rng.random()
        if roll < 0.25:
            aggs.append("COUNT(*)")
        elif roll < 0.4:
            aggs.append(f"COUNT(DISTINCT {rng.choice(('cat', 'grp'))})")
        else:
            fn = rng.choice(["SUM", "AVG", "MIN", "MAX"])
            aggs.append(f"{fn}({rng.choice(('val', 'dur', 'id'))})")
    items = _alias(keys + aggs)
    sql = f"SELECT {', '.join(items)} FROM t"
    if rng.random() < 0.6:
        sql += f" WHERE {_gen_predicate(rng)}"
    sql += f" GROUP BY {', '.join(keys)}"
    if rng.random() < 0.3:
        sql += f" HAVING COUNT(*) >= {int(rng.integers(1, 4))}"
    return sql


def _gen_global_agg_query(rng) -> str:
    """Aggregates with no GROUP BY (one output row, even over zero input)."""
    aggs = []
    for _ in range(int(rng.integers(1, 4))):
        fn = rng.choice(["COUNT", "SUM", "AVG", "MIN", "MAX"])
        if fn == "COUNT" and rng.random() < 0.5:
            aggs.append("COUNT(*)")
        else:
            aggs.append(f"{fn}({rng.choice(('val', 'dur', 'id'))})")
    sql = f"SELECT {', '.join(_alias(aggs))} FROM t"
    if rng.random() < 0.7:
        sql += f" WHERE {_gen_predicate(rng)}"
    return sql


def _gen_join_query(rng) -> str:
    """Equi-join, inner or LEFT, optionally with a residual ON conjunct.

    The residual case pins the LEFT JOIN semantics bug class: the residual
    may only filter *matched* rows, never drop the null-extended ones.
    """
    items = []
    for _ in range(int(rng.integers(1, 4))):
        items.append(
            rng.choice(["a.id", "a.val", "a.cat", "b.val2", "b.cat2", "b.id"])
        )
    distinct = "DISTINCT " if rng.random() < 0.25 else ""
    key = rng.choice(["grp", "id"])
    kind = "LEFT JOIN" if rng.random() < 0.4 else "JOIN"
    condition = f"a.{key} = b.{key}"
    if rng.random() < 0.5:
        side = rng.choice(["a.", "b."])
        condition += f" AND {_gen_predicate(rng, depth=1, qualifier=side)}"
    sql = (
        f"SELECT {distinct}{', '.join(_alias(items))} FROM t a "
        f"{kind} u b ON {condition}"
    )
    conjuncts = []
    if rng.random() < 0.6:
        conjuncts.append(_gen_predicate(rng, depth=1, qualifier="a."))
    if rng.random() < 0.6:
        conjuncts.append(_gen_predicate(rng, depth=1, qualifier="b."))
    if conjuncts:
        sql += f" WHERE {' AND '.join(conjuncts)}"
    return sql


def _gen_join_chain_query(rng) -> str:
    """Three-table chains (``t a ⋈ u b ⋈ c``) with mixed key selectivities.

    ``grp`` keys fan out (few distinct values), ``id`` keys are near-unique,
    and the second join may anchor on either earlier table — exactly the
    shapes the cost-based reorderer and aggregate pushdown rewrite, so the
    differential suite pins their result-invariance.
    """
    cols = (
        "a.id", "a.val", "a.cat", "a.dur",
        "b.val2", "b.cat2", "b.id",
        "c.val3", "c.cat3", "c.grp",
    )
    items = [str(rng.choice(cols)) for _ in range(int(rng.integers(2, 6)))]
    distinct = "DISTINCT " if rng.random() < 0.2 else ""
    key1 = str(rng.choice(["grp", "id"]))
    kind1 = "LEFT JOIN" if rng.random() < 0.25 else "JOIN"
    cond1 = f"a.{key1} = b.{key1}"
    if rng.random() < 0.4:
        side = str(rng.choice(["a.", "b."]))
        cond1 += f" AND {_gen_predicate(rng, depth=1, qualifier=side)}"
    anchor = str(rng.choice(["a", "b"]))
    key2 = str(rng.choice(["grp", "id"]))
    kind2 = "LEFT JOIN" if rng.random() < 0.25 else "JOIN"
    cond2 = f"{anchor}.{key2} = c.{key2}"
    if rng.random() < 0.4:
        cond2 += f" AND {_gen_predicate(rng, depth=1, qualifier='c.')}"
    sql = (
        f"SELECT {distinct}{', '.join(_alias(items))} FROM t a "
        f"{kind1} u b ON {cond1} {kind2} v c ON {cond2}"
    )
    conjuncts = []
    if rng.random() < 0.5:
        conjuncts.append(_gen_predicate(rng, depth=1, qualifier="a."))
    if rng.random() < 0.4:
        conjuncts.append(_gen_predicate(rng, depth=1, qualifier="b."))
    if rng.random() < 0.4:
        conjuncts.append(_gen_predicate(rng, depth=1, qualifier="c."))
    if conjuncts:
        sql += f" WHERE {' AND '.join(conjuncts)}"
    return sql


def generate_queries(seed: int, count: int) -> list[str]:
    """``count`` deterministic queries for ``seed`` (same seed, same list)."""
    rng = np.random.default_rng((seed, 0x50F7))
    out = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.34:
            out.append(_gen_plain_query(rng))
        elif roll < 0.62:
            out.append(_gen_group_query(rng))
        elif roll < 0.76:
            out.append(_gen_global_agg_query(rng))
        elif roll < 0.90:
            out.append(_gen_join_query(rng))
        else:
            out.append(_gen_join_chain_query(rng))
    return out


# ----------------------------------------------------------------------
# Naive reference evaluator (row at a time, no numpy kernels)
# ----------------------------------------------------------------------


def _table_rows(table: Table, binding: str) -> list[dict]:
    """Rows as ``{binding.column: python value}`` dicts."""
    names = list(table.schema.names)
    columns = {n: table.column(n).tolist() for n in names}
    return [
        {f"{binding}.{n}": columns[n][i] for n in names}
        for i in range(table.num_rows)
    ]


def _resolve_ref(ref: ColumnRef, row: dict):
    if ref.table is not None:
        key = f"{ref.table}.{ref.name}"
        if key in row:
            return row[key]
        raise SQLAnalysisError(f"unknown column {key!r}")
    matches = [k for k in row if k.endswith(f".{ref.name}")]
    if len(matches) != 1:
        raise SQLAnalysisError(f"cannot resolve column {ref.name!r}: {matches}")
    return row[matches[0]]


def _as_float(value) -> float:
    return float(value)


def _truthy(value) -> bool:
    if isinstance(value, bool):
        return value
    return float(value) != 0.0


def _eval_scalar(expr: Expr, row: dict):
    """Evaluate one expression against one row, Python semantics only."""
    if isinstance(expr, Literal):
        return float("nan") if expr.value is None else expr.value
    if isinstance(expr, ColumnRef):
        return _resolve_ref(expr, row)
    if isinstance(expr, UnaryOp):
        operand = _eval_scalar(expr.operand, row)
        if expr.op == "-":
            return -_as_float(operand)
        if expr.op == "NOT":
            return not _truthy(operand)
        raise SQLAnalysisError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, BinaryOp):
        if expr.op == "AND":
            return _truthy(_eval_scalar(expr.left, row)) and _truthy(
                _eval_scalar(expr.right, row)
            )
        if expr.op == "OR":
            return _truthy(_eval_scalar(expr.left, row)) or _truthy(
                _eval_scalar(expr.right, row)
            )
        left = _eval_scalar(expr.left, row)
        right = _eval_scalar(expr.right, row)
        if expr.op in ("=", "<>", "<", "<=", ">", ">="):
            try:
                if expr.op == "=":
                    return left == right
                if expr.op == "<>":
                    return left != right
                if expr.op == "<":
                    return left < right
                if expr.op == "<=":
                    return left <= right
                if expr.op == ">":
                    return left > right
                return left >= right
            except TypeError:  # mixed str/number never matches
                return expr.op == "<>"
        lf, rf = _as_float(left), _as_float(right)
        if expr.op == "+":
            return lf + rf
        if expr.op == "-":
            return lf - rf
        if expr.op == "*":
            return lf * rf
        if expr.op == "/":
            # Engine semantics: x / 0 = 0.
            return lf / rf if rf != 0 else 0.0
        if expr.op == "%":
            # Engine semantics: modulo by 0 becomes modulo by 1.
            return math.fmod(math.fmod(lf, rf or 1.0) + (rf or 1.0), rf or 1.0)
        raise SQLAnalysisError(f"unknown operator {expr.op!r}")
    if isinstance(expr, CaseWhen):
        # Engine semantics: branch values coerce to float, default 0.
        for cond, value in expr.branches:
            if _truthy(_eval_scalar(cond, row)):
                return _as_float(_eval_scalar(value, row))
        if expr.otherwise is not None:
            return _as_float(_eval_scalar(expr.otherwise, row))
        return 0.0
    if isinstance(expr, InList):
        operand = _eval_scalar(expr.operand, row)
        hit = any(operand == item.value for item in expr.items)
        return not hit if expr.negated else hit
    if isinstance(expr, Between):
        operand = _as_float(_eval_scalar(expr.operand, row))
        low = _as_float(_eval_scalar(expr.low, row))
        high = _as_float(_eval_scalar(expr.high, row))
        hit = low <= operand <= high
        return not hit if expr.negated else hit
    if isinstance(expr, IsNull):
        operand = _eval_scalar(expr.operand, row)
        hit = isinstance(operand, float) and math.isnan(operand)
        return not hit if expr.negated else hit
    if isinstance(expr, Like):
        operand = str(_eval_scalar(expr.operand, row))
        hit = bool(_like_regex(expr.pattern).fullmatch(operand))
        return not hit if expr.negated else hit
    raise SQLAnalysisError(f"reference cannot evaluate {expr!r}")


def _eval_aggregate(call: FunctionCall, rows: list[dict]):
    """One aggregate over one group's rows (engine's empty-group semantics)."""
    name = call.name
    if name == "COUNT" and (not call.args or isinstance(call.args[0], Star)):
        return len(rows)
    if len(call.args) != 1:
        raise SQLAnalysisError(f"{name} takes exactly one argument")
    values = [_eval_scalar(call.args[0], row) for row in rows]
    if name == "COUNT":
        if call.distinct:
            return len(set(values))
        return len(values)
    numeric = [_as_float(v) for v in values]
    if name == "SUM":
        return float(sum(numeric))
    if name == "AVG":
        return float(sum(numeric) / len(numeric)) if numeric else 0.0
    if name == "MIN":
        return float(min(numeric)) if numeric else 0.0
    if name == "MAX":
        return float(max(numeric)) if numeric else 0.0
    if name == "MEDIAN":
        if not numeric:
            return 0.0
        ordered = sorted(numeric)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return float(ordered[mid])
        return float((ordered[mid - 1] + ordered[mid]) / 2)
    if name in ("STDDEV", "VARIANCE"):
        if not numeric:
            return 0.0
        mean = sum(numeric) / len(numeric)
        var = max(sum((v - mean) ** 2 for v in numeric) / len(numeric), 0.0)
        return float(math.sqrt(var)) if name == "STDDEV" else float(var)
    raise SQLAnalysisError(f"unknown aggregate {name}")


def _has_aggregate(expr: Expr) -> bool:
    return expr.has_aggregate()


def _eval_group_item(expr: Expr, group_keys: tuple, key_exprs: tuple, rows: list[dict]):
    """Evaluate a select item in GROUP BY context (keys or aggregates)."""
    for key_expr, key_value in zip(key_exprs, group_keys):
        if expr == key_expr:
            return key_value
    if isinstance(expr, FunctionCall) and expr.name in (
        "COUNT", "SUM", "AVG", "MIN", "MAX", "MEDIAN", "STDDEV", "VARIANCE",
    ):
        return _eval_aggregate(expr, rows)
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, BinaryOp):
        left = _eval_group_item(expr.left, group_keys, key_exprs, rows)
        right = _eval_group_item(expr.right, group_keys, key_exprs, rows)
        proxy_row = {"__g.l": left, "__g.r": right}
        proxy = BinaryOp(expr.op, ColumnRef("l", "__g"), ColumnRef("r", "__g"))
        return _eval_scalar(proxy, proxy_row)
    if isinstance(expr, ColumnRef):
        # FIRST semantics for functionally-dependent columns, like the engine.
        return _eval_scalar(expr, rows[0])
    raise SQLAnalysisError(f"reference cannot evaluate group item {expr!r}")


#: Fill values the engine pads unmatched LEFT JOIN right columns with.
_JOIN_FILL = {
    ColumnType.STRING: "",
    ColumnType.BOOL: False,
    ColumnType.INT: 0,
    ColumnType.FLOAT: 0.0,
}


def _split_join_condition(
    condition: Expr, right_binding: str
) -> tuple[list[Expr], list[Expr]]:
    """ON conjuncts split into cross-side equalities and residual terms."""
    equi: list[Expr] = []
    residual: list[Expr] = []

    def walk(expr: Expr) -> None:
        if isinstance(expr, BinaryOp) and expr.op == "AND":
            walk(expr.left)
            walk(expr.right)
            return
        if (
            isinstance(expr, BinaryOp)
            and expr.op == "="
            and isinstance(expr.left, ColumnRef)
            and isinstance(expr.right, ColumnRef)
            and expr.left.table is not None
            and expr.right.table is not None
            and (expr.left.table == right_binding)
            != (expr.right.table == right_binding)
        ):
            equi.append(expr)
            return
        residual.append(expr)

    walk(condition)
    return equi, residual


def reference_query(sql: str, tables: dict[str, Table]) -> list[tuple]:
    """Execute ``sql`` naively over ``tables``; returns rows as tuples.

    Supports the subset :func:`generate_queries` produces: single table,
    inner or LEFT equi-joins (with residual ON conjuncts), WHERE, GROUP
    BY/HAVING, global aggregates, DISTINCT, and scalar expressions — all
    evaluated one row at a time.  LEFT JOIN mirrors the engine contract:
    rows match on the cross-side equalities, the residual filters only
    matched rows, and left rows with no equi-match come back once, their
    right columns padded with type fill values.
    """
    stmt = parse(sql)
    if not isinstance(stmt, SelectStatement):
        raise SQLAnalysisError("reference evaluator handles single SELECTs")

    binding = stmt.table.binding
    rows = _table_rows(tables[stmt.table.name], binding)
    for join in stmt.joins:
        right_rows = _table_rows(tables[join.table.name], join.table.binding)
        joined = []
        if join.kind == "inner":
            for left_row in rows:
                for right_row in right_rows:
                    merged = {**left_row, **right_row}
                    if _truthy(_eval_scalar(join.condition, merged)):
                        joined.append(merged)
            rows = joined
            continue
        if join.kind != "left":
            raise SQLAnalysisError(
                f"reference evaluator: unsupported join kind {join.kind!r}"
            )
        equi, residual = _split_join_condition(
            join.condition, join.table.binding
        )
        if not equi:
            raise SQLAnalysisError(
                "reference evaluator: LEFT JOIN needs an equality key"
            )
        pad = {
            f"{join.table.binding}.{col.name}": _JOIN_FILL[col.ctype]
            for col in tables[join.table.name].schema
        }
        for left_row in rows:
            matches = []
            for right_row in right_rows:
                merged = {**left_row, **right_row}
                if all(_truthy(_eval_scalar(e, merged)) for e in equi):
                    matches.append(merged)
            if not matches:
                joined.append({**left_row, **pad})
                continue
            for merged in matches:
                if all(_truthy(_eval_scalar(e, merged)) for e in residual):
                    joined.append(merged)
        rows = joined

    if stmt.where is not None:
        rows = [r for r in rows if _truthy(_eval_scalar(stmt.where, r))]

    needs_aggregate = bool(stmt.group_by) or any(
        _has_aggregate(item.expr) for item in stmt.items
    )
    if needs_aggregate:
        if stmt.group_by:
            groups: dict[tuple, list[dict]] = {}
            for row in rows:
                key = tuple(
                    _eval_scalar(e, row) for e in stmt.group_by
                )
                groups.setdefault(key, []).append(row)
            group_items = list(groups.items())
        else:
            group_items = [((), rows)]  # global aggregate: always one group
        out = []
        for key, group_rows in group_items:
            if stmt.having is not None and not _truthy(
                _eval_group_item(
                    stmt.having, key, stmt.group_by, group_rows
                )
            ):
                continue
            out.append(
                tuple(
                    _eval_group_item(
                        item.expr, key, stmt.group_by, group_rows
                    )
                    for item in stmt.items
                )
            )
    else:
        out = []
        for row in rows:
            values = []
            for item in stmt.items:
                if isinstance(item.expr, Star):
                    prefix = (
                        f"{item.expr.table}." if item.expr.table else None
                    )
                    for k in row:
                        if prefix is None or k.startswith(prefix):
                            values.append(row[k])
                else:
                    values.append(_eval_scalar(item.expr, row))
            out.append(tuple(values))

    if stmt.distinct:
        seen = set()
        deduped = []
        for row in out:
            key = normalize_rows([row])[0]
            if key not in seen:
                seen.add(key)
                deduped.append(row)
        out = deduped
    if stmt.limit is not None:
        out = out[: stmt.limit]
    return out


# ----------------------------------------------------------------------
# Result comparison
# ----------------------------------------------------------------------


def _norm_value(value):
    """Hashable, sortable normal form of one cell."""
    if isinstance(value, (bool, np.bool_)):
        return (0, float(value))
    if isinstance(value, (int, float, np.integer, np.floating)):
        f = float(value)
        if math.isnan(f):
            return (0, float("inf"), "nan")
        return (0, round(f, 9))
    return (1, str(value))


def normalize_rows(rows) -> list[tuple]:
    """Rows (any iterable of cell sequences) → sorted normalized tuples."""
    return sorted(tuple(_norm_value(v) for v in row) for row in rows)


def table_rows(table: Table) -> list[tuple]:
    """An engine result table as a list of row tuples (column order)."""
    columns = [table.column(n).tolist() for n in table.schema.names]
    return [tuple(col[i] for col in columns) for i in range(table.num_rows)]


def rows_equal(engine_rows, reference_rows) -> bool:
    """Sorted row-for-row equality with float tolerance."""
    a = normalize_rows(engine_rows)
    b = normalize_rows(reference_rows)
    if len(a) != len(b):
        return False
    for row_a, row_b in zip(a, b):
        if len(row_a) != len(row_b):
            return False
        for cell_a, cell_b in zip(row_a, row_b):
            if cell_a[0] != cell_b[0]:
                return False
            if cell_a[0] == 1:
                if cell_a != cell_b:
                    return False
            elif not math.isclose(
                cell_a[1], cell_b[1], rel_tol=1e-9, abs_tol=1e-9
            ) or cell_a[2:] != cell_b[2:]:
                return False
    return True
