"""Paper-shaped text rendering of experiment results.

Every formatter takes the plain-data output of one
:mod:`~repro.core.experiments` runner and returns a string laid out like the
corresponding table or figure series in the paper, so benchmark output can
be compared against the original side by side.
"""

from __future__ import annotations

from .retention import CampaignResult

#: The paper-scale top-U cutoff Tables 2, 5 and 7 report recall and
#: precision at.
TABLE_U = 200_000


def _rule(widths: list[int]) -> str:
    return "-+-".join("-" * w for w in widths)


def render_table(headers: list[str], rows: list[list[str]]) -> str:
    """Monospace table with a header rule."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
        _rule(widths),
    ]
    for row in rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def fmt(value: float) -> str:
    return f"{value:.5f}"


def report_fig1(data: dict) -> str:
    rows = [
        [str(m), f"{p:.1%}", f"{q:.1%}"]
        for m, p, q in zip(data["months"], data["prepaid"], data["postpaid"])
    ]
    return "Figure 1 — monthly churn rates\n" + render_table(
        ["month", "prepaid", "postpaid"], rows
    )


def report_table1(rows: list[dict]) -> str:
    body = [
        [
            str(r["month"]),
            str(r["churners"]),
            str(r["non_churners"]),
            str(r["total"]),
            f"{r['churn_rate']:.1%}",
        ]
        for r in rows
    ]
    return "Table 1 — dataset statistics\n" + render_table(
        ["month", "churners", "non-churners", "total", "rate"], body
    )


def report_fig5(data: dict) -> str:
    body = [
        [str(d), str(c)] for d, c in zip(data["days"], data["counts"])
    ]
    tail = (
        f"\nrecharges beyond the 15-day grace: "
        f"{data['fraction_beyond_grace']:.1%} (paper: <5%)"
    )
    return (
        "Figure 5 — days-to-recharge distribution\n"
        + render_table(["day", "recharged"], body)
        + tail
    )


def report_fig7(rows: list[dict], paper_u: tuple[int, ...]) -> str:
    headers = ["train months", "AUC", "PR-AUC"]
    headers += [f"R@{u // 1000}k" for u in paper_u]
    headers += [f"P@{u // 1000}k" for u in paper_u]
    body = []
    for r in rows:
        line = [str(r["train_months"]), fmt(r["auc"]), fmt(r["pr_auc"])]
        line += [fmt(r["recall_at"][u]) for u in paper_u]
        line += [fmt(r["precision_at"][u]) for u in paper_u]
        body.append(line)
    return "Figure 7 — Volume: metrics vs training months\n" + render_table(
        headers, body
    )


def report_table2(rows: list[dict]) -> str:
    u = TABLE_U
    headers = ["features", "AUC", "PR-AUC", f"R@{u // 1000}k", f"P@{u // 1000}k", "ΔPR-AUC"]
    body = []
    for r in rows:
        body.append(
            [
                r["family"],
                fmt(r["auc"]),
                fmt(r["pr_auc"]),
                fmt(r["recall_at"][u]),
                fmt(r["precision_at"][u]),
                f"{r['delta_pr_auc']:+.3%}",
            ]
        )
    return "Table 2 — Variety (F1 + one family at a time)\n" + render_table(
        headers, body
    )


def report_table3(data: dict) -> str:
    headers = ["top U (paper scale)", "recall", "precision"]
    body = [
        [str(u), fmt(data["recall_at"][u]), fmt(data["precision_at"][u])]
        for u in sorted(data["recall_at"])
    ]
    tail = f"\nAUC = {fmt(data['auc'])}   PR-AUC = {fmt(data['pr_auc'])}"
    return (
        "Table 3 — overall predictive performance (150 features, 4 months)\n"
        + render_table(headers, body)
        + tail
    )


def report_table4(rows: list[dict]) -> str:
    body = [
        [str(r["rank"]), r["feature"], f"{r['importance']:.6f}"] for r in rows
    ]
    return "Table 4 — RF feature importance\n" + render_table(
        ["rank", "feature", "importance"], body
    )


def report_table5(rows: list[dict]) -> str:
    u = TABLE_U
    headers = ["stride", "AUC", "PR-AUC", f"R@{u // 1000}k", f"P@{u // 1000}k", "ΔPR-AUC"]
    body = []
    for r in rows:
        body.append(
            [
                f"{r['stride_days']} days",
                fmt(r["auc"]),
                fmt(r["pr_auc"]),
                fmt(r["recall_at"][u]),
                fmt(r["precision_at"][u]),
                f"{r['delta_pr_auc']:+.3%}",
            ]
        )
    return "Table 5 — Velocity (sliding stride)\n" + render_table(headers, body)


def report_table6(campaigns: list[CampaignResult]) -> str:
    headers = ["month", "strategy", "group", "tier", "total", "recharged", "rate"]
    body = []
    for campaign in campaigns:
        for cell in campaign.outcomes:
            body.append(
                [
                    str(campaign.month),
                    campaign.strategy,
                    cell.group,
                    cell.tier,
                    str(cell.total),
                    str(cell.recharged),
                    f"{cell.rate:.2%}",
                ]
            )
    return "Table 6 — business value of churn prediction (A/B test)\n" + render_table(
        headers, body
    )


def report_fig8(rows: list[dict]) -> str:
    headers = ["lead (months)", "AUC", "PR-AUC"]
    body = [
        [str(r["lead_months"]), fmt(r["auc"]), fmt(r["pr_auc"])] for r in rows
    ]
    return "Figure 8 — early signals: metrics vs lead time\n" + render_table(
        headers, body
    )


def report_table7(rows: list[dict]) -> str:
    u = TABLE_U
    headers = ["method", "AUC", "PR-AUC", f"R@{u // 1000}k", f"P@{u // 1000}k"]
    label = {
        "none": "Not Balanced",
        "up": "Up Sampling",
        "down": "Down Sampling",
        "weighted": "Weighted Instance",
    }
    body = []
    for r in rows:
        body.append(
            [
                label[r["strategy"]],
                fmt(r["auc"]),
                fmt(r["pr_auc"]),
                fmt(r["recall_at"][u]),
                fmt(r["precision_at"][u]),
            ]
        )
    return "Table 7 — class-imbalance treatments\n" + render_table(headers, body)


def report_fig9(rows: list[dict]) -> str:
    label = {
        "rf": "RF",
        "gbdt": "GBDT",
        "liblinear": "LIBLINEAR",
        "libfm": "LIBFM",
    }
    headers = ["classifier", "AUC", "PR-AUC"]
    body = [
        [label[r["classifier"]], fmt(r["auc"]), fmt(r["pr_auc"])] for r in rows
    ]
    return "Figure 9 — classifier comparison\n" + render_table(headers, body)
