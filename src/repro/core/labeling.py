"""Churner labeling (Section 5).

The rule, set by the operator's domain experts: *a prepaid customer who does
not recharge within 15 days of entering the recharge period is a churner.*
Labels are computed from the ``recharge_period`` table, not read from
simulator ground truth — the labeling pipeline is the real artifact, and the
tests separately verify it agrees with the simulator's internal state.
"""

from __future__ import annotations

import numpy as np

from ..config import PAPER
from ..datagen.simulator import TelcoWorld
from ..errors import ExperimentError


def labels_from_delays(delay_days: np.ndarray, grace_days: int = PAPER.churn_grace_days) -> np.ndarray:
    """Apply the 15-day rule to a delay column (−1 = never recharged)."""
    delay_days = np.asarray(delay_days)
    return (delay_days < 0) | (delay_days > grace_days)


def churn_labels(world: TelcoWorld, month: int) -> np.ndarray:
    """Per-slot churn labels for features observed in ``month``.

    The label of month ``t`` is whether the customer churns in month
    ``t + 1``, read from that month's recharge-period outcomes.  Slots are
    returned in slot order (= IMSI order of month ``t``).
    """
    if not 1 <= month <= world.n_months:
        raise ExperimentError(
            f"month {month} out of range 1..{world.n_months}"
        )
    table = world.recharge_period_for(month + 1)
    slots = world.population.slots_of(table["imsi"])
    labels = labels_from_delays(table["delay_days"])
    out = np.zeros(world.population.size, dtype=bool)
    out[slots] = labels
    return out


def recharge_delay_histogram(world: TelcoWorld) -> tuple[np.ndarray, np.ndarray]:
    """Figure 5: number of customers recharging after each delay.

    Returns ``(days 1..30, counts)`` pooled over all months; customers
    who never recharged are excluded (they are not "recharged customers").
    """
    delays = []
    for t in range(1, world.n_months + 1):
        column = world.recharge_period_for(t)["delay_days"]
        delays.append(np.asarray(column))
    all_delays = np.concatenate(delays)
    recharged = all_delays[all_delays >= 1]
    days = np.arange(1, 31)
    counts = np.asarray(
        [(recharged == d).sum() for d in days], dtype=np.int64
    )
    return days, counts


def dataset_statistics(world: TelcoWorld) -> list[dict]:
    """Table 1: per-month churner / non-churner / total counts.

    A month's churners are the customers whose recharge period that month
    exceeded the grace rule — i.e. the observable churn events of the month.
    """
    rows = []
    for data in world.months:
        churners = int(data.churning_now.sum())
        total = len(data.churning_now)
        rows.append(
            {
                "month": data.month,
                "churners": churners,
                "non_churners": total - churners,
                "total": total,
                "churn_rate": churners / total,
            }
        )
    return rows
