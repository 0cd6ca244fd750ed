"""BSS table emitters: user base, CDR, billing, recharge, complaints.

Every emitter takes the simulator's per-slot latent/behavior arrays for one
month and produces a :class:`~repro.dataplat.table.Table` shaped like the
corresponding production table (Figure 4 of the paper names the columns).
"""

from __future__ import annotations

import numpy as np

from ..dataplat.schema import Schema
from ..dataplat.table import Table
from .population import CustomerPopulation

#: Days per simulated month.
DAYS_PER_MONTH = 30


def user_base_table(pop: CustomerPopulation) -> Table:
    """Demographics / product / lifecycle snapshot (BSS User Base).

    Columns are **copied**: the population arrays mutate as months advance
    (tenure ticks, churned slots are reborn), and a monthly snapshot must
    not alias live state — an aliased table would leak future rebirths
    (``innet_dura`` resets) into past months.
    """
    return Table.from_arrays(
        imsi=pop.imsi,
        age=pop.age.copy(),
        gender=pop.gender.copy(),
        town_id=pop.town_id.copy(),
        sale_id=pop.sale_id.copy(),
        pspt_type=pop.pspt_type.copy(),
        is_shanghai=pop.is_shanghai.copy(),
        product_id=pop.product_id.copy(),
        product_price=pop.product_price.copy(),
        product_knd=pop.product_knd.copy(),
        credit_value=pop.credit_value.copy(),
        innet_dura=pop.innet_months.copy(),
        vip=pop.vip.copy(),
    )


def cdr_monthly_table(
    imsi: np.ndarray,
    voice_usage: np.ndarray,
    sms_usage: np.ndarray,
    data_usage: np.ndarray,
    complaint_calls: np.ndarray,
    rng: np.random.Generator,
) -> Table:
    """Monthly voice/SMS/MMS aggregates (the bulk of Figure 4's features).

    ``voice_usage`` / ``sms_usage`` / ``data_usage`` are non-negative
    per-customer activity scales; every column is a noisy share of them, so
    the whole table reflects engagement without any column being a clean
    copy of the latent.
    """
    n = len(imsi)

    def share(base: np.ndarray, fraction: float, spread: float = 0.25) -> np.ndarray:
        noise = np.exp(rng.normal(0, spread, size=n))
        return np.maximum(base * fraction * noise, 0.0)

    local_call_dur = share(voice_usage, 90.0)
    ld_call_dur = share(voice_usage, 20.0)
    roam_call_dur = share(voice_usage, 6.0)
    voice_dur = local_call_dur + ld_call_dur + roam_call_dur
    all_call_cnt = np.round(share(voice_usage, 45.0)).astype(np.int64)
    return Table.from_arrays(
        imsi=imsi,
        localbase_outer_call_dur=share(local_call_dur, 0.4, 0.1),
        localbase_inner_call_dur=share(local_call_dur, 0.6, 0.1),
        ld_call_dur=ld_call_dur,
        roam_call_dur=roam_call_dur,
        localbase_called_dur=share(voice_usage, 70.0),
        ld_called_dur=share(voice_usage, 12.0),
        roam_called_dur=share(voice_usage, 4.0),
        cm_dur=share(voice_usage, 15.0),
        ct_dur=share(voice_usage, 8.0),
        busy_call_dur=share(voice_usage, 25.0),
        fest_call_dur=share(voice_usage, 5.0),
        free_call_dur=share(voice_usage, 10.0),
        voice_dur=voice_dur,
        all_call_cnt=all_call_cnt,
        voice_cnt=np.round(share(voice_usage, 38.0)).astype(np.int64),
        local_base_call_cnt=np.round(share(voice_usage, 30.0)).astype(np.int64),
        ld_call_cnt=np.round(share(voice_usage, 6.0)).astype(np.int64),
        roam_call_cnt=np.round(share(voice_usage, 2.0)).astype(np.int64),
        caller_cnt=np.round(share(voice_usage, 20.0)).astype(np.int64),
        caller_dur=share(voice_usage, 55.0),
        sms_p2p_inner_mo_cnt=np.round(share(sms_usage, 12.0)).astype(np.int64),
        sms_p2p_other_mo_cnt=np.round(share(sms_usage, 5.0)).astype(np.int64),
        sms_p2p_cm_mo_cnt=np.round(share(sms_usage, 4.0)).astype(np.int64),
        sms_p2p_ct_mo_cnt=np.round(share(sms_usage, 2.0)).astype(np.int64),
        sms_info_mo_cnt=np.round(share(sms_usage, 1.5)).astype(np.int64),
        sms_p2p_roam_int_mo_cnt=np.round(share(sms_usage, 0.2)).astype(np.int64),
        sms_p2p_mt_cnt=np.round(share(sms_usage, 14.0)).astype(np.int64),
        sms_bill_cnt=np.round(share(sms_usage, 3.0)).astype(np.int64),
        mms_cnt=np.round(share(sms_usage, 1.0)).astype(np.int64),
        mms_p2p_inner_mo_cnt=np.round(share(sms_usage, 0.5)).astype(np.int64),
        mms_p2p_other_mo_cnt=np.round(share(sms_usage, 0.3)).astype(np.int64),
        mms_p2p_cm_mo_cnt=np.round(share(sms_usage, 0.2)).astype(np.int64),
        mms_p2p_ct_mo_cnt=np.round(share(sms_usage, 0.1)).astype(np.int64),
        mms_p2p_roam_int_mo_cnt=np.round(share(sms_usage, 0.05)).astype(np.int64),
        mms_p2p_mt_cnt=np.round(share(sms_usage, 0.6)).astype(np.int64),
        gprs_all_flux=share(data_usage, 800.0),
        call_10010_cnt=complaint_calls.astype(np.int64),
        call_10010_manual_cnt=np.minimum(
            complaint_calls, rng.poisson(0.3, size=n)
        ).astype(np.int64),
    )


def billing_table(
    imsi: np.ndarray,
    voice_usage: np.ndarray,
    data_usage: np.ndarray,
    sms_usage: np.ndarray,
    balance: np.ndarray,
    recharge_amount: np.ndarray,
    product_price: np.ndarray,
    rng: np.random.Generator,
) -> Table:
    """Monthly billing snapshot: charges, balance, gift quotas."""
    n = len(imsi)

    def noisy(values: np.ndarray) -> np.ndarray:
        return np.maximum(values * np.exp(rng.normal(0, 0.2, size=n)), 0.0)

    total_charge = noisy(product_price * 0.3 + voice_usage * 3.0 + data_usage * 2.0)
    gprs_charge = noisy(data_usage * 1.6)
    return Table.from_arrays(
        imsi=imsi,
        total_charge=total_charge,
        gprs_flux=noisy(data_usage * 750.0),
        gprs_charge=gprs_charge,
        local_call_minutes=noisy(voice_usage * 80.0),
        toll_call_minutes=noisy(voice_usage * 15.0),
        roam_call_minutes=noisy(voice_usage * 5.0),
        voice_call_minutes=noisy(voice_usage * 100.0),
        p2p_sms_mo_cnt=np.round(noisy(sms_usage * 20.0)).astype(np.int64),
        p2p_sms_mo_charge=noisy(sms_usage * 2.0),
        balance=np.maximum(balance, 0.0),
        balance_rate=np.clip(
            recharge_amount / np.maximum(balance + recharge_amount, 1.0), 0, 1
        ),
        gift_voice_call_dur=noisy(voice_usage * 12.0),
        gift_sms_mo_cnt=np.round(noisy(sms_usage * 4.0)).astype(np.int64),
        gift_flux_value=noisy(data_usage * 120.0),
        distinct_serve_count=rng.poisson(2.0, size=n).astype(np.int64),
        serve_sms_count=rng.poisson(4.0, size=n).astype(np.int64),
    )


def cdr_daily_table(
    imsi: np.ndarray,
    month: int,
    voice_usage: np.ndarray,
    sms_usage: np.ndarray,
    data_usage: np.ndarray,
    decay: np.ndarray,
    rng: np.random.Generator,
) -> Table:
    """Compact per-customer-per-day usage (supports the Velocity study).

    ``decay`` in [0, 1] is the per-customer *pre-churn ramp*: a customer
    about to churn sees their daily usage fall off across the month's final
    third — the freshness signal the Velocity experiment (Table 5) measures.
    Every customer additionally has a random within-month trend and heavy
    day-level noise, so the ramp is a shift in a noisy distribution rather
    than a clean marker.
    """
    n = len(imsi)
    days = np.arange(1, DAYS_PER_MONTH + 1)
    # Natural within-month trend (anyone can drift up or down) ...
    slope = rng.normal(0, 0.35, size=n)
    trend = 1.0 + np.outer(slope, days / DAYS_PER_MONTH - 0.5)
    # ... plus the pre-churn ramp over the final third of the month.
    progress = np.maximum(days / DAYS_PER_MONTH - 2 / 3, 0.0) * 3.0
    ramp = np.maximum(trend - np.outer(decay, progress), 0.05)
    base_day = (month - 1) * DAYS_PER_MONTH

    def daily(base: np.ndarray, scale: float) -> np.ndarray:
        burst = np.exp(rng.normal(0, 0.5, size=(n, DAYS_PER_MONTH)))
        lam = np.maximum(
            base[:, None] * scale * ramp * burst / DAYS_PER_MONTH, 0.0
        )
        return rng.poisson(lam).astype(np.float64)

    call_cnt = daily(voice_usage, 45.0)
    call_dur = call_cnt * np.exp(rng.normal(1.0, 0.3, size=(n, DAYS_PER_MONTH)))
    sms_cnt = daily(sms_usage, 25.0)
    data_mb = daily(data_usage, 800.0)
    return Table.from_arrays(
        imsi=np.repeat(imsi, DAYS_PER_MONTH),
        day=np.tile(base_day + days, n),
        call_cnt=call_cnt.ravel(),
        call_dur=call_dur.ravel(),
        sms_cnt=sms_cnt.ravel(),
        data_mb=data_mb.ravel(),
    )


def recharge_period_table(
    imsi: np.ndarray,
    month: int,
    delay_days: np.ndarray,
) -> Table:
    """One row per customer entering the recharge period this month.

    ``delay_days`` is days until the customer recharged (−1 when they never
    did within the observation horizon).  The labeling rule (Section 5)
    reads this table: delay > 15 days or −1 ⇒ churner.
    """
    return Table.from_arrays(
        imsi=imsi,
        month=np.full(len(imsi), month, dtype=np.int64),
        delay_days=delay_days.astype(np.int64),
    )


def recharge_events_table(
    imsi: np.ndarray,
    month: int,
    counts: np.ndarray,
    amounts: np.ndarray,
    rng: np.random.Generator,
) -> Table:
    """Individual recharge transactions in the month."""
    counts = counts.astype(np.int64)
    rows_imsi = np.repeat(imsi, counts)
    rows_amounts = np.repeat(amounts / np.maximum(counts, 1), counts)
    rows_amounts = rows_amounts * np.exp(
        rng.normal(0, 0.1, size=len(rows_imsi))
    )
    base_day = (month - 1) * DAYS_PER_MONTH
    rows_day = base_day + rng.integers(1, DAYS_PER_MONTH + 1, size=len(rows_imsi))
    return Table.from_arrays(
        imsi=rows_imsi,
        day=rows_day,
        amount=rows_amounts,
    )


def complaints_table(
    imsi: np.ndarray,
    month: int,
    counts: np.ndarray,
    docs: list[str],
) -> Table:
    """Complaint counts plus the concatenated complaint text per customer."""
    schema = Schema.of(imsi="int", month="int", n_complaints="int", doc="string")
    return Table(
        schema,
        {
            "imsi": imsi,
            "month": np.full(len(imsi), month, dtype=np.int64),
            "n_complaints": counts.astype(np.int64),
            "doc": np.asarray(docs, dtype=object),
        },
    )


def search_logs_table(imsi: np.ndarray, month: int, docs: list[str]) -> Table:
    """Mobile search queries per customer (from DPI probes in the paper)."""
    schema = Schema.of(imsi="int", month="int", doc="string")
    return Table(
        schema,
        {
            "imsi": imsi,
            "month": np.full(len(imsi), month, dtype=np.int64),
            "doc": np.asarray(docs, dtype=object),
        },
    )
