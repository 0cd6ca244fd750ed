"""Month-by-month telco world simulation.

The generative story (calibrated so each feature family of Section 4.1
carries the paper's relative amount of churn signal — see DESIGN.md §5):

* Every customer has persistent latent drivers: financial stress ``fin``
  (AR(1)), engagement ``eng`` (AR(1)), and cell-level service quality
  ``q_ps`` / ``q_cs`` (persistent with monthly wobble).
* Each month a churn-risk score sums the drivers, social contagion from last
  month's churners (strongest through the co-occurrence graph, weakest
  through the moribund message graph), and a tenure × spend interaction.
  The score plus logistic noise is thresholded at that month's churn-rate
  quantile: the exceeders will churn **next** month.
* Pre-churn behaviour is *abrupt*: customers about to churn degrade mostly
  in the final third of the current month (usage ramp, balance decay,
  porting-intent search queries, a small complaint bump), so features one
  month before churn are far more informative than two (Figure 8), and
  fresher feature windows are slightly more informative (Table 5).
* A churner spends their churn month in the recharge period (inbound only,
  no recharge within 15 days) and their slot is reborn as a new customer at
  month end — Table 1's dynamic balance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import PAPER, ScaleConfig
from ..dataplat.catalog import Catalog
from ..dataplat.table import Table
from ..errors import SimulationError
from . import bss, oss
from .population import CustomerPopulation
from .social import SocialGraph, build_graphs, exposure
from .text import make_complaint_generator, make_search_generator

#: Tables emitted each month, in catalog naming.
MONTHLY_TABLES = (
    "user_base",
    "cdr_monthly",
    "cdr_daily",
    "billing",
    "recharge_period",
    "recharge_events",
    "complaints",
    "search_logs",
    "cs_kpi",
    "ps_kpi",
    "mr_locations",
)


@dataclass(frozen=True)
class SignalWeights:
    """Churn-hazard weights per latent driver.

    Defaults are calibrated so the per-family ΔPR-AUC ordering of Table 2
    holds: PS > CS > co-occurrence > call graph > search topics >
    second-order > complaint topics > message graph.
    """

    fin: float = 2.0
    engagement: float = 1.0
    ps_quality: float = 1.65
    cs_quality: float = 1.3
    cooc_exposure: float = 0.9
    call_exposure: float = 0.7
    msg_exposure: float = 0.02
    tenure_charge: float = 0.9
    #: Persistent per-location-cluster hazard offset (dorms churn together;
    #: family neighbourhoods do not) — this is what makes the MR location
    #: features (part of F3) and co-occurrence contagion informative.
    cluster_effect: float = 0.5
    noise: float = 0.55
    #: Extra complaint intensity for soon-to-churn customers.
    complaint_churn_bump: float = 0.1
    #: Lognormal noise on balance.
    balance_noise: float = 0.55
    #: Background probability anyone skips recharging this month.
    recharge_skip_background: float = 0.10
    #: Fraction of churners who are *loud*: decided leavers with strong
    #: pre-churn signatures (they stop topping up, run the balance down,
    #: go quiet, search for porting offers).  The near-perfect P@50k of
    #: Table 3 comes from this subpopulation filling the top of the
    #: ranking; *quiet* churners leave with only faint warnings, which is
    #: what keeps overall AUC below 1.
    loud_fraction: float = 0.55
    #: (loud, quiet) probability a churner's balance visibly collapses.
    balance_decay_prob: tuple[float, float] = (0.97, 0.35)
    #: (loud, quiet) log-balance drop when it collapses.
    balance_decay_log: tuple[float, float] = (1.8, 0.7)
    #: (loud, quiet) probability of skipping this month's recharge.
    recharge_skip_prob: tuple[float, float] = (0.9, 0.18)
    #: (loud, quiet) probability of emitting porting-intent queries.
    search_intent_prob: tuple[float, float] = (0.75, 0.2)
    #: (loud, quiet) mean usage fall-off over the month's final third.
    prechurn_decay: tuple[float, float] = (0.75, 0.2)


@dataclass(frozen=True)
class QualityIntervention:
    """A customer-centric network optimization (Section 5.3's action).

    From ``start_month`` on, the targeted slots' latent PS/CS service
    quality improves by the given amounts (in latent standard deviations).
    """

    start_month: int
    slots: np.ndarray
    ps_improvement: float = 1.0
    cs_improvement: float = 1.0

    def __post_init__(self) -> None:
        if self.start_month < 1:
            raise SimulationError(
                f"start_month must be >= 1, got {self.start_month}"
            )
        if self.ps_improvement < 0 or self.cs_improvement < 0:
            raise SimulationError("quality improvements must be >= 0")
        object.__setattr__(
            self, "slots", np.asarray(self.slots, dtype=np.int64)
        )


@dataclass
class MonthData:
    """Everything the simulator emits for one month."""

    month: int
    tables: dict[str, Table]
    imsi: np.ndarray
    #: Slots occupied by a customer in their churn month (recharge period).
    churning_now: np.ndarray
    #: Slots whose occupant will churn next month (= this month's label).
    churn_next: np.ndarray
    #: Slots usable for training/testing: active, not in recharge period.
    eligible: np.ndarray
    #: Ground-truth risk score (diagnostics/calibration only — not a feature).
    risk: np.ndarray
    #: Latent retention-offer affinity per slot (campaign-simulation truth;
    #: a deployed system never observes this column directly).
    offer_class: np.ndarray | None = None
    #: Churn reason per slot: 0 none, 1 financial, 2 service quality,
    #: 3 social contagion (diagnostics/ablations only).
    churn_reason: np.ndarray | None = None

    @property
    def churn_rate(self) -> float:
        return float(self.churning_now.mean())


@dataclass
class TelcoWorld:
    """The full simulated history."""

    months: list[MonthData]
    graphs: dict[str, SocialGraph]
    location_cluster: np.ndarray
    n_location_clusters: int
    population: CustomerPopulation
    #: Recharge-period table for month M+1 (labels the final month).
    final_recharge_period: Table
    #: Per-month postpaid churn counts (Figure 1 contrast segment).
    postpaid_rates: list[float]
    #: Per-month absolute churn-risk thresholds.  Pass these back into
    #: :meth:`TelcoSimulator.run` as ``fixed_thresholds`` so a
    #: counterfactual run keeps the same churn bar instead of re-drawing
    #: the quantile (which would make total churn zero-sum and displace
    #: avoided churn onto untreated customers).
    risk_thresholds: list[float] | None = None

    @property
    def n_months(self) -> int:
        return len(self.months)

    def month(self, t: int) -> MonthData:
        """1-indexed month access."""
        if not 1 <= t <= len(self.months):
            raise SimulationError(
                f"month {t} out of range 1..{len(self.months)}"
            )
        return self.months[t - 1]

    def recharge_period_for(self, t: int) -> Table:
        """Recharge-period table of month ``t`` (supports t = n_months + 1)."""
        if t == len(self.months) + 1:
            return self.final_recharge_period
        return self.month(t).tables["recharge_period"]

    def load_catalog(self, catalog: Catalog, database: str = "telco") -> None:
        """Write every monthly table into a platform catalog."""
        catalog.create_database(database)
        for data in self.months:
            for name, table in data.tables.items():
                catalog.save(
                    table, name, database=database, partition=f"month={data.month}"
                )
        catalog.save(
            self.final_recharge_period,
            "recharge_period",
            database=database,
            partition=f"month={len(self.months) + 1}",
        )


class TelcoSimulator:
    """Drives the world month by month.

    Parameters
    ----------
    scale:
        Population size, number of months, master seed.
    weights:
        Hazard calibration; defaults reproduce the paper's orderings.
    """

    def __init__(
        self,
        scale: ScaleConfig | None = None,
        weights: SignalWeights | None = None,
    ) -> None:
        self.scale = scale if scale is not None else ScaleConfig()
        self.weights = weights if weights is not None else SignalWeights()

    def run(
        self,
        intervention: "QualityIntervention | None" = None,
        fixed_thresholds: list[float] | None = None,
    ) -> TelcoWorld:
        """Simulate ``scale.months`` months and return the world.

        ``intervention`` optionally applies a *customer-centric network
        optimization* (Section 5.3's suggested action): from its start
        month on, the targeted slots' latent service quality improves by a
        fixed amount.  The RNG stream is identical with or without the
        intervention — the same draws are consumed either way — so two runs
        at the same seed form a matched counterfactual pair and the
        difference in realized churn is the intervention's causal effect.
        Pass the baseline run's ``risk_thresholds`` as ``fixed_thresholds``
        so the churn bar stays absolute (see :class:`TelcoWorld`).
        """
        rng = np.random.default_rng(self.scale.seed)
        n = self.scale.population
        w = self.weights
        pop = CustomerPopulation(n, rng)
        graphs, location_cluster = build_graphs(n, pop.town_id, rng)
        n_clusters = int(location_cluster.max()) + 1

        search_gen = make_search_generator()
        complaint_gen = make_complaint_generator()

        # Per-cluster churn climate: persistent across the whole simulation.
        cluster_offsets = w.cluster_effect * rng.normal(size=n_clusters)
        slot_cluster_offset = cluster_offsets[location_cluster]

        # Persistent latents.
        fin = rng.normal(size=n)
        eng = rng.normal(size=n)
        g_ps = rng.normal(size=n)  # higher = worse data service
        g_cs = rng.normal(size=n)  # higher = worse voice service

        # Burn-in: one hidden month so month 1 has contagion context.
        risk0, _, _, _ = self._risk(
            w, fin, eng, g_ps, g_cs,
            np.zeros(n), np.zeros(n), np.zeros(n),
            slot_cluster_offset, pop, rng,
        )
        churning_now = risk0 > np.quantile(risk0, 1 - PAPER.prepaid_churn_rate)
        pending_delay = self._draw_delays(churning_now, rng)

        months: list[MonthData] = []
        postpaid_rates: list[float] = []
        thresholds: list[float] = []
        churned_prev = churning_now.copy()
        prev_risk: np.ndarray | None = risk0
        for t in range(1, self.scale.months + 1):
            # --- latent dynamics -------------------------------------
            # Persistence calibrated to Figure 8: features one month before
            # churn are strongly informative, two months before noticeably
            # less, and the decay continues gently (not a cliff).
            fin = 0.85 * fin + np.sqrt(1 - 0.85**2) * rng.normal(size=n)
            eng = 0.9 * eng + np.sqrt(1 - 0.9**2) * rng.normal(size=n)
            if intervention is not None and t == intervention.start_month:
                # Network optimization: the targeted slots' cells are fixed
                # (latents are "badness", so improvement subtracts).
                g_ps[intervention.slots] -= intervention.ps_improvement
                g_cs[intervention.slots] -= intervention.cs_improvement
            ps_now = g_ps + 0.25 * rng.normal(size=n)
            cs_now = g_cs + 0.25 * rng.normal(size=n)

            # Contagion: during month t the current churners are visibly
            # gone (recharge period, inbound only); their graph neighbours
            # react and churn next month.  Label propagation (Section 4.1.2)
            # seeds from the same churners, so the feature sees the same
            # events the hazard uses.
            expo_cooc = _standardize(exposure(graphs["cooccurrence"], churning_now))
            expo_call = _standardize(exposure(graphs["call"], churning_now))
            expo_msg = _standardize(exposure(graphs["message"], churning_now))

            risk, c_fin, c_qual, c_social = self._risk(
                w, fin, eng, ps_now, cs_now,
                expo_cooc, expo_call, expo_msg,
                slot_cluster_offset, pop, rng,
            )
            # Dissatisfaction builds: the effective hazard blends this
            # month's stress with last month's, so pre-churn states are
            # partially visible months ahead (Figure 8's gentle decay).
            if prev_risk is not None:
                risk = 0.75 * risk + 0.25 * prev_risk
            prev_risk = risk
            rate_t = PAPER.prepaid_churn_rate + rng.normal(0, 0.004)
            rate_t = float(np.clip(rate_t, 0.06, 0.13))
            if fixed_thresholds is not None:
                threshold = fixed_thresholds[t - 1]
            else:
                threshold = float(np.quantile(risk, 1 - rate_t))
            thresholds.append(threshold)
            churn_next = risk > threshold
            eligible = ~churning_now

            # Why is each churner leaving?  The dominant hazard component
            # decides which observable channel carries their pre-churn
            # signature: money trouble shows up in BSS (balance, recharge),
            # bad service shows up in OSS KPIs and porting searches, social
            # contagion shows up mostly through the graphs.
            reason = np.zeros(n, dtype=np.int64)
            strongest = np.argmax(
                np.column_stack([c_fin, c_qual, c_social]), axis=1
            )
            reason[churn_next] = strongest[churn_next] + 1

            # --- behaviour -------------------------------------------
            month_effect = 1.0 + 0.04 * np.sin(0.9 * t) + 0.008 * t
            tables = self._emit_month(
                t, pop, w, rng,
                fin=fin, eng=eng, ps_now=ps_now, cs_now=cs_now,
                churn_next=churn_next, churning_now=churning_now,
                reason=reason,
                pending_delay=pending_delay,
                month_effect=month_effect,
                location_cluster=location_cluster,
                n_clusters=n_clusters,
                search_gen=search_gen, complaint_gen=complaint_gen,
            )
            months.append(
                MonthData(
                    month=t,
                    tables=tables,
                    imsi=pop.imsi.copy(),
                    churning_now=churning_now.copy(),
                    churn_next=churn_next.copy(),
                    eligible=eligible,
                    risk=risk,
                    offer_class=pop.offer_class.copy(),
                    churn_reason=reason,
                )
            )
            postpaid_rates.append(
                float(np.clip(
                    PAPER.postpaid_churn_rate + rng.normal(0, 0.003), 0.03, 0.08
                ))
            )

            # --- end of month: rebirth and hand-over -----------------
            pending_delay = self._draw_delays(churn_next, rng)
            reborn = np.flatnonzero(churning_now)
            pop.age_one_month()
            pop.rebirth(reborn)
            if len(reborn):
                fin[reborn] = rng.normal(size=len(reborn))
                eng[reborn] = rng.normal(size=len(reborn))
                # New occupants keep only a shadow of the slot's service
                # quality (they live near the same cells but use the network
                # differently) — this caps the survivorship correlation
                # between tenure and churn risk.
                k = len(reborn)
                g_ps[reborn] = 0.35 * g_ps[reborn] + np.sqrt(
                    1 - 0.35**2
                ) * rng.normal(size=k)
                g_cs[reborn] = 0.35 * g_cs[reborn] + np.sqrt(
                    1 - 0.35**2
                ) * rng.normal(size=k)
            churned_prev = churning_now
            churning_now = churn_next.copy()

        final_recharge = bss.recharge_period_table(
            pop.imsi, self.scale.months + 1, pending_delay
        )
        return TelcoWorld(
            months=months,
            graphs=graphs,
            location_cluster=location_cluster,
            n_location_clusters=n_clusters,
            population=pop,
            final_recharge_period=final_recharge,
            postpaid_rates=postpaid_rates,
            risk_thresholds=thresholds,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _risk(
        self,
        w: SignalWeights,
        fin: np.ndarray,
        eng: np.ndarray,
        ps_now: np.ndarray,
        cs_now: np.ndarray,
        expo_cooc: np.ndarray,
        expo_call: np.ndarray,
        expo_msg: np.ndarray,
        cluster_offset: np.ndarray,
        pop: CustomerPopulation,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        z_tenure = _standardize(-pop.innet_months.astype(np.float64))
        expected_charge = (
            pop.product_price * 0.3
            + pop.voice_level * np.exp(0.35 * eng) * 3.0
            + pop.data_level * np.exp(0.35 * eng) * 2.0
        )
        z_charge = _standardize(-expected_charge)
        interaction = _standardize(z_tenure * z_charge)
        n = len(fin)
        noise = rng.logistic(0, 1, size=n)
        c_fin = w.fin * fin + w.engagement * (-eng) + w.tenure_charge * interaction
        c_qual = w.ps_quality * ps_now + w.cs_quality * cs_now
        c_social = (
            w.cooc_exposure * expo_cooc
            + w.call_exposure * expo_call
            + w.msg_exposure * expo_msg
            + cluster_offset
        )
        risk = c_fin + c_qual + c_social + w.noise * noise
        return risk, c_fin, c_qual, c_social

    @staticmethod
    def _draw_delays(
        churn_next: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Days-to-recharge in next month's recharge period.

        Non-churners recharge quickly (truncated geometric ≤ 15 days);
        churners either never recharge (−1) or only after the 15-day grace.
        The 15-day labeling rule recovers ``churn_next`` exactly.
        """
        n = len(churn_next)
        delays = np.minimum(rng.geometric(0.3, size=n), 15)
        churners = np.flatnonzero(churn_next)
        never = rng.random(len(churners)) < 0.7
        late = 16 + rng.geometric(0.25, size=len(churners))
        delays[churners] = np.where(never, -1, np.minimum(late, 45))
        return delays.astype(np.int64)

    def _emit_month(
        self,
        t: int,
        pop: CustomerPopulation,
        w: SignalWeights,
        rng: np.random.Generator,
        *,
        fin: np.ndarray,
        eng: np.ndarray,
        ps_now: np.ndarray,
        cs_now: np.ndarray,
        churn_next: np.ndarray,
        churning_now: np.ndarray,
        reason: np.ndarray,
        pending_delay: np.ndarray,
        month_effect: float,
        location_cluster: np.ndarray,
        n_clusters: int,
        search_gen,
        complaint_gen,
    ) -> dict[str, Table]:
        n = pop.size
        imsi = pop.imsi

        eng_mult = np.exp(0.35 * eng)
        usage_mult = eng_mult * month_effect
        # Recharge-period customers can only receive calls.
        usage_mult = np.where(churning_now, usage_mult * 0.12, usage_mult)
        # Loud churners have decided to leave and show it; quiet churners
        # leave with only faint warnings.  Which channel a loud churner's
        # signature appears in depends on *why* they are leaving: financial
        # churners (reason 1) show it in balance/recharge (BSS), service-
        # quality churners (reason 2) in KPIs and porting searches (OSS),
        # social churners (reason 3) mostly through the graphs — this split
        # is what gives each feature family its unique lift (Table 2).
        loud = churn_next & (rng.random(n) < w.loud_fraction)
        quiet = churn_next & ~loud
        fin_reason = reason == 1

        def churn_knob(pair: tuple[float, float]) -> np.ndarray:
            return np.where(loud, pair[0], np.where(quiet, pair[1], 0.0))

        def channel_knob(
            pair: tuple[float, float], primary: np.ndarray, cross: float
        ) -> np.ndarray:
            """Full strength on the primary-reason channel, damped otherwise."""
            base = churn_knob(pair)
            return np.where(primary | ~churn_next, base, base * cross)

        decay = churn_knob(w.prechurn_decay) * rng.uniform(0.5, 1.5, n)
        decay = np.clip(decay, 0.0, 0.95)
        usage_mult = usage_mult * (1.0 - decay * 0.17)

        voice_usage = pop.voice_level * usage_mult
        data_usage = pop.data_level * usage_mult
        sms_usage = pop.sms_level * usage_mult

        # Quality in (0, 1): latents are "badness", so flip the sign.
        q_ps = _sigmoid(-ps_now)
        q_cs = _sigmoid(-cs_now)

        # Balance: the paper's #1 feature — low for the financially
        # stressed and collapsing (probabilistically) before churn.  Noise
        # keeps the collapse within the natural balance variation.
        log_balance = (
            np.log(30.0)
            + 0.25 * eng
            - 0.45 * fin
            + rng.normal(0, w.balance_noise, n)
        )
        collapses = rng.random(n) < channel_knob(
            w.balance_decay_prob, fin_reason, 0.35
        )
        background_dip = (~churn_next) & (rng.random(n) < 0.08)
        drop = np.where(collapses, churn_knob(w.balance_decay_log), 0.0)
        drop = np.where(background_dip, 0.7, drop)
        log_balance = log_balance - drop
        balance = np.exp(log_balance)
        balance = np.where(churning_now, balance * 0.3, balance)

        recharge_counts = 1 + rng.poisson(0.8, size=n)
        skip = (
            (rng.random(n) < channel_knob(w.recharge_skip_prob, fin_reason, 0.35))
            | (rng.random(n) < w.recharge_skip_background)
        )
        recharge_counts = np.where(skip, 0, recharge_counts)
        recharge_counts = np.where(churning_now, 0, recharge_counts)
        recharge_amounts = (
            pop.product_price
            * np.exp(-0.25 * fin)
            * rng.uniform(0.7, 1.3, size=n)
        )
        recharge_amounts = np.where(
            churn_next, recharge_amounts * 0.85, recharge_amounts
        )
        recharge_amounts = recharge_amounts * (recharge_counts > 0)

        # Complaints: weak quality signal plus a small pre-churn bump.
        complaint_rate = (
            0.06
            + 0.10 * _sigmoid(0.8 * (ps_now + cs_now))
            + w.complaint_churn_bump * churn_next
        )
        complaint_counts = rng.poisson(complaint_rate)

        # Porting-intent search: the F8 signal, strongest for customers
        # leaving over service quality (they shop for a better network).
        search_intent = np.where(
            rng.random(n)
            < channel_knob(w.search_intent_prob, reason == 2, 0.5),
            1.0,
            0.0,
        )
        search_intent = np.maximum(search_intent, 0.04)
        search_docs = search_gen.sample_docs(search_intent, 1.8, rng)

        complaint_intent = 0.3 * _sigmoid(0.8 * (ps_now + cs_now)) + 0.2 * churn_next
        has_complaint = complaint_counts > 0
        complaint_docs = np.full(n, "", dtype=object)
        idx = np.flatnonzero(has_complaint)
        if len(idx):
            complaint_docs[idx] = complaint_gen.sample_docs(
                complaint_intent[idx], 2.5, rng
            )

        tables = {
            "user_base": bss.user_base_table(pop),
            "cdr_monthly": bss.cdr_monthly_table(
                imsi, voice_usage, sms_usage, data_usage,
                complaint_counts, rng,
            ),
            "cdr_daily": bss.cdr_daily_table(
                imsi, t, voice_usage, sms_usage, data_usage, decay, rng,
            ),
            "billing": bss.billing_table(
                imsi, voice_usage, data_usage, sms_usage,
                balance, recharge_amounts, pop.product_price, rng,
            ),
            "recharge_period": bss.recharge_period_table(imsi, t, pending_delay),
            "recharge_events": bss.recharge_events_table(
                imsi, t, recharge_counts, recharge_amounts, rng
            ),
            "complaints": bss.complaints_table(
                imsi, t, complaint_counts, complaint_docs
            ),
            "search_logs": bss.search_logs_table(imsi, t, search_docs),
            "cs_kpi": oss.cs_kpi_table(imsi, q_cs, voice_usage, rng),
            "ps_kpi": oss.ps_kpi_table(imsi, q_ps, data_usage, rng),
            "mr_locations": oss.mr_locations_table(
                imsi, location_cluster, n_clusters, rng
            ),
        }
        return tables


def _standardize(values: np.ndarray) -> np.ndarray:
    std = values.std()
    if std < 1e-12:
        return np.zeros_like(values)
    return (values - values.mean()) / std


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35, 35)))
