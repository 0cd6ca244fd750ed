"""Customer-centric network optimization: prevent churn by fixing cells.

The paper's Section 5.3, after measuring how much CS/PS service quality
drives churn: "We can use a customer-centric network optimization solution
to improve KPI/KQI experiences of potential churners."  This example runs
that loop as a matched counterfactual experiment:

1. the churn model flags the top potential churners;
2. root-cause attribution keeps those leaving over *service quality* —
   cashback cannot retain a customer whose pages will not load;
3. their cells are "fixed" (a latent quality boost) and the same world seed
   is re-simulated — identical randomness, so any churn difference is the
   intervention's causal effect.

Run:  python examples/network_optimization.py
"""

from __future__ import annotations

from repro import ModelConfig, ScaleConfig
from repro.core.netopt import run_network_optimization_study


def main() -> None:
    scale = ScaleConfig(population=4000, months=9, seed=7)
    print(
        f"Simulating {scale.population} customers x {scale.months} months, "
        "twice (baseline + counterfactual) ..."
    )
    report = run_network_optimization_study(
        scale,
        model=ModelConfig(n_trees=20, min_samples_leaf=20),
        start_month=6,
    )
    print()
    print(report.render())
    print(
        f"\n{report.churn_avoided} churn events avoided among "
        f"{len(report.treated_slots)} treated customers "
        f"({report.treated_reduction:.0%} of their baseline churn), while "
        f"the untreated comparison group drifted by "
        f"{report.comparison_drift:+d} events — the effect is causal, not "
        "selection."
    )
    print(
        "\nTakeaway (the paper's, reproduced): for quality-driven churners "
        "the retention lever is the network itself, not a recharge offer."
    )


if __name__ == "__main__":
    main()
