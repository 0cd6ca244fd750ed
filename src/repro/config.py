"""Global configuration for the reproduction.

The paper operates on roughly 2.1 million prepaid customers per month and
reports top-``U`` cutoffs of 50k..400k.  We run on a scaled-down synthetic
population; :class:`ScaleConfig` keeps the mapping between the paper's
absolute cutoffs and population *fractions* so every experiment can report
cutoffs at the same fraction of its own population.

Paper constants (churn labeling rule, sliding-window length, classifier
hyper-parameters from Section 4.2) live in :class:`PaperConstants` so that the
rest of the code never hard-codes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError

#: Population size of the operator in the paper (Table 1, ~2.1M per month).
PAPER_POPULATION = 2_100_000

#: Top-U cutoffs reported in Table 3 of the paper.
PAPER_TOP_U = (50_000, 100_000, 150_000, 200_000, 250_000, 300_000, 350_000, 400_000)


@dataclass(frozen=True)
class PaperConstants:
    """Constants fixed by the paper's Section 4 and 5."""

    #: A prepaid customer who does not recharge within this many days of the
    #: recharge period is labeled a churner (Section 5, labeling rule).
    churn_grace_days: int = 15

    #: Length of the sliding window in months (Figure 6).
    window_months: int = 4

    #: PageRank damping factor (Section 4.1.2).
    pagerank_damping: float = 0.85

    #: Number of LDA topics per corpus (Section 4.1.3).
    lda_topics: int = 10

    #: Number of second-order features selected by LIBFM (Section 4.1.4).
    second_order_features: int = 20

    #: Random-forest size in the deployed system (Section 4.2).
    rf_trees: int = 500

    #: Minimum samples per RF leaf (Section 4.2).
    rf_min_leaf: int = 100

    #: Learning rate shared by GBDT / LIBFM / LIBLINEAR (Section 5.8).
    learning_rate: float = 0.1

    #: Average prepaid churn rate reported in Figure 1 / Table 1.
    prepaid_churn_rate: float = 0.092

    #: Average postpaid churn rate reported in Figure 1.
    postpaid_churn_rate: float = 0.052


#: Module-level singleton with the paper's constants.
PAPER = PaperConstants()


@dataclass(frozen=True)
class ScaleConfig:
    """Maps the paper's absolute population numbers onto a smaller run.

    Parameters
    ----------
    population:
        Number of synthetic prepaid customers per month.
    months:
        Number of simulated months (the paper uses 9).
    seed:
        Master random seed for the simulation.
    """

    population: int = 2_000
    months: int = 9
    seed: int = 7

    def __post_init__(self) -> None:
        if self.population < 100:
            raise ConfigError(f"population must be >= 100, got {self.population}")
        if self.months < 1:
            raise ConfigError(f"months must be >= 1, got {self.months}")

    @property
    def scale_factor(self) -> float:
        """Ratio of our population to the paper's (~2.1M)."""
        return self.population / PAPER_POPULATION

    def scaled_u(self, paper_u: int) -> int:
        """Translate a paper top-``U`` cutoff to this population.

        ``scaled_u(50_000)`` returns the cutoff covering the same population
        fraction (≈2.4%) of our synthetic customer base, with a floor of 1.
        """
        if paper_u <= 0:
            raise ConfigError(f"paper_u must be positive, got {paper_u}")
        return max(1, round(paper_u * self.scale_factor))

    def scaled_top_u(self) -> tuple[int, ...]:
        """All Table 3 cutoffs translated to this population."""
        return tuple(self.scaled_u(u) for u in PAPER_TOP_U)


@dataclass(frozen=True)
class ModelConfig:
    """Hyper-parameters for the classifiers, scaled for a single-core run.

    The paper trains 500 trees on ~2M instances; at our scale far fewer trees
    saturate.  All experiments accept a ``ModelConfig`` so the full paper
    settings remain one constructor call away.
    """

    n_trees: int = 30
    min_samples_leaf: int = 25
    max_depth: int = 12
    learning_rate: float = PAPER.learning_rate
    gbdt_trees: int = 60
    fm_factors: int = 8
    fm_epochs: int = 12
    linear_epochs: int = 30
    seed: int = 13

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ConfigError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.min_samples_leaf < 1:
            raise ConfigError(
                f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}"
            )
        if not 0 < self.learning_rate <= 1:
            raise ConfigError(
                f"learning_rate must be in (0, 1], got {self.learning_rate}"
            )

    @classmethod
    def paper_settings(cls) -> "ModelConfig":
        """The exact hyper-parameters of the deployed system (Section 4.2)."""
        return cls(n_trees=PAPER.rf_trees, min_samples_leaf=PAPER.rf_min_leaf)


@dataclass(frozen=True)
class RunConfig:
    """Bundle of everything an experiment runner needs."""

    scale: ScaleConfig = field(default_factory=ScaleConfig)
    model: ModelConfig = field(default_factory=ModelConfig)

    @classmethod
    def small(cls, seed: int = 7) -> "RunConfig":
        """Test-sized run: ~1.2k customers, light models."""
        return cls(
            scale=ScaleConfig(population=1_200, months=9, seed=seed),
            model=ModelConfig(n_trees=12, min_samples_leaf=15, max_depth=10),
        )

    @classmethod
    def bench(cls, seed: int = 7) -> "RunConfig":
        """Benchmark-sized run: ~6k customers."""
        return cls(
            scale=ScaleConfig(population=6_000, months=9, seed=seed),
            model=ModelConfig(n_trees=24, min_samples_leaf=25, max_depth=12),
        )
