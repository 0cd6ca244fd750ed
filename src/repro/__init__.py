"""repro — a full reproduction of "Telco Churn Prediction with Big Data".

SIGMOD 2015, Huang et al. (Huawei Noah's Ark Lab / Soochow University).

The package rebuilds the paper's whole stack in Python:

* :mod:`repro.dataplat` — a mini big-data platform (block store, columnar
  tables, SQL engine, Hive-like catalog, sharding, ETL);
* :mod:`repro.datagen` — a synthetic telco world whose BSS/OSS tables and
  churn outcomes share calibrated latent drivers;
* :mod:`repro.ml` — from-scratch learners: random forest, GBDT, logistic
  regression, factorization machines, LDA, PageRank, label propagation;
* :mod:`repro.features` — the paper's nine feature families F1..F9;
* :mod:`repro.core` — churn labeling, the sliding-window protocol, the
  end-to-end pipeline, retention campaigns, and one experiment runner per
  table/figure of the paper.

Quickstart::

    from repro import RunConfig, TelcoSimulator, ChurnPipeline
    cfg = RunConfig.small()
    world = TelcoSimulator(cfg.scale).run()
    pipeline = ChurnPipeline(world, cfg.scale, model=cfg.model)
    results = pipeline.run_windows(n_train_months=1, test_months=[6])
    print(results[0].auc, results[0].pr_auc)
"""

from .config import ModelConfig, PaperConstants, RunConfig, ScaleConfig, PAPER
from .core import ChurnPipeline, ChurnPredictor, RetentionCampaign
from .datagen import SignalWeights, TelcoSimulator, TelcoWorld
from .features import WideTableBuilder

__version__ = "1.0.0"

__all__ = [
    "ChurnPipeline",
    "ChurnPredictor",
    "ModelConfig",
    "PAPER",
    "PaperConstants",
    "RetentionCampaign",
    "RunConfig",
    "ScaleConfig",
    "SignalWeights",
    "TelcoSimulator",
    "TelcoWorld",
    "WideTableBuilder",
    "__version__",
]
