"""The learned fast-path advisor (ROADMAP item 3).

Predicts per-(format, partition size) latency from cheap matrix
features instead of simulating every candidate, with the exact
vectorized model as verifier/fallback when the predicted margin is
too small to trust:

* :mod:`~repro.advisor.features` — bounded, deterministic feature
  extraction (one subsampled profile pass);
* :mod:`~repro.advisor.model` — the ``advisor_model/v1`` artifact
  (per-design-point ridge heads, canonical JSON, self-verifying
  digest);
* :mod:`~repro.advisor.dataset` — the seeded workload zoo, manifest
  joins by recipe digest, and the deterministic held-out split;
* :mod:`~repro.advisor.train` — closed-form ridge training, byte
  identical across worker counts;
* :mod:`~repro.advisor.predict` — :func:`recommend_fast`, the
  O(features) ranking with margin-gated exact verification;
* :mod:`~repro.advisor.bench` — the accuracy contract (Spearman,
  top-1/top-3, exact-vs-fast latency), the gated ``repro bench
  advisor`` suite.
"""

from .bench import (
    bench_advisor,
    default_latency_specs,
    rankdata,
    spearman,
)
from .dataset import (
    TrainingRow,
    features_for_specs,
    rows_digest,
    rows_from_manifest,
    rows_from_outcome,
    split_holdout,
    workload_zoo,
)
from .features import (
    DEFAULT_FEATURE_P,
    FEATURE_NAMES,
    SAMPLE_CAP,
    Features,
    MatrixSummary,
    extract_features,
    features_from_table,
    matrix_summary,
    sample_matrix,
)
from .model import (
    ADVISOR_MODEL_SCHEMA,
    AdvisorModel,
    RidgeHead,
    load_model,
    model_from_payload,
    save_model,
)
from .predict import FastAdvice, recommend_fast, static_estimates
from .train import sweep_training_rows, train_model

__all__ = [
    "bench_advisor",
    "default_latency_specs",
    "rankdata",
    "spearman",
    "TrainingRow",
    "features_for_specs",
    "rows_digest",
    "rows_from_manifest",
    "rows_from_outcome",
    "split_holdout",
    "workload_zoo",
    "DEFAULT_FEATURE_P",
    "FEATURE_NAMES",
    "SAMPLE_CAP",
    "Features",
    "MatrixSummary",
    "extract_features",
    "features_from_table",
    "matrix_summary",
    "sample_matrix",
    "ADVISOR_MODEL_SCHEMA",
    "AdvisorModel",
    "RidgeHead",
    "load_model",
    "model_from_payload",
    "save_model",
    "FastAdvice",
    "recommend_fast",
    "static_estimates",
    "sweep_training_rows",
    "train_model",
]
