"""The measured accuracy contract: ``repro bench advisor``.

A trained advisor is only trustworthy if its error is measured and
pinned.  This module computes, on the held-out workload split the
model never trained on:

* **Spearman rank correlation** between the predicted and exact
  rankings of every (format, partition size) design point, per
  workload (average-rank ties, pure numpy);
* **top-1 / top-3 agreement** — does the predicted winner match the
  exact winner / land in the exact top three;
* **latency** — wall time of the fast path vs the exact advise path
  on paper-scale matrices, best-of-``repeats``.

The suite writes a ``bench/v2`` report, golden-schema tested, whose
gates are held-out mean Spearman >= 0.9, top-3 agreement >= 0.95 and
a minimum fast-path speedup >= 50x.  The suite has no quick mode:
``--quick`` runs full size with all three gates.
"""

from __future__ import annotations

import math
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from ..core.recommend import recommend
from ..engine.specs import WorkloadSpec
from ..envelope import Gate, Param, Suite
from ..errors import AdvisorError, AdvisorModelError
from .model import AdvisorModel
from .predict import recommend_fast

__all__ = [
    "SUITE",
    "rankdata",
    "spearman",
    "default_latency_specs",
    "bench_advisor",
]


def rankdata(values: Sequence[float]) -> np.ndarray:
    """Average ranks (1-based), ties shared — scipy-free rankdata."""
    array = np.asarray(values, dtype=np.float64)
    order = np.argsort(array, kind="stable")
    ranks = np.empty(array.size, dtype=np.float64)
    ranks[order] = np.arange(1, array.size + 1, dtype=np.float64)
    # average the rank across each tied group
    sorted_vals = array[order]
    index = 0
    while index < array.size:
        stop = index
        while (
            stop + 1 < array.size
            and sorted_vals[stop + 1] == sorted_vals[index]
        ):
            stop += 1
        if stop > index:
            ranks[order[index:stop + 1]] = (index + stop) / 2.0 + 1.0
        index = stop + 1
    return ranks


def spearman(a: Sequence[float], b: Sequence[float]) -> float:
    """Spearman rank correlation with average-rank tie handling."""
    ra, rb = rankdata(a), rankdata(b)
    if ra.size < 2:
        return 1.0
    da = ra - ra.mean()
    db = rb - rb.mean()
    denom = math.sqrt(float(da @ da) * float(db @ db))
    if denom == 0.0:
        return 1.0
    return float(da @ db) / denom


def default_latency_specs(
    n: int = 2048, seed: int = 11
) -> tuple[WorkloadSpec, ...]:
    """Paper-scale matrices for the exact-vs-fast wall-time contest.

    Large enough that the exact path's per-partition-size profiling
    dominates, which is exactly the cost the advisor amortizes away.
    The three matrices use seeds ``seed``, ``seed + 1``, ``seed + 2``.
    """
    return (
        WorkloadSpec.random(
            n, 0.05, seed=seed, name=f"lat-rand-n{n}-d0.05"
        ),
        WorkloadSpec.random(
            n, 0.01, seed=seed + 1, name=f"lat-rand-n{n}-d0.01"
        ),
        WorkloadSpec.band(
            n, 256, seed=seed + 2, name=f"lat-band-n{n}-w256"
        ),
    )


def _best_time(run, repeats: int) -> float:
    best = math.inf
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def _exact_cycles(
    matrix, formats, partitions
) -> dict[tuple[str, int], float]:
    result = recommend(
        matrix, "latency", formats=formats, partition_sizes=partitions
    )
    return {
        (r.format_name, r.partition_size): float(r.total_cycles)
        for r in result.candidates + result.rejected
    }


def bench_advisor(
    model: AdvisorModel,
    heldout: Sequence[WorkloadSpec],
    *,
    repeats: int = 3,
    latency_specs: Sequence[WorkloadSpec] | None = None,
) -> dict:
    """Measure the accuracy contract on the held-out split.

    Returns the report sections; :data:`SUITE` wraps them in the
    ``bench/v2`` envelope.
    """
    if not heldout:
        raise AdvisorError("need >= 1 held-out workload to benchmark")
    formats = model.formats
    partitions = model.partitions
    keys = [
        (name, p)
        for p in sorted(partitions)
        for name in sorted(formats)
    ]
    per_workload = []
    for spec in heldout:
        matrix = spec.build().matrix
        exact = _exact_cycles(matrix, formats, partitions)
        predicted = model.predict_matrix(matrix)
        exact_values = [exact[k] for k in keys]
        predicted_values = [predicted[k] for k in keys]
        exact_order = sorted(keys, key=lambda k: exact[k])
        predicted_best = min(keys, key=lambda k: predicted[k])
        per_workload.append(
            {
                "workload": spec.name,
                "recipe_digest": spec.recipe_digest,
                "spearman": spearman(exact_values, predicted_values),
                "exact_best": list(exact_order[0]),
                "predicted_best": list(predicted_best),
                "top1": predicted_best == exact_order[0],
                "top3": predicted_best in exact_order[:3],
            }
        )

    latency_rows = []
    for spec in latency_specs or default_latency_specs():
        matrix = spec.build().matrix
        exact_s = _best_time(
            lambda: recommend(
                matrix, "latency",
                formats=formats, partition_sizes=partitions,
            ),
            repeats,
        )
        fast_s = _best_time(
            lambda: recommend_fast(
                matrix, model, margin_threshold=0.0, verify=False
            ),
            repeats,
        )
        latency_rows.append(
            {
                "workload": spec.name,
                "nnz": matrix.nnz,
                "exact_ms": exact_s * 1e3,
                "fast_ms": fast_s * 1e3,
                "speedup": exact_s / fast_s if fast_s else math.inf,
            }
        )

    spearmen = [w["spearman"] for w in per_workload]
    speedups = [r["speedup"] for r in latency_rows]
    return {
        "model": {
            "digest": model.digest,
            "feature_p": model.feature_p,
            "n_features": len(model.mean),
            "n_heads": len(model.heads),
            "ridge_lambda": model.ridge_lambda,
            "training": dict(model.training),
        },
        "config": {
            "objective": "latency",
            "formats": list(formats),
            "partitions": list(partitions),
            "n_heldout": len(per_workload),
            "n_cells": len(keys),
            "repeats": repeats,
        },
        "accuracy": {
            "spearman_mean": float(np.mean(spearmen)),
            "spearman_min": float(np.min(spearmen)),
            "top1_agreement": float(
                np.mean([w["top1"] for w in per_workload])
            ),
            "top3_agreement": float(
                np.mean([w["top3"] for w in per_workload])
            ),
        },
        "latency": {
            "per_workload": latency_rows,
            "exact_ms_geomean": _geomean(
                [r["exact_ms"] for r in latency_rows]
            ),
            "fast_ms_geomean": _geomean(
                [r["fast_ms"] for r in latency_rows]
            ),
            "speedup_geomean": _geomean(speedups),
            "speedup_min": float(min(speedups, default=0.0)),
        },
        "per_workload": per_workload,
    }


def _geomean(values: Sequence[float]) -> float:
    finite = [v for v in values if v > 0 and math.isfinite(v)]
    if not finite:
        return 0.0
    return float(
        math.exp(sum(math.log(v) for v in finite) / len(finite))
    )


def advisor_sections(
    seed: int, model: str, repeats: int, latency_n: int
) -> dict:
    """Load the model artifact and bench it on its held-out split."""
    from .model import load_model
    from .dataset import split_holdout, workload_zoo

    if not Path(model).is_file():
        raise AdvisorModelError(
            f"--model not found: {model} (train one with "
            "`repro advisor train --out PATH`)"
        )
    loaded = load_model(model)
    meta = loaded.training
    zoo = workload_zoo(int(meta.get("zoo_seed", 0)))
    _, heldout = split_holdout(
        zoo,
        float(meta.get("holdout_fraction", 0.25)),
        int(meta.get("split_seed", 0)),
    )
    sections = bench_advisor(
        loaded,
        heldout,
        repeats=repeats,
        latency_specs=default_latency_specs(latency_n, seed),
    )
    # the suite records ``repeats`` as a parameter already
    del sections["config"]["repeats"]
    return sections


def _describe(report: dict) -> list[str]:
    accuracy = report["accuracy"]
    latency = report["latency"]
    lines = [
        f"held-out accuracy over {report['config']['n_heldout']} "
        f"workloads x {report['config']['n_cells']} design points:",
        f"  spearman: mean {accuracy['spearman_mean']:.4f}, "
        f"min {accuracy['spearman_min']:.4f}",
        f"  agreement: top-1 {accuracy['top1_agreement']:.3f}, "
        f"top-3 {accuracy['top3_agreement']:.3f}",
        "advise latency (exact vs fast path):",
    ]
    for row in latency["per_workload"]:
        lines.append(
            f"  {row['workload']}: {row['exact_ms']:.1f} ms -> "
            f"{row['fast_ms']:.2f} ms ({row['speedup']:.0f}x)"
        )
    lines.append(
        f"  speedup: geomean {latency['speedup_geomean']:.0f}x, "
        f"min {latency['speedup_min']:.0f}x"
    )
    return lines


#: ``repro bench advisor``; the seed picks the latency matrices.
SUITE = Suite(
    name="advisor",
    help="measure the advisor's held-out accuracy and fast-path "
    "speedup",
    seed=11,
    output="BENCH_advisor.json",
    params=(
        Param(
            "model", "advisor_model.json",
            "advisor_model/v1 artifact to benchmark",
        ),
        Param("repeats", 3, "latency timing repeats, best-of reported"),
        Param("latency_n", 2048,
              "matrix dimension of the exact-vs-fast latency contest"),
    ),
    body=advisor_sections,
    gates=(
        Gate("spearman_mean", "accuracy.spearman_mean", ">=", 0.9),
        Gate("top3_agreement", "accuracy.top3_agreement", ">=", 0.95),
        Gate("speedup_min", "latency.speedup_min", ">=", 50),
    ),
    describe=_describe,
)
