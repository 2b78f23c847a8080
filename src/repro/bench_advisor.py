"""Sampled advise against exact advise: ``repro bench advisor``.

``recommend(fast=True)`` characterizes a band sample of the matrix
with the exact model (:func:`~repro.core.recommend.band_sample`).
This suite measures what the sample costs in accuracy and buys in
time, per matrix, on the Table 1 stand-ins with n >= 2048 and the
three n = 2048 ``lat-*`` matrices:

* **Spearman rank correlation** between the sampled and exact latency
  of every (format, partition size) design point (average-rank ties,
  pure numpy);
* **top-1 / top-3 agreement**: is the sampled pick the exact pick, or
  in the exact top three;
* **regret**: exact cycles of the sampled pick over the exact best,
  minus 1;
* **latency**: wall time of exact and sampled advise, best of
  ``repeats``.

Every suite matrix must actually be sampled: a matrix that ran exact
would score exact against exact, so it stops the run.  The gates are
mean Spearman >= 0.9, top-3 agreement >= 0.95 and a geomean speedup
>= 1.5.  The suite has no quick mode: ``--quick`` runs full size with
all three gates.
"""

from __future__ import annotations

import math
import time
from typing import Sequence

import numpy as np

from .core.recommend import (
    SAMPLE_BAND_ROWS,
    SAMPLE_EVERY,
    SAMPLE_FLOOR_BANDS,
    SAMPLE_OFFSET,
    recommend,
)
from .engine.specs import WorkloadSpec
from .envelope import Gate, Param, Suite
from .errors import SimulationError
from .formats.registry import PAPER_FORMATS
from .partition import PARTITION_SIZES
from .workloads import TABLE1_IDS

__all__ = [
    "SUITE",
    "advisor_sections",
    "default_latency_specs",
    "rankdata",
    "spearman",
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
    """The three ``lat-*`` matrices, seeds ``seed`` to ``seed + 2``."""
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


def _suite_specs(seed: int) -> tuple[WorkloadSpec, ...]:
    """The stand-ins with n >= 2048, then the ``lat-*`` matrices."""
    floor = SAMPLE_FLOOR_BANDS * SAMPLE_BAND_ROWS
    standins = tuple(
        spec
        for spec in map(WorkloadSpec.standin, TABLE1_IDS)
        if spec.build().matrix.n_rows >= floor
    )
    return standins + default_latency_specs(floor, seed)


def _key(result) -> tuple[str, int]:
    return (result.format_name, result.partition_size)


def _timed(run, repeats: int):
    """Best wall seconds over ``repeats`` calls, and the last answer."""
    best = math.inf
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        answer = run()
        best = min(best, time.perf_counter() - start)
    return best, answer


def _compare(spec: WorkloadSpec, repeats: int) -> dict:
    matrix = spec.build().matrix
    exact_s, exact = _timed(
        lambda: recommend(matrix, formats=PAPER_FORMATS), repeats
    )
    sampled_s, sampled = _timed(
        lambda: recommend(matrix, formats=PAPER_FORMATS, fast=True),
        repeats,
    )
    if sampled.sample_every == 1:
        raise SimulationError(
            f"{spec.name}: sampled advise ran exact, so its accuracy "
            "would compare exact against exact"
        )
    exact_cycles = {
        _key(r): r.total_cycles for r in exact.candidates + exact.rejected
    }
    sampled_cycles = {
        _key(r): sampled.cycles(r)
        for r in sampled.candidates + sampled.rejected
    }
    keys = sorted(exact_cycles)
    exact_top = [_key(r) for r in exact.ranking()[:3]]
    pick = _key(sampled.best)
    return {
        "workload": spec.name,
        "n": matrix.n_rows,
        "nnz": matrix.nnz,
        "spearman": spearman(
            [exact_cycles[k] for k in keys],
            [sampled_cycles[k] for k in keys],
        ),
        "exact_best": list(exact_top[0]),
        "sampled_best": list(pick),
        "top1": pick == exact_top[0],
        "top3": pick in exact_top,
        "regret": exact_cycles[pick] / exact_cycles[exact_top[0]] - 1.0,
        "exact_ms": exact_s * 1e3,
        "sampled_ms": sampled_s * 1e3,
        "speedup": exact_s / sampled_s if sampled_s else math.inf,
    }


def _geomean(values: Sequence[float]) -> float:
    finite = [v for v in values if v > 0 and math.isfinite(v)]
    if not finite:
        return 0.0
    return float(
        math.exp(sum(math.log(v) for v in finite) / len(finite))
    )


def advisor_sections(
    seed: int, repeats: int, specs: Sequence[WorkloadSpec] | None = None
) -> dict:
    """Score sampled against exact advise on every suite matrix."""
    rows = [
        _compare(spec, repeats)
        for spec in (_suite_specs(seed) if specs is None else specs)
    ]
    speedups = [row["speedup"] for row in rows]
    return {
        "config": {
            "objective": "latency",
            "formats": list(PAPER_FORMATS),
            "partitions": list(PARTITION_SIZES),
            "sample": {
                "band_rows": SAMPLE_BAND_ROWS,
                "every": SAMPLE_EVERY,
                "offset": SAMPLE_OFFSET,
                "floor_bands": SAMPLE_FLOOR_BANDS,
            },
            "n_workloads": len(rows),
        },
        "accuracy": {
            "spearman_mean": float(np.mean([r["spearman"] for r in rows])),
            "spearman_min": float(np.min([r["spearman"] for r in rows])),
            "top1_agreement": float(np.mean([r["top1"] for r in rows])),
            "top3_agreement": float(np.mean([r["top3"] for r in rows])),
            "regret_max": float(np.max([r["regret"] for r in rows])),
        },
        "latency": {
            "exact_ms_geomean": _geomean([r["exact_ms"] for r in rows]),
            "sampled_ms_geomean": _geomean(
                [r["sampled_ms"] for r in rows]
            ),
            "speedup_geomean": _geomean(speedups),
            "speedup_min": float(min(speedups)),
        },
        "per_workload": rows,
    }


def _describe(report: dict) -> list[str]:
    accuracy = report["accuracy"]
    latency = report["latency"]
    sample = report["config"]["sample"]
    lines = [
        f"sampled (every {sample['every']}th band of "
        f"{sample['band_rows']} rows) vs exact advise over "
        f"{report['config']['n_workloads']} matrices:",
    ]
    for row in report["per_workload"]:
        lines.append(
            f"  {row['workload']}: spearman {row['spearman']:.3f}, "
            f"top-1 {'yes' if row['top1'] else 'no'}, "
            f"regret {row['regret']:.1%}, {row['exact_ms']:.1f} -> "
            f"{row['sampled_ms']:.1f} ms"
        )
    lines += [
        f"spearman: mean {accuracy['spearman_mean']:.4f}, "
        f"min {accuracy['spearman_min']:.4f}",
        f"agreement: top-1 {accuracy['top1_agreement']:.3f}, "
        f"top-3 {accuracy['top3_agreement']:.3f}; "
        f"max regret {accuracy['regret_max']:.1%}",
        f"speedup: geomean {latency['speedup_geomean']:.2f}x, "
        f"min {latency['speedup_min']:.2f}x",
    ]
    return lines


#: ``repro bench advisor``; the seed picks the ``lat-*`` matrices.
SUITE = Suite(
    name="advisor",
    help="measure sampled advise against exact advise",
    seed=11,
    output="BENCH_advisor.json",
    params=(
        Param("repeats", 3, "timing repeats, best-of reported"),
    ),
    body=advisor_sections,
    gates=(
        Gate("spearman_mean", "accuracy.spearman_mean", ">=", 0.9),
        Gate("top3_agreement", "accuracy.top3_agreement", ">=", 0.95),
        Gate("speedup_geomean", "latency.speedup_geomean", ">=", 1.5),
    ),
    describe=_describe,
)
