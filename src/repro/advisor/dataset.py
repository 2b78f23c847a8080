"""Training data for the advisor: the workload zoo and manifest joins.

Training rows are ``(workload, format, partition size) -> total
cycles`` observations.  They come from either

* a sweep run in-process over the :func:`workload_zoo` (the default of
  ``repro advisor train``), or
* one or more JSON-lines run manifests (``repro advisor train
  --from-manifest``), joined to the zoo by *recipe digest* — the same
  content identity the manifests and the serve layer already use — so
  a manifest produced by any machine or worker count trains the same
  model, byte for byte.

The held-out split is seeded and deterministic: the split parameters
are recorded in the trained artifact, and ``repro bench advisor``
reconstructs the exact workloads the model never saw.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ..engine.specs import WorkloadSpec
from ..errors import AdvisorError
from .features import Features, extract_features

__all__ = [
    "TrainingRow",
    "workload_zoo",
    "split_holdout",
    "rows_from_outcome",
    "rows_from_manifest",
    "features_for_specs",
    "rows_digest",
]


@dataclass(frozen=True)
class TrainingRow:
    """One observed cell: a design point's exact cycle count."""

    workload: str
    recipe_digest: str
    format_name: str
    partition_size: int
    total_cycles: int

    def key(self) -> tuple:
        return (
            self.recipe_digest,
            self.workload,
            self.format_name,
            self.partition_size,
        )


def workload_zoo(seed: int = 0) -> tuple[WorkloadSpec, ...]:
    """The seeded workload zoo the advisor trains and is judged on.

    Small matrices spanning the structure axes the formats care about:
    uniform random at several densities, narrow-to-wide bands, and the
    Poisson stencil.  Names embed every parameter, so recipe digests
    and manifest joins are collision-free across sizes and seeds.
    """
    specs: list[WorkloadSpec] = []
    for n in (48, 64, 96):
        for density in (0.02, 0.05, 0.1, 0.2):
            for s in (seed, seed + 1):
                specs.append(
                    WorkloadSpec.random(
                        n, density, seed=s,
                        name=f"zoo-rand-n{n}-d{density:g}-s{s}",
                    )
                )
    for n in (64, 96, 128):
        for width in (2, 3, 5, 9, 17, 33):
            specs.append(
                WorkloadSpec.band(
                    n, width, seed=seed,
                    name=f"zoo-band-n{n}-w{width}-s{seed}",
                )
            )
    for grid in (5, 6, 7, 8, 9, 10, 11, 12, 13):
        specs.append(
            WorkloadSpec.poisson(grid, name=f"zoo-poisson-{grid}")
        )
    return tuple(specs)


def split_holdout(
    specs: Sequence[WorkloadSpec],
    fraction: float = 0.25,
    seed: int = 0,
) -> tuple[tuple[WorkloadSpec, ...], tuple[WorkloadSpec, ...]]:
    """Deterministic (train, held-out) split by workload.

    The split is by whole workloads — never by cells — so held-out
    accuracy measures generalization to unseen matrices, not
    interpolation within one.
    """
    if not 0.0 < fraction < 1.0:
        raise AdvisorError(
            f"holdout fraction must be in (0, 1), got {fraction}"
        )
    if len(specs) < 2:
        raise AdvisorError(
            "need >= 2 workloads to split out a held-out set"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(specs))
    n_holdout = min(
        max(1, round(fraction * len(specs))), len(specs) - 1
    )
    held = set(int(i) for i in order[:n_holdout])
    train = tuple(s for i, s in enumerate(specs) if i not in held)
    holdout = tuple(s for i, s in enumerate(specs) if i in held)
    return train, holdout


def rows_from_outcome(
    outcome, specs: Sequence[WorkloadSpec]
) -> list[TrainingRow]:
    """Training rows from a finished sweep of ``specs``."""
    digest_by_name = {spec.name: spec.recipe_digest for spec in specs}
    rows = []
    for result in outcome.results:
        digest = digest_by_name.get(result.workload)
        if digest is None:
            continue
        rows.append(
            TrainingRow(
                workload=result.workload,
                recipe_digest=digest,
                format_name=result.format_name,
                partition_size=result.partition_size,
                total_cycles=int(result.total_cycles),
            )
        )
    return rows


def rows_from_manifest(
    path: str | Path, specs: Sequence[WorkloadSpec]
) -> tuple[list[TrainingRow], list[str]]:
    """Join one run manifest against ``specs`` by recipe digest.

    Returns ``(rows, skipped)`` where ``skipped`` lists manifest
    workload names whose recipe digest matches none of ``specs`` —
    foreign cells are reported, not silently trained on.
    """
    from ..observability import read_manifest

    manifest = read_manifest(path)
    recipes = manifest.recipes()
    spec_by_digest = {spec.recipe_digest: spec for spec in specs}
    rows: list[TrainingRow] = []
    skipped: set[str] = set()
    for cell in manifest.cells:
        digest = recipes.get(cell["workload"], "")
        spec = spec_by_digest.get(digest)
        if spec is None:
            skipped.add(cell["workload"])
            continue
        rows.append(
            TrainingRow(
                workload=spec.name,
                recipe_digest=digest,
                format_name=cell["format"],
                partition_size=int(cell["partition_size"]),
                total_cycles=int(cell["total_cycles"]),
            )
        )
    return rows, sorted(skipped)


def features_for_specs(
    specs: Iterable[WorkloadSpec],
    feature_p: int,
    block_size: int = 4,
    sample_cap: int = 8192,
) -> dict[str, Features]:
    """Extracted features per recipe digest (matrix built once each)."""
    table: dict[str, Features] = {}
    for spec in specs:
        if spec.recipe_digest in table:
            continue
        matrix = spec.build().matrix
        table[spec.recipe_digest] = extract_features(
            matrix, feature_p, block_size, sample_cap
        )
    return table


def rows_digest(rows: Iterable[TrainingRow]) -> str:
    """Content digest of a row set, order-independent.

    Stamped into the artifact's ``training`` block: two trainings that
    saw the same observations — whatever the sweep worker count or
    manifest file order — carry the same digest.
    """
    payload = repr(
        sorted((row.key(), row.total_cycles) for row in rows)
    )
    return hashlib.blake2b(
        payload.encode("utf-8"), digest_size=16
    ).hexdigest()
