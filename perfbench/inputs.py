"""Seeded inputs of the three workloads.

Every function here is a pure function of the seed: the same seed
gives the same recipes (and so the same recipe digests) on every run
and machine.  The program receives only these generated recipes; it
materializes the matrices itself, inside the timed calls.
"""

from __future__ import annotations

import hashlib
from random import Random

from repro.engine import WorkloadSpec
from repro.serve.loadgen import plan_requests

__all__ = [
    "SERVE_PLAN_SIZE",
    "SWEEP_HEAVY_BATCH",
    "advise_specs",
    "sweep_batches",
    "serve_plan",
    "recipe_digest",
]

#: Matrix dimension of the exact-advise workload.
ADVISE_N = 2048

#: The sweep set: batches x matrices per batch.
SWEEP_BATCHES = 10
SWEEP_BATCH_SIZE = 10
#: The batch of the largest matrices (n 55-127): ``heavy_p50_ms`` on
#: sweep-checkpoint times its checkpointed sweep alone.
SWEEP_HEAVY_BATCH = 7

#: Serve requests planned up front; a run that sends more starts over.
SERVE_PLAN_SIZE = 30_000


def _rng(workload: str, seed: int) -> Random:
    return Random(f"{workload}:{seed}")


def advise_specs(seed: int) -> list[tuple[str, WorkloadSpec]]:
    """One advise round: (class, spec) for the three ``lat-*`` shapes.

    ``light`` is the sparsest random matrix, ``heavy`` the densest;
    the band matrix sits between them.  Only the matrix seeds vary
    with ``seed``, so every seed does the same amount of work.
    """
    rng = _rng("advise", seed)
    return [
        ("light", WorkloadSpec.random(
            ADVISE_N, 0.01, seed=rng.randrange(2**31),
            name=f"lat-rand-n{ADVISE_N}-d0.01")),
        ("band", WorkloadSpec.band(
            ADVISE_N, 256, seed=rng.randrange(2**31),
            name=f"lat-band-n{ADVISE_N}-w256")),
        ("heavy", WorkloadSpec.random(
            ADVISE_N, 0.05, seed=rng.randrange(2**31),
            name=f"lat-rand-n{ADVISE_N}-d0.05")),
    ]


def sweep_batches(seed: int) -> list[list[WorkloadSpec]]:
    """100 small random/band matrices (n 48-127) in 10 equal batches.

    Sizes, densities and band widths form a fixed grid, so every seed
    and every batch asks for about the same work; the seed picks the
    matrix contents.  Batch ``b`` holds one matrix per size stratum
    ``j``, random for even ``j`` and band for odd ``j``.
    """
    rng = _rng("sweep", seed)
    batches = []
    for b in range(SWEEP_BATCHES):
        batch = []
        for j in range(SWEEP_BATCH_SIZE):
            n = 48 + 8 * j + b % 8
            name = f"sweep-{b}-{j}"
            if j % 2:
                width = 2 + (3 * b + j) % 15
                batch.append(WorkloadSpec.band(
                    n, width, seed=rng.randrange(2**31), name=name))
            else:
                density = round(0.02 + 0.02 * ((7 * b + j) % 10), 2)
                batch.append(WorkloadSpec.random(
                    n, density, seed=rng.randrange(2**31), name=name))
        batches.append(batch)
    return batches


def serve_plan(seed: int, size: int = SERVE_PLAN_SIZE):
    """loadgen's seeded ``mixed`` plan: half hot-pool reads, a quarter
    unique computes, a quarter ``/advise`` on the hot pool."""
    return plan_requests("mixed", size, seed)


def recipe_digest(workload: str, seed: int) -> str:
    """One digest over every recipe the seed generates."""
    if workload == "advise-exact":
        parts = [spec.recipe_digest for _, spec in advise_specs(seed)]
    elif workload == "sweep-checkpoint":
        parts = [
            spec.recipe_digest
            for batch in sweep_batches(seed) for spec in batch
        ]
    else:
        parts = [request.body().decode() for request in serve_plan(seed)]
    return hashlib.blake2b(
        "\n".join(parts).encode(), digest_size=16
    ).hexdigest()
