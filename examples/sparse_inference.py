#!/usr/bin/env python
"""Machine-learning scenario: pruned MLP inference + embedding lookups.

Section 3.3's third domain.  A dense MLP is magnitude-pruned into the
paper's "machine-learning density regime" (0.1 - 0.5), inference runs
through encoded sparse formats, and the hardware model shows why the
paper recommends small partitions (8x8 / 16x16) and block formats for
these denser workloads.  A recommendation-style embedding reduction
closes the example.

Run:  python examples/sparse_inference.py
"""

from __future__ import annotations

try:
    import repro  # noqa: F401 — probe for an installed package
except ModuleNotFoundError:  # running from a source checkout
    import pathlib
    import sys

    sys.path.insert(
        0, str(pathlib.Path(__file__).resolve().parents[1] / "src")
    )

import numpy as np

from repro import SpmvSimulator, HardwareConfig
from repro.analysis import format_table
from repro.apps import (
    SparseLayer,
    SparseMlp,
    embedding_reduction,
    identity,
    prune_dense_weights,
)
from repro.workloads import random_matrix


def build_pruned_mlp(keep: float, format_name: str) -> SparseMlp:
    rng = np.random.default_rng(9)
    sizes = [128, 96, 64, 10]
    layers = []
    for index, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        dense = rng.normal(size=(n_out, n_in))
        weights = prune_dense_weights(dense, keep_fraction=keep)
        last = index == len(sizes) - 2
        layers.append(
            SparseLayer(
                weights,
                activation=identity if last else np.tanh,
                format_name=format_name,
                partition_size=16,
            )
        )
    return SparseMlp(layers)


def main() -> None:
    keep = 0.25
    mlp = build_pruned_mlp(keep, "csr")
    x = np.random.default_rng(1).normal(size=128)
    logits = mlp.forward(x)
    print(
        f"pruned MLP (keep {keep:.0%} of weights) logits: "
        f"argmax={int(np.argmax(logits))}"
    )
    other = build_pruned_mlp(keep, "bcsr")
    assert np.allclose(logits, other.forward(x))
    print("CSR and BCSR inference agree.")
    print()

    # paper insight: for density > 0.1, partitioning beyond 8x8/16x16
    # hurts.  Sweep partition sizes on an ML-regime weight matrix.
    weights = random_matrix(512, density=0.25, seed=4)
    rows = []
    for p in (8, 16, 32):
        simulator = SpmvSimulator(HardwareConfig(partition_size=p))
        profiles = simulator.profile_table(weights)
        for name in ("bcsr", "csr", "coo", "ell"):
            result = simulator.run_format(name, profiles, workload="ml")
            rows.append(
                [
                    p,
                    name,
                    result.sigma,
                    result.total_seconds * 1e6,
                    result.bandwidth_utilization,
                ]
            )
    print(
        format_table(
            ["p", "format", "sigma", "latency (us)", "bw util"],
            rows,
            title="Pruned-layer SpMV (density 0.25) vs partition size",
        )
    )
    print()

    # recommendation-model embedding reduction (a dot-product at heart).
    table = np.random.default_rng(2).normal(size=(1000, 16))
    pooled = embedding_reduction(table, [3, 17, 17, 912])
    print(
        "embedding reduction over indices [3, 17, 17, 912] -> "
        f"vector norm {np.linalg.norm(pooled):.3f}"
    )


if __name__ == "__main__":
    main()
