"""Extension: learned fast-path advisor vs the exact model.

Not a paper figure — this benchmark characterizes the ``repro.advisor``
extension itself.  It trains the ridge advisor on the workload-zoo
training split, then reports (a) ranking agreement with the exact
vectorized model on the held-out split and (b) the advise-latency gap
on paper-adjacent workloads.  The asserted floors are deliberately
looser than the gates of ``repro bench advisor`` (mean Spearman >= 0.9,
top-3 agreement >= 0.95, minimum speedup >= 50x) so this stays a
qualitative shape check, not a second flaky gate.
"""

from __future__ import annotations

from repro.advisor import (
    bench_advisor,
    split_holdout,
    sweep_training_rows,
    train_model,
    workload_zoo,
)
from repro.analysis import format_table

FORMATS = ("coo", "csr", "ell", "dia", "bcsr")
PARTITIONS = (8, 16, 32)
LATENCY_N = 1024


def build_report():
    zoo = workload_zoo(seed=0)
    train_specs, heldout = split_holdout(zoo, 0.25, seed=0)
    rows = sweep_training_rows(train_specs, FORMATS, PARTITIONS)
    model = train_model(train_specs, rows)
    from repro.advisor import default_latency_specs

    return bench_advisor(
        model,
        heldout,
        repeats=1,
        latency_specs=default_latency_specs(LATENCY_N),
    )


def test_ext_advisor(benchmark):
    report = benchmark.pedantic(build_report, rounds=1, iterations=1)
    accuracy = report["accuracy"]
    latency = report["latency"]
    print()
    print(
        format_table(
            ["workload", "spearman", "exact best", "predicted best",
             "top-3"],
            [
                [w["workload"], round(w["spearman"], 4),
                 "/".join(map(str, w["exact_best"])),
                 "/".join(map(str, w["predicted_best"])), w["top3"]]
                for w in report["per_workload"]
            ],
            title="Extension: advisor ranking accuracy on the "
            "held-out split",
        )
    )
    print(
        format_table(
            ["workload", "nnz", "exact ms", "fast ms", "speedup"],
            [
                [w["workload"], w["nnz"], round(w["exact_ms"], 1),
                 round(w["fast_ms"], 2), round(w["speedup"])]
                for w in latency["per_workload"]
            ],
            title="Extension: advise latency, exact vs fast path",
        )
    )

    # the advisor must rank design points essentially like the exact
    # model on workloads it never saw...
    assert accuracy["spearman_mean"] > 0.9
    assert accuracy["top3_agreement"] > 0.9
    # ...and answer at least an order of magnitude faster; the sized
    # CI gate (>= 50x at n=2048) runs via `repro bench advisor`.
    assert latency["speedup_min"] > 10
    assert latency["fast_ms_geomean"] < latency["exact_ms_geomean"]
