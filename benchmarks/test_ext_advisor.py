"""Extension: sampled advise vs the exact model.

Not a paper figure — this benchmark characterizes the sampled advise
path (``recommend(fast=True)``): the exact model run on every 8th band
of 32 rows.  It reports (a) ranking agreement with exact advise and
(b) the advise-latency gap, on the Table 1 stand-ins with n >= 2048
and the three n = 2048 ``lat-*`` matrices — the matrices of
``repro bench advisor``.  The asserted floors are the suite's
accuracy gates; the speed check only asks that sampling is faster on
the geomean, so this stays a shape check, not a second timing gate.
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.bench_advisor import advisor_sections


def build_report():
    return advisor_sections(seed=11, repeats=1)


def test_ext_advisor(benchmark):
    report = benchmark.pedantic(build_report, rounds=1, iterations=1)
    accuracy = report["accuracy"]
    latency = report["latency"]
    print()
    print(
        format_table(
            ["workload", "nnz", "spearman", "exact best", "sampled best",
             "regret", "exact ms", "sampled ms"],
            [
                [w["workload"], w["nnz"], round(w["spearman"], 4),
                 "/".join(map(str, w["exact_best"])),
                 "/".join(map(str, w["sampled_best"])),
                 round(w["regret"], 4), round(w["exact_ms"], 1),
                 round(w["sampled_ms"], 1)]
                for w in report["per_workload"]
            ],
            title="Extension: sampled advise (every 8th band) vs exact",
        )
    )

    # every matrix ran sampled (advisor_sections raises otherwise), and
    # the sample ranks design points essentially like the exact model...
    assert accuracy["spearman_mean"] >= 0.9
    assert accuracy["top3_agreement"] >= 0.95
    # ...in less time
    assert latency["sampled_ms_geomean"] < latency["exact_ms_geomean"]
