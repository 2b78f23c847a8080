"""Golden-trace regression pins: event trace vs closed-form model.

The aggregate pipeline model (:mod:`repro.hardware.pipeline`) totals
``fill + sum(max(mem, comp)) + drain``; the event trace
(:mod:`repro.hardware.trace`) schedules every partition explicitly.
This module pins their relationship on a fixed seed corpus:

* the exact trace totals (``GOLDEN_TRACE``) — a drift means the
  scheduler now models different hardware;
* the closed form itself, recomputed from the per-partition timings;
* the write-drain term the ``trace.py`` docstring promises is bounded:
  the trace ends with the write stage draining, at least one and at
  most ``n_partitions`` write-backs after compute finishes.

If a deliberate model change invalidates the totals, regenerate with::

    PYTHONPATH=src python tests/hardware/test_trace_golden.py
"""

from __future__ import annotations

import pytest

from repro.hardware import HardwareConfig
from repro.hardware.axi import AxiStreamModel
from repro.hardware.pipeline import StreamingPipeline
from repro.hardware.trace import trace_pipeline
from repro.partition import profile_table
from repro.workloads import band_matrix, poisson_2d, random_matrix

CONFIG = HardwareConfig(partition_size=16)

FORMATS = ("dense", "csr", "bcsr", "csc", "lil", "ell", "coo", "dia")

#: (workload, format) -> exact end-to-end trace cycles at p = 16.
GOLDEN_TRACE = {
    ("random-128", "dense"): 8540,
    ("random-128", "csr"): 4931,
    ("random-128", "bcsr"): 6368,
    ("random-128", "csc"): 18100,
    ("random-128", "lil"): 5404,
    ("random-128", "ell"): 5184,
    ("random-128", "coo"): 3766,
    ("random-128", "dia"): 6054,
    ("band-128", "dense"): 2996,
    ("band-128", "csr"): 3254,
    ("band-128", "bcsr"): 1685,
    ("band-128", "csc"): 19884,
    ("band-128", "lil"): 2534,
    ("band-128", "ell"): 2396,
    ("band-128", "coo"): 3374,
    ("band-128", "dia"): 1810,
    ("poisson-12", "dense"): 3392,
    ("poisson-12", "csr"): 3100,
    ("poisson-12", "bcsr"): 2271,
    ("poisson-12", "csc"): 13308,
    ("poisson-12", "lil"): 3150,
    ("poisson-12", "ell"): 2080,
    ("poisson-12", "coo"): 2520,
    ("poisson-12", "dia"): 2262,
}


def golden_corpus():
    return {
        "random-128": random_matrix(128, 0.05, seed=11),
        "band-128": band_matrix(128, 8, seed=11),
        "poisson-12": poisson_2d(12),
    }


def write_back_cycles(config: HardwareConfig = CONFIG) -> int:
    if not config.write_back:
        return 0
    return AxiStreamModel(config).single_line_cycles(
        config.partition_size * config.value_bytes
    )


@pytest.fixture(scope="module")
def corpus_profiles():
    return {
        name: profile_table(matrix, CONFIG.partition_size)
        for name, matrix in golden_corpus().items()
    }


@pytest.mark.parametrize("workload,format_name", sorted(GOLDEN_TRACE))
def test_trace_total_matches_golden(
    corpus_profiles, workload, format_name
):
    trace = trace_pipeline(
        CONFIG, format_name, corpus_profiles[workload]
    )
    assert trace.total_cycles == GOLDEN_TRACE[(workload, format_name)]


@pytest.mark.parametrize("workload,format_name", sorted(GOLDEN_TRACE))
def test_closed_form_is_sum_of_stage_maxima(
    corpus_profiles, workload, format_name
):
    """Pin the closed-form model itself: total = fill + Σmax + drain."""
    result = StreamingPipeline(CONFIG, format_name).run(
        corpus_profiles[workload]
    )
    steady = sum(
        max(t.memory_cycles, t.compute_cycles) for t in result.timings
    )
    assert (
        result.total_cycles
        == result.fill_cycles + steady + result.drain_cycles
    )
    assert result.fill_cycles == result.timings[0].memory_cycles
    assert result.drain_cycles == write_back_cycles()


@pytest.mark.parametrize("workload,format_name", sorted(GOLDEN_TRACE))
def test_trace_bounds_against_closed_form(
    corpus_profiles, workload, format_name
):
    """The event trace can never beat the steady-state lower bound,
    and its tail beyond compute is exactly the bounded write drain."""
    profiles = corpus_profiles[workload]
    trace = trace_pipeline(CONFIG, format_name, profiles)
    result = StreamingPipeline(CONFIG, format_name).run(profiles)
    steady = sum(
        max(t.memory_cycles, t.compute_cycles) for t in result.timings
    )
    assert trace.total_cycles >= steady

    # the bounded write-drain term: the run ends between one and
    # n_partitions write-backs after the last compute finishes.
    drain = trace.total_cycles - trace.compute[-1].stop
    per_write = write_back_cycles()
    assert per_write <= drain <= len(profiles) * per_write
    # every write interval is exactly one write-back long.
    assert all(w.duration == per_write for w in trace.write)


def test_golden_covers_full_cube():
    assert set(GOLDEN_TRACE) == {
        (w, f) for w in golden_corpus() for f in FORMATS
    }


if __name__ == "__main__":  # regenerate GOLDEN_TRACE
    for name, matrix in golden_corpus().items():
        profiles = profile_table(matrix, CONFIG.partition_size)
        for fmt in FORMATS:
            trace = trace_pipeline(CONFIG, fmt, profiles)
            print(
                f'    ("{name}", "{fmt}"): {trace.total_cycles},'
            )
