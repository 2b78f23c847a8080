"""Characterization report tests."""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis import characterization_report
from repro.core import Constraints
from repro.workloads import random_matrix
from tests.conftest import CORPUS

#: sha256 of the report text for corpus matrices, recorded while the
#: report still profiled through the per-object ``profiles`` path; the
#: columnar ``profile_table`` path must render the same bytes.
PINNED_REPORTS = {
    "band": (
        "84c448cd5e080697d067c85e37559a568ab78d4513dd7224578f37fc8e68d30b"
    ),
    "rectangle": (
        "b4790b05d6fc623fed3fdde78406b32d813a483a461b09ae966a31db57ddabd8"
    ),
}


@pytest.fixture(scope="module")
def report() -> str:
    matrix = random_matrix(128, 0.05, seed=0)
    return characterization_report(matrix, name="unit-test")


class TestReportSections:
    def test_header(self, report):
        assert report.startswith("# Copernicus characterization")
        assert "unit-test" in report

    def test_partition_statistics_section(self, report):
        assert "Partition statistics" in report
        assert "row density" in report

    def test_metric_grid_covers_all_partition_sizes(self, report):
        for p in (8, 16, 32):
            assert f"partition size {p}" in report

    def test_all_paper_formats_present(self, report):
        for name in ("dense", "csr", "bcsr", "csc", "lil", "ell",
                     "coo", "dia"):
            assert name in report

    def test_summary_section(self, report):
        assert "Normalized scores" in report
        assert "overall" in report

    def test_timeline_section(self, report):
        assert "Pipeline timelines" in report
        assert "bubbles:" in report

    def test_recommendation_section(self, report):
        assert "## Recommendation" in report
        assert "optimize latency:" in report
        assert "optimize bandwidth:" in report
        assert "optimize energy:" in report


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_report_text_is_pinned(name):
    text = characterization_report(CORPUS[name], name=name)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORTS[name]


class TestReportOptions:
    def test_constraints_forwarded(self):
        matrix = random_matrix(96, 0.05, seed=1)
        text = characterization_report(
            matrix, constraints=Constraints(max_bram_18k=4)
        )
        assert "optimize latency:" in text

    def test_custom_format_list(self):
        matrix = random_matrix(96, 0.05, seed=2)
        text = characterization_report(
            matrix, formats=("dense", "coo", "csr")
        )
        assert "bcsr" not in text
