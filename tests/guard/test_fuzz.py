"""The structured fuzzer: generators, minimizer, corpus, replay.

The committed regression corpus under ``tests/corpus/`` is replayed
here — that replay IS the CI gate that once-fixed crashes stay fixed.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.errors import FuzzError
from repro.guard import (
    FUZZ_KINDS,
    FuzzCase,
    build_case,
    execute_case,
    fuzz_run,
    load_corpus,
    minimize_case,
    replay_corpus,
    save_case,
)
from repro.guard.sandbox import VERDICT_KINDS

COMMITTED_CORPUS = Path(__file__).resolve().parents[1] / "corpus"

#: Outcome kinds execute_case may legally produce.
TYPED_OUTCOMES = set(VERDICT_KINDS)


class TestGenerators:
    @pytest.mark.parametrize("kind", FUZZ_KINDS)
    def test_deterministic_per_seed(self, kind) -> None:
        fmt = "csr" if kind.startswith("enc-") else ""
        a = build_case(kind, 42, fmt)
        b = build_case(kind, 42, fmt)
        assert a == b
        c = build_case(kind, 43, fmt)
        assert a.mtx != c.mtx or kind.startswith("enc-")

    @pytest.mark.parametrize("kind", FUZZ_KINDS)
    def test_every_kind_yields_a_typed_outcome(self, kind) -> None:
        fmt = "dia" if kind.startswith("enc-") else ""
        outcome = execute_case(build_case(kind, 3, fmt))
        assert outcome.kind in TYPED_OUTCOMES
        assert not outcome.crashed, outcome.signature

    def test_unknown_kind_rejected(self) -> None:
        with pytest.raises(FuzzError, match="unknown fuzz kind"):
            build_case("mtx-zip-bomb", 0)


class TestFuzzRun:
    def test_counts_and_no_crashes(self) -> None:
        report = fuzz_run(5, n_cases=26)
        assert report.tried == 26
        assert sum(report.by_verdict.values()) == 26
        assert sum(report.by_kind.values()) == 26
        assert report.crash_signatures == ()
        assert report.wall_s > 0

    def test_requires_a_stop_condition(self) -> None:
        with pytest.raises(FuzzError, match="n_cases and/or budget"):
            fuzz_run(0)

    def test_budget_stops_the_run(self) -> None:
        report = fuzz_run(0, budget_s=0.05)
        assert report.tried >= 1
        assert report.wall_s < 5.0

    def test_report_dict_fields(self) -> None:
        payload = fuzz_run(1, n_cases=4).to_dict()
        assert set(payload) == {
            "seed", "inputs_tried", "wall_s", "by_verdict",
            "by_kind", "crashes", "crash_signatures",
        }


class TestMinimizer:
    def test_preserves_outcome_and_shrinks(self) -> None:
        case = build_case("mtx-dimension-lie", 9)
        original = execute_case(case)
        minimized = minimize_case(case)
        shrunk = execute_case(minimized)
        assert shrunk.kind == original.kind
        assert shrunk.error_type == original.error_type
        assert len(minimized.mtx) <= len(case.mtx)

    def test_encoding_cases_pass_through(self) -> None:
        case = build_case("enc-meta-lie", 2, "csr")
        assert minimize_case(case) is case


class TestCorpus:
    def test_round_trip(self, tmp_path) -> None:
        case = build_case("mtx-garbage", 7)
        path = save_case(tmp_path, case)
        assert path.name == case.corpus_name()
        loaded = load_corpus(tmp_path)
        assert loaded == [case]

    def test_missing_directory_is_empty(self, tmp_path) -> None:
        assert load_corpus(tmp_path / "nope") == []

    def test_bad_schema_rejected(self, tmp_path) -> None:
        (tmp_path / "x.json").write_text('{"schema": "other/v9"}')
        with pytest.raises(FuzzError, match="schema"):
            load_corpus(tmp_path)

    def test_bad_kind_rejected(self, tmp_path) -> None:
        (tmp_path / "x.json").write_text(
            '{"schema": "fuzz_case/v1", "kind": "mtx-zip-bomb"}'
        )
        with pytest.raises(FuzzError, match="unknown kind"):
            load_corpus(tmp_path)

    def test_corrupt_json_rejected(self, tmp_path) -> None:
        (tmp_path / "x.json").write_text("{torn")
        with pytest.raises(FuzzError, match="corrupt"):
            load_corpus(tmp_path)


class TestCommittedCorpusReplay:
    """The regression gate: the repo's corpus must stay crash-free."""

    def test_corpus_is_populated(self) -> None:
        cases = load_corpus(COMMITTED_CORPUS)
        assert len(cases) >= 20
        kinds = {case.kind for case in cases}
        assert kinds == set(FUZZ_KINDS)

    def test_replay_yields_only_typed_verdicts(self) -> None:
        report = replay_corpus(COMMITTED_CORPUS)
        assert report.tried >= 20
        assert report.crash_signatures == (), (
            "regression: corpus inputs crash again: "
            f"{report.crash_signatures}"
        )
        assert set(report.by_verdict) <= TYPED_OUTCOMES


class TestHistoricalCrashes:
    """The two crash classes fuzzing found (and this PR fixed) stay
    typed rejections: header extents beyond the int64-safe line must
    be refused at the size line, never overflow inside numpy."""

    @pytest.mark.parametrize(
        "header",
        [
            "1180591620717411303424 4 1",  # 2**70 rows
            "4 1180591620717411303424 1",  # 2**70 cols
            "3037000500 3037000500 1",  # row*col overflows int64
        ],
    )
    def test_giant_extents_are_typed_rejections(self, header) -> None:
        from repro.errors import CopernicusError, ValidationError
        from repro.io import loads

        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            f"{header}\n1 1 1.0\n"
        )
        with pytest.raises(CopernicusError) as excinfo:
            loads(text)
        if isinstance(excinfo.value, ValidationError):
            assert excinfo.value.reason in (
                "extent-overflow", "nnz-overflow",
            )


class TestNonFiniteValues:
    """A corrupted values plane that validation accepts may carry
    inf/NaN into decode and SpMV.  That arithmetic is the stimulus, not
    a finding: the case must come back typed, warning-free."""

    @pytest.mark.parametrize(
        "fmt, seed", [("csc", 20), ("csr", 36), ("coo", 36)]
    )
    def test_non_finite_plane_is_a_typed_outcome(self, fmt, seed) -> None:
        import warnings

        case = build_case("enc-plane-corrupt", seed, fmt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome = execute_case(case)
        assert outcome.kind in TYPED_OUTCOMES
        assert not outcome.crashed, outcome.detail
