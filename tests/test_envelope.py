"""The ``bench/v2`` envelope: gates as data, the writer, table-driven suites.

Every suite and ``repro loadgen`` report through these few functions,
so their rules are pinned here on a toy suite that runs in
microseconds.
"""

from __future__ import annotations

import json

import pytest

from repro.envelope import (
    BENCH_SCHEMA,
    Gate,
    Param,
    Suite,
    check_gates,
    envelope,
    evaluate,
    gate_lines,
    gate_summary,
    write_bench,
)
from repro.errors import BenchGateError, CopernicusError


@pytest.mark.parametrize(
    "op, value, bound, passed",
    [
        ("==", 0, 0, True),
        ("==", 1, 0, False),
        (">=", 1.0, 1.0, True),
        (">=", 0.99, 1.0, False),
        (">", 1, 0, True),
        (">", 0, 0, False),
        ("==", True, True, True),
        ("==", False, True, False),
        (">=", None, 1.7, None),  # no value recorded: not a failure
    ],
)
def test_gate_comparisons(op, value, bound, passed):
    verdict = Gate("g", "a.b", op, bound).verdict({"a": {"b": value}})
    assert verdict == {
        "name": "g", "path": "a.b", "op": op, "bound": bound,
        "value": value, "passed": passed,
    }


def test_a_path_the_report_lacks_is_an_error_not_a_skip():
    with pytest.raises(KeyError):
        Gate("g", "summary.missing", "==", 0).verdict({"summary": {}})


def test_envelope_header_and_sections():
    report = envelope(
        "toy", {"seed": 1}, {"summary": {"x": 2}},
        (Gate("x_big", "summary.x", ">=", 3),),
    )
    assert report["schema"] == BENCH_SCHEMA == "bench/v2"
    assert report["suite"] == "toy"
    assert "cpu_count" in report["machine"]
    assert report["config"] == {"seed": 1}
    assert report["summary"] == {"x": 2}
    assert report["n_gates_failed"] == 1


@pytest.mark.parametrize(
    "section", ["schema", "suite", "machine", "config", "gates",
                "n_gates_failed"],
)
def test_a_section_may_not_replace_the_header(section):
    with pytest.raises(TypeError, match=section):
        envelope("toy", {"seed": 1}, {section: {}}, ())


@pytest.mark.parametrize(
    "passed, summary",
    [
        ([True, True], "all 2 gate(s) passed"),
        ([True, None], "1 of 2 gate(s) passed (0 failed, 1 without a value)"),
        ([False, None, True],
         "1 of 3 gate(s) passed (1 failed, 1 without a value)"),
        ([], "no gates on this run"),
    ],
)
def test_summary_counts_only_gates_that_passed(passed, summary):
    report = {"gates": [{"passed": p} for p in passed]}
    assert gate_summary(report) == summary


def test_check_names_every_failed_gate_with_value_and_bound():
    report = evaluate(
        {"suite": "toy", "s": {"a": 0.5, "b": 3, "c": True}},
        (
            Gate("a_big", "s.a", ">=", 1.0),
            Gate("b_zero", "s.b", "==", 0),
            Gate("c_true", "s.c", "==", True),
        ),
    )
    assert report["n_gates_failed"] == 2
    with pytest.raises(BenchGateError) as excinfo:
        check_gates(report)
    assert isinstance(excinfo.value, CopernicusError)
    assert str(excinfo.value) == (
        "toy: 2 of 3 gate(s) failed: a_big = 0.5 (need >= 1.0); "
        "b_zero = 3 (need == 0)"
    )
    assert gate_lines(report) == [
        "gate FAIL: a_big = 0.5 (need >= 1.0)",
        "gate FAIL: b_zero = 3 (need == 0)",
        "gate pass: c_true = True (need == True)",
    ]


def test_writer_is_sorted_indented_and_newline_terminated(tmp_path):
    path = write_bench({"b": [1], "a": {"d": 1, "c": 2}}, tmp_path / "r.json")
    text = path.read_text()
    assert text == json.dumps(
        {"a": {"c": 2, "d": 1}, "b": [1]}, indent=2
    ) + "\n"


def _toy_body(seed, size, label):
    return {
        "config": {"derived": size * 2},
        "summary": {"size": size, "seed": seed, "label": label},
    }


TOY = Suite(
    name="toy",
    help="a toy suite",
    seed=5,
    output="BENCH_toy.json",
    params=(
        Param("size", 100, "problem size", quick=10),
        Param("label", "x", "a label", option=None),
    ),
    body=_toy_body,
    gates=(
        Gate("size_big", "summary.size", ">", 10),
        Gate("seed_kept", "summary.seed", ">=", 0),
    ),
    quick_gates=(Gate("seed_kept", "summary.seed", ">=", 0),),
    describe=lambda report: [],
)


class TestSuite:
    def test_explicit_beats_quick_beats_default(self):
        assert TOY.resolve() == {"size": 100, "label": "x"}
        assert TOY.resolve(quick=True) == {"size": 10, "label": "x"}
        assert TOY.resolve(quick=True, size=7) == {"size": 7, "label": "x"}

    def test_unknown_parameter_is_refused(self):
        with pytest.raises(TypeError, match="sizes"):
            TOY.resolve(sizes=3)

    def test_run_records_config_and_picks_the_gate_list(self):
        full = TOY.run()
        assert full["config"] == {
            "seed": 5, "quick": False, "size": 100, "label": "x",
            "derived": 200,
        }
        assert [g["name"] for g in full["gates"]] == [
            "size_big", "seed_kept",
        ]
        assert full["n_gates_failed"] == 0
        quick = TOY.run(quick=True, seed=9)
        assert quick["config"]["seed"] == 9
        assert quick["config"]["size"] == 10
        # the quick list leaves out a gate a size-10 run would fail
        assert [g["name"] for g in quick["gates"]] == ["seed_kept"]
        assert quick["n_gates_failed"] == 0

    @pytest.mark.parametrize("key", ["seed", "quick", "size", "label"])
    def test_derived_config_may_not_overwrite_what_ran(self, key):
        def body(seed, size, label):
            return {"config": {key: "other"}, "summary": {"size": size}}

        clashing = Suite(
            name="clash", help="", seed=5, output="x.json",
            params=TOY.params, body=body, gates=(), describe=TOY.describe,
        )
        with pytest.raises(TypeError, match=key):
            clashing.run()

    def test_param_flags(self):
        size, label = TOY.params
        assert size.flag == "--size"
        assert label.flag is None  # table-only
        assert Param("n_runs", 1, "h", option="--runs").flag == "--runs"
        kwargs = size.argparse_kwargs()
        assert kwargs["default"] is None  # so --quick can fill it
        assert kwargs["type"] is int
        assert kwargs["help"] == "problem size (default 100; --quick: 10)"
