"""The fault-injection harness itself: matching, parsing, policies.

The harness is what every robustness test leans on, so its own
semantics are pinned here: spec matching (coordinates, wildcards,
every-Nth), attempt gating, the compact spec grammar shared by cell
and durability clauses, and how each fault kind surfaces on the
in-process path.  Durability firing lives in ``test_chaos.py``.
"""

from __future__ import annotations

import pickle
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import FaultPlan, FaultSpec, InjectedFault, SweepRunner
from repro.engine.faults import _GRAMMAR, FAULT_KINDS
from repro.formats.corrupt import CORRUPTION_KINDS
from repro.errors import SweepConfigError, WorkerCrashError
from repro.workloads import Workload, band_matrix, random_matrix


def small_workloads() -> list[Workload]:
    return [
        Workload("rand-a", "random", random_matrix(96, 0.05, seed=1)),
        Workload("band-b", "band", band_matrix(96, 4, seed=1)),
    ]


# ----------------------------------------------------------------------
# Spec matching
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_exact_coordinates_match(self):
        spec = FaultSpec("raise", "rand-a:csr:16")
        assert spec.matches(("rand-a", "csr", 16), index=0)
        assert not spec.matches(("rand-a", "csr", 8), index=0)
        assert not spec.matches(("rand-a", "coo", 16), index=0)
        assert not spec.matches(("band-b", "csr", 16), index=0)

    def test_wildcards(self):
        spec = FaultSpec("raise", "*:coo:*")
        assert spec.matches(("rand-a", "coo", 8), index=0)
        assert spec.matches(("band-b", "coo", 32), index=5)
        assert not spec.matches(("band-b", "csr", 32), index=5)

    def test_every_nth_matches_by_grid_index(self):
        spec = FaultSpec("raise", "every:3")
        fired = [i for i in range(9) if spec.matches(("w", "f", 8), i)]
        assert fired == [0, 3, 6]

    def test_attempt_gating(self):
        transient = FaultSpec("raise", "w:*:*", times=2)
        assert transient.should_fire(("w", "f", 8), 0, attempt=0)
        assert transient.should_fire(("w", "f", 8), 0, attempt=1)
        assert not transient.should_fire(("w", "f", 8), 0, attempt=2)
        persistent = FaultSpec("raise", "w:*:*", times=None)
        assert persistent.should_fire(("w", "f", 8), 0, attempt=99)

    def test_invalid_specs_rejected(self):
        with pytest.raises(SweepConfigError):
            FaultSpec("explode")
        with pytest.raises(SweepConfigError):
            FaultSpec("raise", "every:0")
        with pytest.raises(SweepConfigError):
            FaultSpec("raise", times=0)
        with pytest.raises(SweepConfigError):
            FaultSpec("delay", delay=-1.0)
        with pytest.raises(SweepConfigError):
            FaultSpec("raise", "checkpoint")  # durability target
        with pytest.raises(SweepConfigError):
            FaultSpec("raise", ber=0.1)  # an option raise never reads

    def test_known_kinds(self):
        assert FAULT_KINDS == (
            "raise", "crash", "delay", "corrupt",
            "torn-write", "stale-lease", "slow-io", "disk-full", "sigterm",
        )


# ----------------------------------------------------------------------
# Plan behavior on the in-process path
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_raise_fault_raises_injected_fault(self):
        plan = FaultPlan.of(FaultSpec("raise", "w:csr:16"))
        with pytest.raises(InjectedFault) as excinfo:
            plan.before_cell(("w", "csr", 16), index=0)
        assert "raise@w:csr:16" in str(excinfo.value)
        plan.before_cell(("w", "coo", 16), index=0)  # no match: no-op

    def test_crash_fault_raises_on_in_process_path(self):
        # in_worker=False must never os._exit the caller
        plan = FaultPlan.of(FaultSpec("crash", "w:*:*"))
        with pytest.raises(WorkerCrashError):
            plan.before_cell(("w", "csr", 16), index=0, in_worker=False)

    def test_delay_fault_sleeps_then_continues(self):
        plan = FaultPlan.of(FaultSpec("delay", "w:*:*", delay=0.05))
        start = time.perf_counter()
        plan.before_cell(("w", "csr", 16), index=0)
        assert time.perf_counter() - start >= 0.04

    def test_first_matching_spec_wins(self):
        plan = FaultPlan.of(
            FaultSpec("delay", "w:*:*", delay=0.0),
            FaultSpec("raise", "w:*:*"),
        )
        # delay matches first, continues scanning, then raise fires
        with pytest.raises(InjectedFault):
            plan.before_cell(("w", "csr", 16), index=0)

    def test_plan_is_picklable(self):
        plan = FaultPlan.parse("raise@w:csr:16,crash@*:coo:*#times=none")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan.of(FaultSpec("raise"))


# ----------------------------------------------------------------------
# The compact spec grammar
# ----------------------------------------------------------------------
class TestParse:
    def test_exact_cell(self):
        plan = FaultPlan.parse("raise@rand-0.01:csr:16")
        (spec,) = plan.specs
        assert spec.kind == "raise"
        assert spec.target == "rand-0.01:csr:16"
        assert spec.matches(("rand-0.01", "csr", 16), index=7)
        assert not spec.matches(("rand-0.01", "csr", 8), index=7)
        assert spec.times == 1

    def test_wildcards_and_options(self):
        plan = FaultPlan.parse("crash@*:coo:*#times=none")
        (spec,) = plan.specs
        assert spec.target == "*:coo:*"
        assert spec.matches(("any", "coo", 32), index=0)
        assert not spec.matches(("any", "csr", 32), index=0)
        assert spec.times is None

    def test_every_nth_with_delay(self):
        plan = FaultPlan.parse("delay@every:5#delay=0.25")
        (spec,) = plan.specs
        assert spec.target == "every:5"
        assert spec.matches(("w", "f", 8), index=10)
        assert not spec.matches(("w", "f", 8), index=11)
        assert spec.delay == 0.25

    def test_composition(self):
        plan = FaultPlan.parse("raise@a:*:8, crash@b:*:8#times=2")
        assert len(plan.specs) == 2
        assert plan.specs[1].times == 2

    def test_describe_round_trips_targets(self):
        text = "raise@rand-0.01:csr:16,crash@*:coo:*"
        assert FaultPlan.parse(text).describe() == text

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "raise",
            "explode@a:b:16",
            "raise@a:b",
            "raise@a:b:sixteen",
            "raise@every:zero",
            "raise@a:b:16#times",
            "raise@a:b:16#times=maybe",
            "raise@a:b:16#delay=soon",
            "raise@a:b:16#color=red",
        ],
    )
    def test_bad_specs_raise_config_errors(self, text):
        with pytest.raises(SweepConfigError):
            FaultPlan.parse(text)


# ----------------------------------------------------------------------
# Corrupt faults: parsing and plan routing
# ----------------------------------------------------------------------
class TestCorruptFaults:
    def test_parse_full_selector(self):
        plan = FaultPlan.parse("corrupt@*:csr:*#ckind=bitflip#ber=0.01")
        (spec,) = plan.specs
        assert spec.kind == "corrupt"
        assert spec.ckind == "bitflip"
        assert spec.ber == 0.01
        corruption = spec.corruption_spec()
        assert corruption.kind == "bitflip"
        assert corruption.ber == 0.01

    def test_corruption_for_matches_and_misses(self):
        plan = FaultPlan.parse("corrupt@*:csr:*#ckind=tamper")
        hit = plan.corruption_for(("w", "csr", 8), index=0)
        assert hit is not None
        assert hit.kind == "tamper"
        assert plan.corruption_for(("w", "coo", 8), index=0) is None

    def test_before_cell_is_a_no_op_for_corrupt_specs(self):
        plan = FaultPlan.parse("corrupt@*:csr:*#ckind=bitflip")
        # the runner applies corruption via corruption_for; before_cell
        # must not consume the spec's fire budget or raise
        plan.before_cell(("w", "csr", 8), index=0)
        assert plan.corruption_for(("w", "csr", 8), index=0) is not None

    def test_describe_includes_corruption_options(self):
        text = FaultPlan.parse("corrupt@*:csr:*#ckind=truncate").describe()
        assert "ckind=truncate" in text
        assert "corrupt@*:csr:*" in text

    @pytest.mark.parametrize(
        "text",
        [
            "corrupt@*:csr:*#ckind=melt",
            "corrupt@*:csr:*#ber=lots",
            "corrupt@*:csr:*#mode=optimistic",
            "corrupt@*:csr:*#mode=strict",  # decoding is always strict
            "corrupt@*:csr:*#plane=",
        ],
    )
    def test_bad_corruption_options_rejected(self, text):
        with pytest.raises(SweepConfigError):
            FaultPlan.parse(text)


# ----------------------------------------------------------------------
# Through the runner (in-process paths)
# ----------------------------------------------------------------------
class TestRunnerIntegration:
    def test_collect_policy_records_injected_fault(self):
        outcome = SweepRunner(
            faults="raise@band-b:csr:16"
        ).run_grid(small_workloads(), ("csr", "coo"), (16,))
        assert outcome.n_failed == 1
        failed = outcome.failure("band-b", "csr", 16)
        assert failed.error_type == "InjectedFault"
        assert "InjectedFault" in failed.traceback_text
        assert len(failed.recipe_digest) == 32
        assert len(outcome.results) == 3

    def test_string_and_plan_forms_are_equivalent(self):
        plan = FaultPlan.parse("raise@band-b:csr:16")
        from_text = SweepRunner(faults="raise@band-b:csr:16")
        from_plan = SweepRunner(faults=plan)
        assert from_text.faults == from_plan.faults == plan

    def test_sequential_crash_fault_is_a_worker_crash_error(self):
        # max_workers=1 runs in-process: the crash fault must degrade
        # to an exception, not kill the test process
        outcome = SweepRunner(
            faults="crash@band-b:csr:16"
        ).run_grid(small_workloads(), ("csr",), (16,))
        failed = outcome.failure("band-b", "csr", 16)
        assert failed.error_type == "WorkerCrashError"

    def test_strict_corruption_surfaces_as_integrity_failure(self):
        outcome = SweepRunner(
            faults="corrupt@band-b:csr:*#ckind=truncate"
        ).run_grid(small_workloads(), ("csr",), (16,))
        failed = outcome.failure("band-b", "csr", 16)
        assert failed.error_type == "FormatIntegrityError"

    def test_undetected_corruption_completes_deterministically(self):
        # bit flips in the values plane break no structural check, so
        # strict decoding passes the damaged matrix on to the cell
        runner = SweepRunner(
            faults="corrupt@*:csr:*#ckind=bitflip#plane=values#ber=0.01"
        )
        first = runner.run_grid(small_workloads(), ("csr",), (16,))
        second = runner.run_grid(small_workloads(), ("csr",), (16,))
        assert first.n_failed == 0
        assert len(first.results) == 2
        assert [r.total_cycles for r in first.results] == [
            r.total_cycles for r in second.results
        ]


# ----------------------------------------------------------------------
# One grammar for cell and durability clauses
# ----------------------------------------------------------------------
class TestOneGrammar:
    @pytest.mark.parametrize(
        "text, described",
        [
            ("crash@*:coo:*#times=none", "crash@*:coo:*#times=none"),
            ("delay@every:5#delay=0.25", "delay@every:5#delay=0.25"),
            (
                "corrupt@*:csr:*#ckind=tamper#plane=payload#ber=0.01",
                "corrupt@*:csr:*#ckind=tamper#plane=payload#ber=0.01",
            ),
            # defaults are left out, the rest in one fixed order
            (
                "corrupt@*:csr:*#ber=0.5#ckind=bitflip",
                "corrupt@*:csr:*#ber=0.5",
            ),
            ("raise@w:csr:016#times=3", "raise@w:csr:16#times=3"),
            (
                "torn-write@shards#times=2#after=4#frac=0.25",
                "torn-write@shards#frac=0.25#after=4#times=2",
            ),
            ("sigterm@serve#midflight", "sigterm@serve#midflight"),
        ],
    )
    def test_describe_keeps_every_non_default_option(self, text, described):
        plan = FaultPlan.parse(text)
        assert plan.describe() == described
        assert FaultPlan.parse(described) == plan

    @pytest.mark.parametrize(
        "text, coords",
        [
            ("raise@ *:csr:*", ("w", "csr", 16)),
            (" raise @ w : csr : 16 ", ("w", "csr", 16)),
            ("raise@every: 2", ("w", "csr", 16)),
        ],
    )
    def test_whitespace_around_parts_is_ignored(self, text, coords):
        with pytest.raises(InjectedFault):
            FaultPlan.parse(text).before_cell(coords, index=4)

    @pytest.mark.parametrize(
        "text",
        [
            "disk-full@checkpoint#times=None",
            "disk-full@checkpoint#times=none",
            "raise@*:csr:*#times=None",
            "stale-lease@worker#times=NONE",
        ],
    )
    def test_times_none_is_accepted_by_every_kind(self, text):
        (spec,) = FaultPlan.parse(text).specs
        assert spec.times is None

    @pytest.mark.parametrize(
        "text, reads",
        [
            ("raise@*:csr:*#ber=0.1", "times"),
            ("raise@*:csr:*#ber=0.001", "times"),  # even at its default
            ("slow-io@blobs#frac=0.3", "ms, after, times"),
            ("raise@*:csr:*#midflight", "times"),
            ("crash@merge#midflight", "after, times"),
            ("crash@*:coo:*#after=3", "times"),
            ("sigterm@serve#after=2", "midflight"),
            ("delay@every:2#ms=5", "delay, times"),
            ("disk-full@blobs#delay=1", "after, times"),
        ],
    )
    def test_unread_options_name_the_kinds_options(self, text, reads):
        with pytest.raises(SweepConfigError, match=f"it reads: {reads}$"):
            FaultPlan.parse(text)

    @pytest.mark.parametrize(
        "text",
        [
            "crash@serve",          # durability name crash never reads
            "raise@checkpoint",     # cell kind at a durability target
            "torn-write@*:csr:*",   # durability kind at a cell target
            "raise@:csr:*",         # empty coordinate
            "slow-io@blobs#ms=inf",
            "delay@every:1#delay=nan",
            "sigterm@serve#midflight=yes",
        ],
    )
    def test_malformed_clauses_rejected(self, text):
        with pytest.raises(SweepConfigError):
            FaultPlan.parse(text)

    def test_durable_splits_clauses_by_target(self):
        plan = FaultPlan.parse("crash@*:coo:*,crash@merge,raise@every:3")
        assert [s.target for s in plan.durable] == ["merge"]
        assert not FaultPlan.parse("crash@*:coo:*").durable

    def test_a_durability_clause_never_fires_at_a_cell(self):
        plan = FaultPlan.parse("crash@worker#times=none")
        plan.before_cell(("worker", "csr", 8), index=0)  # no-op
        assert plan.corruption_for(("worker", "csr", 8), index=0) is None


_NAME = st.from_regex(r"[a-z0-9][a-z0-9.\-]{0,8}", fullmatch=True)
_CELL_TARGETS = st.one_of(
    st.integers(1, 10**6).map(lambda n: f"every:{n}"),
    st.tuples(
        st.one_of(st.just("*"), _NAME),
        st.one_of(st.just("*"), _NAME),
        st.one_of(st.just("*"), st.integers(1, 4096).map(str)),
    ).map(":".join),
)
_FINITE = dict(allow_nan=False, allow_infinity=False)
_OPTION_VALUES = {
    "times": st.one_of(st.none(), st.integers(1, 10**6)),
    "after": st.integers(1, 10**6),
    "frac": st.floats(0.0, 1.0, exclude_max=True, **_FINITE),
    "ms": st.floats(0.0, 1e4, **_FINITE),
    "delay": st.floats(0.0, 1e4, **_FINITE),
    "ckind": st.sampled_from(CORRUPTION_KINDS),
    "plane": st.sampled_from(("*", "header", "payload", "indices")),
    "ber": st.floats(0.0, 1.0, exclude_min=True, **_FINITE),
    "midflight": st.booleans(),
}


@st.composite
def _specs(draw):
    """Any kind at any of its target forms with any subset of its options."""
    kind = draw(st.sampled_from(FAULT_KINDS))
    form = draw(st.sampled_from(sorted(_GRAMMAR[kind])))
    target = draw(_CELL_TARGETS) if ":" in form else form
    options = {
        option: draw(_OPTION_VALUES[option])
        for option in _GRAMMAR[kind][form]
        if draw(st.booleans())
    }
    return FaultSpec(kind, target, **options)


class TestRoundTripProperty:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_specs(), min_size=1, max_size=4))
    def test_parse_of_describe_is_identity(self, specs):
        plan = FaultPlan.of(*specs)
        assert FaultPlan.parse(plan.describe()) == plan
