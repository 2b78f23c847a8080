"""The chaos campaign: reproducible schedules, hard gates, reporting.

A full 2-schedule campaign runs live here (queue schedules under
seeded fault plans, recovery, and gate checks); everything else — plan
drawing, gate semantics, report schema, the CLI wiring — is exercised
on the report structure, which is fast and deterministic.
"""

from __future__ import annotations

import json
from random import Random

import pytest

from repro.chaos import (
    SUITE,
    _stable_message,
    campaign_grid,
    random_plan,
    run_chaos_campaign,
)
from repro.cli import main
from repro.envelope import BENCH_SCHEMA, check_gates, evaluate, write_bench
from repro.errors import BenchGateError, ChaosCrash, ChaosError

REPORT_FIELDS = {
    "schema", "suite", "machine", "config", "gates", "n_gates_failed",
    "reference", "schedules", "summary",
}
SUMMARY_FIELDS = {
    "n_schedules", "n_queue", "n_serve", "n_crashed", "n_recovered",
    "n_violations", "recoveries_by_fault_kind", "uncaught_failures",
    "wall_s",
}


class TestPlanDrawing:
    def test_same_rng_draws_the_same_plan(self):
        assert (
            random_plan(Random(3)).describe()
            == random_plan(Random(3)).describe()
        )

    def test_drawn_plans_parse_back(self):
        from repro.engine.faults import FaultPlan

        for seed in range(20):
            plan = random_plan(Random(seed))
            assert FaultPlan.parse(plan.describe()) == plan

    def test_campaign_grid_is_small_and_fixed(self):
        # 2 workloads x 2 formats x 2 partition sizes = 8 cells per
        # schedule; the reference block of a live report agrees
        assert len(campaign_grid()) == 2


class TestLiveCampaign:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        workdir = tmp_path_factory.mktemp("chaos-smoke")
        return SUITE.run(
            seed=11, n_schedules=2, workers=2, workdir=str(workdir)
        )

    def test_all_schedules_recover_with_zero_violations(self, report):
        assert report["summary"]["n_schedules"] == 2
        assert report["summary"]["n_violations"] == 0
        for schedule in report["schedules"]:
            assert schedule["violations"] == []
        assert report["n_gates_failed"] == 0
        check_gates(report)  # must not raise

    def test_report_schema(self, report):
        assert report["schema"] == BENCH_SCHEMA
        assert report["suite"] == "chaos"
        assert set(report) == REPORT_FIELDS
        assert set(report["summary"]) == SUMMARY_FIELDS
        assert report["config"]["seed"] == 11
        assert report["config"]["n_schedules"] == 2
        assert report["config"]["workers"] == 2
        assert report["config"]["n_cells"] == 8
        assert report["reference"]["n_cells"] == 8
        assert [g["name"] for g in report["gates"]] == [
            "zero_violations", "zero_uncaught",
        ]

    def test_queue_schedules_match_the_reference_digest(self, report):
        queue_schedules = [
            s for s in report["schedules"] if s["kind"] == "queue"
        ]
        assert queue_schedules, "2 schedules always include a queue one"
        for schedule in queue_schedules:
            assert (
                schedule["recovered_digest"]
                == report["reference"]["digest"]
            )

    def test_report_writes_atomically_and_round_trips(
        self, report, tmp_path
    ):
        path = tmp_path / "BENCH_chaos.json"
        write_bench(report, path)
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(report)
        )

    def test_campaign_is_seed_reproducible(self, report):
        # same (seed, n_schedules) -> same fault plans in the same
        # order; wall times differ, the schedules must not
        plans = [s["plan"] for s in report["schedules"]]
        rerun = [
            random_plan(Random(11 * 10007 + i)).describe()
            for i in range(2)
            if (i % 5) != 4
        ]
        assert plans == rerun


class TestReproducibility:
    def test_same_seed_reports_are_equal(self):
        # seed 7's first two schedules tear the coordinator's checkpoint
        # after whole chunks merged, so recovery does not race worker
        # claims; schedules that crash mid-claim still vary in the
        # doctor's expired-claim count from run to run
        def report():
            full = SUITE.run(seed=7, n_schedules=2)
            del full["summary"]["wall_s"], full["machine"]
            return full

        first, second = report(), report()
        assert first == second
        assert all(s["crashed"] for s in first["schedules"])

    def test_workdir_and_pids_are_masked(self, tmp_path):
        error = ChaosCrash(
            "injected coordinator crash after torn write (torn-write@"
            f"shards at {tmp_path}/queue-8/results/coordinator-31448.jsonl"
            " and w01-5195.jsonl)"
        )
        assert _stable_message(error, tmp_path) == (
            "ChaosCrash: injected coordinator crash after torn write "
            "(torn-write@shards at <workdir>/queue-8/results/"
            "coordinator-<pid>.jsonl and w01-<pid>.jsonl)"
        )


class TestGates:
    def test_violations_raise_chaos_error(self):
        bad = {
            "suite": "chaos",
            "schedules": [
                {"index": 0, "plan": "crash@merge", "violations": []},
                {
                    "index": 1,
                    "plan": "torn-write@checkpoint",
                    "violations": ["digest-mismatch"],
                },
            ],
            "summary": {"n_violations": 1, "uncaught_failures": 0},
        }
        evaluate(bad, SUITE.gates)
        with pytest.raises(BenchGateError, match="zero_violations = 1"):
            check_gates(bad)

    def test_bad_config_rejected(self):
        with pytest.raises(ChaosError, match="n_schedules"):
            run_chaos_campaign(n_schedules=0)
        with pytest.raises(ChaosError, match="workers"):
            run_chaos_campaign(workers=0)

    def test_clean_report_passes(self):
        clean = {
            "suite": "chaos",
            "schedules": [{"index": 0, "violations": []}],
            "summary": {"n_violations": 0, "uncaught_failures": 0},
        }
        check_gates(evaluate(clean, SUITE.gates))

    def test_no_quick_mode(self):
        # --quick runs the full 20 schedules with both gates
        assert SUITE.quick_gates is None
        assert SUITE.resolve(quick=True) == SUITE.resolve()


class TestChaosCli:
    def test_chaos_command_runs_and_writes_the_report(
        self, capsys, tmp_path
    ):
        output = tmp_path / "BENCH_chaos.json"
        code = main([
            "bench", "chaos", "--seed", "11", "--schedules", "1",
            "--workers", "2", "--output", str(output),
            "--workdir", str(tmp_path / "work"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "gate pass: zero_violations = 0" in out
        assert "all 2 gate(s) passed" in out
        report = json.loads(output.read_text())
        assert report["schema"] == BENCH_SCHEMA
        assert report["summary"]["n_violations"] == 0

    def test_doctor_command_checks_a_checkpoint(
        self, capsys, tmp_path
    ):
        from repro.engine import SweepRunner, WorkloadSpec

        path = tmp_path / "ck.jsonl"
        SweepRunner(checkpoint=path).run_grid(
            (WorkloadSpec.random(48, 0.1, seed=2),),
            format_names=("csr",),
            partition_sizes=(8,),
        )
        code = main(["doctor", str(path), "--check"])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_doctor_check_fails_on_damage(self, capsys, tmp_path):
        from repro.engine import SweepRunner, WorkloadSpec

        path = tmp_path / "ck.jsonl"
        SweepRunner(checkpoint=path).run_grid(
            (WorkloadSpec.random(48, 0.1, seed=2),),
            format_names=("csr",),
            partition_sizes=(8,),
        )
        with path.open("ab") as stream:
            stream.write(b'{"type": "cell", "to')
        with pytest.raises(SystemExit) as exc:
            main(["doctor", str(path), "--check"])
        assert exc.value.code == 2
        capsys.readouterr()
        # repair, then check: the same damage now audits clean
        assert main(["doctor", str(path), "--repair"]) == 0
        capsys.readouterr()
        assert main(["doctor", str(path), "--check"]) == 0
        assert "clean" in capsys.readouterr().out
