"""CLI tests (``python -m repro``)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestInformational:
    def test_formats(self, capsys):
        out = run_cli(capsys, "formats")
        for name in ("dense", "csr", "coo", "dia", "sell"):
            assert name in out

    def test_experiments(self, capsys):
        out = run_cli(capsys, "experiments")
        assert "Figure 5" in out
        assert "Table 2" in out

    def test_table1(self, capsys):
        out = run_cli(capsys, "table1")
        assert "kron_g500-logn21" in out
        assert "europe_osm" in out

    def test_table2(self, capsys):
        out = run_cli(capsys, "table2")
        assert "BRAM" in out
        assert "dense" in out


class TestCharacterize:
    def test_single_format_random(self, capsys):
        out = run_cli(
            capsys, "characterize", "--random", "128",
            "--density", "0.05", "-f", "csr",
        )
        assert "csr" in out
        assert "sigma" in out

    def test_all_formats_band(self, capsys):
        out = run_cli(
            capsys, "characterize", "--band", "128", "--width", "4",
            "--all-formats", "-p", "8",
        )
        for name in ("dense", "csc", "dia"):
            assert name in out

    def test_standin(self, capsys):
        out = run_cli(
            capsys, "characterize", "--standin", "DW",
            "--max-dim", "1024", "-f", "coo",
        )
        assert "DW" in out

    def test_poisson(self, capsys):
        out = run_cli(
            capsys, "characterize", "--poisson", "8", "-f", "dia"
        )
        assert "poisson-8" in out

    def test_requires_format_choice(self, capsys):
        with pytest.raises(SystemExit):
            main(["characterize", "--random", "64"])

    def test_workload_required(self):
        with pytest.raises(SystemExit):
            main(["characterize", "-f", "csr"])


class TestSweepAndAdvise:
    def test_sweep_band(self, capsys):
        out = run_cli(
            capsys, "sweep", "--group", "band", "--metric", "sigma",
        )
        assert "band-64" in out

    def test_sweep_multiple_partitions(self, capsys):
        out = run_cli(
            capsys, "sweep", "--group", "band", "--partitions", "8", "16",
        )
        assert "p=8" in out and "p=16" in out

    def test_advise(self, capsys):
        out = run_cli(capsys, "advise", "--random", "96",
                      "--density", "0.02")
        assert "recommended format:" in out

    def test_report(self, capsys):
        out = run_cli(capsys, "report", "--random", "96",
                      "--density", "0.05")
        assert "# Copernicus characterization" in out
        assert "Pipeline timelines" in out

    def test_pareto(self, capsys):
        out = run_cli(
            capsys, "pareto", "--random", "96", "--density", "0.05",
            "--lanes", "1", "2",
        )
        assert "Pareto frontier" in out
        assert "total_cycles" in out

    def test_compare(self, capsys, tmp_path):
        from repro.core import save_results, sweep_formats
        from repro.workloads import Workload, random_matrix

        def results(seed):
            load = Workload(
                "w", "random", random_matrix(64, 0.1, seed=seed), 0.1
            )
            return sweep_formats(load, ("dense", "coo"))

        before = tmp_path / "before.json"
        after = tmp_path / "after.json"
        save_results(results(0), before)
        save_results(results(1), after)
        out = run_cli(
            capsys, "compare", str(before), str(after),
            "--threshold", "0.0001",
        )
        assert "metric" in out

    def test_compare_no_changes(self, capsys, tmp_path):
        from repro.core import save_results, sweep_formats
        from repro.workloads import Workload, random_matrix

        load = Workload(
            "w", "random", random_matrix(64, 0.1, seed=0), 0.1
        )
        path = tmp_path / "same.json"
        save_results(sweep_formats(load, ("dense",)), path)
        out = run_cli(capsys, "compare", str(path), str(path))
        assert "no metric changes" in out

    def test_full_disk_is_a_typed_exit(self, capsys, tmp_path):
        checkpoint = tmp_path / "ck.jsonl"
        with pytest.raises(SystemExit) as exc:
            main([
                "sweep", "--group", "band", "--checkpoint", str(checkpoint),
                "--inject-faults", "disk-full@checkpoint#after=5",
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = err.splitlines()
        assert line.startswith("error: ") and "No space left" in line
        # the cells appended before the fault survive for --resume
        assert len(checkpoint.read_text().splitlines()) >= 4

    def test_unknown_standin_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["characterize", "--standin", "XX", "-f", "csr"])
        assert exc.value.code == 2


class TestObservabilityCli:
    def test_sweep_profile(self, capsys):
        out = run_cli(
            capsys, "sweep", "--group", "band", "--partitions", "8",
            "--profile",
        )
        assert "Sweep profile" in out
        assert "Cache counters" in out
        assert "Slowest" in out

    def test_sweep_emit_metrics_then_stats(self, capsys, tmp_path):
        manifest = tmp_path / "run.jsonl"
        out = run_cli(
            capsys, "sweep", "--group", "band", "--partitions", "8",
            "--emit-metrics", str(manifest),
        )
        assert f"run manifest written to {manifest}" in out
        assert manifest.exists()
        out = run_cli(capsys, "stats", str(manifest))
        assert "Sweep run manifest" in out
        assert "Cache effectiveness" in out
        assert "Per-workload totals" in out

    def test_stats_against_self_reports_no_model_changes(
        self, capsys, tmp_path
    ):
        manifest = tmp_path / "run.jsonl"
        run_cli(
            capsys, "sweep", "--group", "band", "--partitions", "8",
            "--emit-metrics", str(manifest),
        )
        out = run_cli(
            capsys, "stats", str(manifest), "--against", str(manifest)
        )
        assert "no metric changes" in out

    def test_stats_against_detects_model_drift(self, capsys, tmp_path):
        import json

        baseline = tmp_path / "baseline.jsonl"
        run_cli(
            capsys, "sweep", "--group", "band", "--partitions", "8",
            "--emit-metrics", str(baseline),
        )
        # simulate a model regression: inflate one cell's cycle count.
        drifted = tmp_path / "drifted.jsonl"
        records = [
            json.loads(line)
            for line in baseline.read_text().splitlines()
        ]
        for record in records:
            if record["type"] == "cell" and record["index"] == 0:
                record["total_cycles"] *= 2
        drifted.write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        out = run_cli(
            capsys, "stats", str(drifted), "--against", str(baseline)
        )
        assert "total_cycles" in out

    def test_stats_missing_manifest_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stats", "/nonexistent/run.jsonl"])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_invalid_worker_count_exits_cleanly(self, capsys, workers):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--group", "band", "--workers", workers])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err


class TestIntegrityCli:
    def test_integrity_campaign(self, capsys):
        out = run_cli(
            capsys, "integrity", "--random", "48", "--density", "0.1",
            "-f", "csr", "-f", "coo", "--injections", "10",
        )
        assert "Integrity campaign" in out
        assert "csr" in out and "coo" in out
        assert "bitflip" in out and "truncate" in out
        assert "0 uncaught" in out

    def test_integrity_emit_json(self, capsys, tmp_path):
        import json

        artifact = tmp_path / "coverage.json"
        out = run_cli(
            capsys, "integrity", "--random", "32", "--density", "0.1",
            "-f", "csr", "--injections", "5", "--kinds", "bitflip",
            "--emit", str(artifact),
        )
        assert f"coverage report written to {artifact}" in out
        payload = json.loads(artifact.read_text())
        assert payload["total_uncaught"] == 0
        assert [f["format"] for f in payload["formats"]] == ["csr"]

    def test_integrity_deterministic_output(self, capsys):
        argv = (
            "integrity", "--random", "32", "--density", "0.1",
            "-f", "ell", "--injections", "8", "--seed", "3",
        )
        assert run_cli(capsys, *argv) == run_cli(capsys, *argv)

    def test_sweep_integrity_check_flag(self, capsys):
        out = run_cli(
            capsys, "sweep", "--group", "band", "--partitions", "8",
            "--integrity-check",
        )
        assert "band-64" in out

    def test_integrity_rejects_unknown_format(self, capsys):
        with pytest.raises(SystemExit):
            main(["integrity", "--random", "32", "-f", "bogus"])


class TestParser:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["formats"])
        assert args.command == "formats"

    def test_invalid_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])


class TestStatsPathErrors:
    """`repro stats` must fail loudly and clearly, never with a
    traceback, when either manifest path is missing or the baseline
    speaks an incompatible schema."""

    def _make_manifest(self, capsys, tmp_path, name="run.jsonl"):
        manifest = tmp_path / name
        run_cli(
            capsys, "sweep", "--group", "band", "--partitions", "8",
            "--emit-metrics", str(manifest),
        )
        return manifest

    def test_missing_manifest_names_the_path(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stats", "/nonexistent/run.jsonl"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "manifest not found: /nonexistent/run.jsonl" in err
        assert "repro sweep --emit-metrics" in err
        assert "Traceback" not in err

    def test_missing_against_baseline_names_the_argument(
        self, capsys, tmp_path
    ):
        manifest = self._make_manifest(capsys, tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([
                "stats", str(manifest),
                "--against", "/nonexistent/baseline.jsonl",
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert (
            "--against baseline not found: /nonexistent/baseline.jsonl"
            in err
        )
        assert "Traceback" not in err

    def test_schema_incompatible_baseline_exits_cleanly(
        self, capsys, tmp_path
    ):
        import json

        manifest = self._make_manifest(capsys, tmp_path)
        stale = tmp_path / "stale.jsonl"
        records = [
            json.loads(line)
            for line in manifest.read_text().splitlines()
        ]
        records[0]["schema"] = 1  # a manifest from an older build
        stale.write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        with pytest.raises(SystemExit) as exc:
            main(["stats", str(manifest), "--against", str(stale)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unsupported manifest schema" in err
        assert "Traceback" not in err

    def test_non_manifest_file_exits_cleanly(self, capsys, tmp_path):
        bogus = tmp_path / "notes.txt"
        bogus.write_text("not a manifest\n")
        with pytest.raises(SystemExit) as exc:
            main(["stats", str(bogus)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err


class TestBenchVerdict:
    def test_a_gate_without_a_value_is_not_counted_as_passed(
        self, capsys, tmp_path
    ):
        from repro.cli import _report_and_gate
        from repro.envelope import Gate, evaluate

        report = evaluate(
            {"suite": "toy", "summary": {"digests": True, "speedup": None}},
            (
                Gate("digests", "summary.digests", "==", True),
                Gate("speedup", "summary.speedup", ">=", 1.7),
            ),
        )
        verdict = _report_and_gate(report, str(tmp_path / "r.json"), [])
        assert verdict == "1 of 2 gate(s) passed (0 failed, 1 without a value)"
        assert "gate no value: speedup = None" in capsys.readouterr().out


class TestServeLoadgenCli:
    def test_loadgen_spawn_smoke(self, capsys, tmp_path):
        import json

        report_path = tmp_path / "BENCH_serve.json"
        out = run_cli(
            capsys, "loadgen", "--spawn", "--mix", "hot",
            "--requests", "25", "--seed", "7",
            "--output", str(report_path),
        )
        assert f"report written to {report_path}" in out
        assert "throughput:" in out
        assert "gate pass: zero_5xx = 0" in out
        assert "gate pass: coalesced" in out
        report = json.loads(report_path.read_text())
        assert report["schema"] == "bench/v2"
        assert report["n_gates_failed"] == 0
        assert report["requests"] == 25
        assert report["n_5xx"] == 0
        assert report["server"]["coalesce_hits"] > 0

    def test_loadgen_needs_port_or_spawn(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["loadgen", "--requests", "5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--spawn" in err
        assert "Traceback" not in err

    def test_serve_rejects_bad_budget(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--budget-s", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "budget_s" in err
        assert "Traceback" not in err

    def test_serve_and_loadgen_are_registered(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--port", "0"])
        assert args.command == "serve"
        args = parser.parse_args(["loadgen", "--spawn"])
        assert args.mix == "mixed"
        assert args.requests == 200
        assert args.seed == 7


class TestSampledAdviseCLI:
    """``repro advise --fast`` and ``repro bench advisor``."""

    def test_fast_advise_prints_the_sampling_provenance(self, capsys):
        out = run_cli(
            capsys, "advise", "--random", "2048", "--density", "0.01",
            "--fast",
        )
        assert "est. cycles" in out
        assert "recommended:" in out
        assert (
            "sampled: every 8th band of 32 rows from band 4; "
            "est. cycles = 8 x steady + fill + drain"
        ) in out

    def test_fast_advise_below_the_floor_runs_exact(self, capsys):
        out = run_cli(
            capsys, "advise", "--random", "64", "--density", "0.1",
            "--fast",
        )
        assert "recommended:" in out
        assert "exact: every row characterized" in out
        assert "est. cycles" not in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["advise", "--random", "64", "--fast", "--model", "m.json"],
            ["advise", "--random", "64", "--fast", "--margin", "0.1"],
            ["advisor", "train"],
            ["serve", "--fast-margin", "0.1"],
            ["bench", "advisor", "--model", "m.json"],
            ["bench", "advisor", "--latency-n", "128"],
        ],
    )
    def test_learned_advisor_flags_are_gone(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err
