"""Command-line interface.

Everything the library computes is reachable from the shell::

    python -m repro formats
    python -m repro experiments
    python -m repro table1
    python -m repro table2
    python -m repro characterize --random 512 --density 0.02 -f csr -p 16
    python -m repro characterize --standin WG --all-formats
    python -m repro sweep --group band --metric sigma
    python -m repro sweep --group random --workers 4 --profile
    python -m repro sweep --group band --emit-metrics run.jsonl
    python -m repro sweep --group band --checkpoint ckpt.jsonl
    python -m repro sweep --group band --checkpoint ckpt.jsonl --resume
    python -m repro sweep --group random --error-policy fail_fast
    python -m repro sweep --group band --integrity-check
    python -m repro sweep --group band --backend queue --workers 4 \
        --checkpoint ckpt.jsonl
    python -m repro sweep --group band --backend queue --queue-dir q \
        --queue-workers 0   # coordinator only; join workers by hand
    python -m repro worker --queue q
    python -m repro checkpoint ckpt.jsonl
    python -m repro checkpoint ckpt.jsonl --digest
    python -m repro checkpoint ckpt.jsonl --compact --out tidy.jsonl
    python -m repro bench pipeline --quick
    python -m repro bench distributed --quick
    python -m repro stats run.jsonl
    python -m repro stats run.jsonl --against baseline.jsonl
    python -m repro integrity --random 64 --density 0.08 --injections 50
    python -m repro advise --standin KR
    python -m repro advise --random 2048 --density 0.01 --fast
    python -m repro bench advisor
    python -m repro serve --port 8787 --budget-s 5
    python -m repro serve --port 8787 --metrics-snapshot final.json
    python -m repro serve --port 8787 --shed-p99-ms 250
    python -m repro loadgen --port 8787 --mix hot --requests 200
    python -m repro loadgen --spawn --requests 200 --seed 7
    python -m repro loadgen --spawn --mix hostile
    python -m repro fuzz --cases 400 --save-crashes
    python -m repro fuzz --replay
    python -m repro bench guard --quick --output BENCH_guard.json
    python -m repro bench chaos --seed 7 --schedules 20
    python -m repro doctor q --checkpoint ckpt.jsonl --repair
    python -m repro doctor q --check

Each sub-command builds its workload, runs the characterization core,
and prints plain-text tables (``repro.analysis``).
"""

from __future__ import annotations

import argparse
from typing import Sequence

from .analysis import (
    EXPERIMENTS,
    characterization_report,
    compare_records,
    comparison_table,
    format_table,
    integrity_report_text,
    manifest_diff_table,
    manifest_summary_table,
    profile_table,
)
from .core import (
    SUMMARY_METRICS,
    SpmvSimulator,
    explore,
    load_records,
    pareto_frontier,
    run_integrity_campaign,
    summarize,
)
from .engine import SweepRunner
from .errors import CopernicusError, SweepCellError
from .formats import ALL_FORMATS, CORRUPTION_KINDS, PAPER_FORMATS, get_format
from .hardware import (
    DEFAULT_CONFIG,
    PAPER_TABLE2,
    HardwareConfig,
    estimate_power,
    estimate_resources,
)
from .matrix import SparseMatrix
from .partition import PARTITION_SIZES
from .workloads import (
    TABLE1,
    Workload,
    band_matrix,
    poisson_2d,
    random_matrix,
    standin_by_id,
    workload_group,
)

__all__ = ["main", "build_parser"]


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--random", type=int, metavar="N",
        help="uniform random N x N matrix (see --density)",
    )
    source.add_argument(
        "--band", type=int, metavar="N",
        help="band matrix of size N (see --width)",
    )
    source.add_argument(
        "--poisson", type=int, metavar="GRID",
        help="2-D Poisson stencil on a GRID x GRID domain",
    )
    source.add_argument(
        "--standin", metavar="ID",
        help="Table 1 stand-in by two-letter ID (e.g. WG, KR)",
    )
    parser.add_argument(
        "--density", type=float, default=0.01,
        help="density for --random (default 0.01)",
    )
    parser.add_argument(
        "--width", type=int, default=8,
        help="band width for --band (default 8)",
    )
    parser.add_argument(
        "--max-dim", type=int, default=2048,
        help="dimension cap for --standin (default 2048)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="generator seed (default 0)"
    )


def _build_workload(args: argparse.Namespace) -> tuple[str, SparseMatrix]:
    if args.random is not None:
        return (
            f"random-{args.density:g}",
            random_matrix(args.random, args.density, seed=args.seed),
        )
    if args.band is not None:
        return (
            f"band-{args.width}",
            band_matrix(args.band, args.width, seed=args.seed),
        )
    if args.poisson is not None:
        return f"poisson-{args.poisson}", poisson_2d(args.poisson)
    return (
        args.standin,
        standin_by_id(args.standin, max_dim=args.max_dim, seed=args.seed),
    )


def _cmd_formats(_: argparse.Namespace) -> str:
    rows = []
    for name in ALL_FORMATS:
        fmt = get_format(name)
        flags = []
        if name in PAPER_FORMATS:
            flags.append("paper")
        rows.append([name, type(fmt).__name__, ", ".join(flags)])
    return format_table(
        ["name", "class", "notes"], rows, title="Registered sparse formats"
    )


def _cmd_experiments(_: argparse.Namespace) -> str:
    rows = [
        [exp.id, exp.artifact, exp.description, exp.benchmark]
        for exp in EXPERIMENTS
    ]
    return format_table(
        ["id", "artifact", "description", "benchmark"],
        rows,
        title="Experiment index (see DESIGN.md)",
    )


def _cmd_table1(_: argparse.Namespace) -> str:
    rows = [
        [r.id, r.name, r.dim_millions, r.nnz_millions, r.kind, r.family]
        for r in TABLE1
    ]
    return format_table(
        ["ID", "Name", "Dim(M)", "NNZ(M)", "Kind", "stand-in family"],
        rows,
        title="Table 1: SuiteSparse matrices",
    )


def _cmd_table2(_: argparse.Namespace) -> str:
    rows = []
    for paper_row in PAPER_TABLE2:
        for p in PARTITION_SIZES:
            config = HardwareConfig(partition_size=p)
            resources = estimate_resources(paper_row.format_name, config)
            power = estimate_power(paper_row.format_name, config, resources)
            published = paper_row.at(p)
            rows.append(
                [
                    paper_row.format_name, p,
                    resources.bram_18k, published[0],
                    resources.ff_thousands, published[1],
                    resources.lut_thousands, published[2],
                    power.dynamic_w, published[3],
                ]
            )
    return format_table(
        ["format", "p", "BRAM", "(paper)", "FF k", "(paper)",
         "LUT k", "(paper)", "dyn W", "(paper)"],
        rows,
        title="Table 2: model vs published",
    )


def _cmd_characterize(args: argparse.Namespace) -> str:
    name, matrix = _build_workload(args)
    simulator = SpmvSimulator(HardwareConfig(partition_size=args.partition))
    formats = PAPER_FORMATS if args.all_formats else tuple(args.format)
    results = simulator.characterize_formats(matrix, formats, workload=name)
    rows = [
        [
            fmt,
            result.sigma,
            result.total_seconds * 1e6,
            result.balance_ratio,
            result.throughput_bytes_per_s / 1e9,
            result.bandwidth_utilization,
            result.dynamic_power_w,
        ]
        for fmt, result in results.items()
    ]
    return format_table(
        ["format", "sigma", "latency us", "balance", "thr GB/s",
         "bw util", "dyn W"],
        rows,
        title=f"Characterization of {name} ({matrix.n_rows}x"
        f"{matrix.n_cols}, nnz={matrix.nnz}, p={args.partition})",
    )


def _queue_options(args: argparse.Namespace):
    """Build QueueOptions from sweep flags, or None off the queue path."""
    if args.backend != "queue":
        return None
    from .engine.distributed import QueueOptions

    return QueueOptions(
        queue_dir=args.queue_dir,
        spawn_workers=args.queue_workers,
        lease_timeout_s=args.lease_timeout,
        keep_queue=args.keep_queue,
        speculate_factor=args.speculate,
    )


def _cmd_sweep(args: argparse.Namespace) -> str:
    workloads = workload_group(args.group)
    telemetry = args.profile or args.emit_metrics is not None
    runner = SweepRunner(
        max_workers=args.workers,
        telemetry=telemetry,
        error_policy=args.error_policy,
        max_retries=args.max_retries,
        chunk_timeout=args.chunk_timeout,
        faults=args.inject_faults,
        checkpoint=args.checkpoint,
        resume=args.resume,
        backend=args.backend,
        queue_options=_queue_options(args),
    )
    base_config = (
        HardwareConfig(integrity_check=True)
        if args.integrity_check
        else DEFAULT_CONFIG
    )
    outcome = runner.run_grid(
        workloads,
        PAPER_FORMATS,
        partition_sizes=tuple(args.partitions),
        base_config=base_config,
    )
    cube = outcome.by_coords()
    blocks = []
    for p in args.partitions:
        rows = []
        for load in workloads:
            row: list = [load.name]
            for fmt in PAPER_FORMATS:
                result = cube.get((load.name, fmt, p))
                row.append(
                    "FAILED" if result is None
                    else getattr(result, args.metric)
                )
            rows.append(row)
        blocks.append(
            format_table(
                ["workload"] + list(PAPER_FORMATS),
                rows,
                title=f"{args.metric} sweep, group={args.group}, p={p}",
            )
        )
    if outcome.failures:
        blocks.append(
            format_table(
                ["workload", "format", "p", "error", "attempts"],
                [
                    [
                        f.workload,
                        f.format_name,
                        f.partition_size,
                        f"{f.error_type}: {f.message}"[:60],
                        f.attempts,
                    ]
                    for f in outcome.failures
                ],
                title=f"Failed cells ({outcome.n_failed})",
            )
        )
    if args.profile:
        blocks.append(profile_table(outcome.telemetry))
    if args.emit_metrics is not None:
        path = outcome.write_manifest(args.emit_metrics)
        blocks.append(f"run manifest written to {path}")
    return "\n\n".join(blocks)


def _cmd_integrity(args: argparse.Namespace) -> str:
    name, matrix = _build_workload(args)
    formats = (
        tuple(args.format) if args.format else ALL_FORMATS
    )
    report = run_integrity_campaign(
        matrix,
        format_names=formats,
        partition_sizes=tuple(args.partitions),
        kinds=tuple(args.kinds),
        injections=args.injections,
        seed=args.seed,
    )
    text = f"Integrity campaign on {name}\n\n" + integrity_report_text(
        report
    )
    if args.emit is not None:
        from pathlib import Path

        from . import io_atomic

        path = Path(args.emit)
        io_atomic.atomic_write_text(
            path, report.to_json(indent=2) + "\n"
        )
        text += f"\n\ndetection-coverage report written to {path}"
    return text


def _cmd_worker(args: argparse.Namespace) -> str:
    from .engine.distributed import run_worker

    stats = run_worker(
        args.queue,
        worker_id=args.worker_id,
        poll_interval_s=args.poll_interval,
        max_chunks=args.max_chunks,
        oneshot=args.oneshot,
    )
    return (
        f"worker {stats['worker']} (home shard {stats['home_shard']}) "
        f"finished: {stats['n_chunks']} chunks, {stats['n_cells']} "
        f"cells, {stats['n_stolen']} stolen from foreign shards"
    )


def _is_checkpoint_file(path) -> bool:
    """True iff ``path``'s header line is a sweep-checkpoint header."""
    import json

    from .engine.checkpoint import CHECKPOINT_KIND

    try:
        with open(path, encoding="utf-8") as handle:
            first = handle.readline()
        return json.loads(first).get("kind") == CHECKPOINT_KIND
    except (OSError, ValueError, AttributeError):
        return False


def _checkpoint_summary_text(summary: dict) -> str:
    lines = [
        f"checkpoint {summary['path']}",
        f"  digest: {summary['digest']}",
        f"  records: {summary['n_records']} "
        f"({summary['n_duplicate_cells']} superseded duplicates), "
        f"{summary['bytes']} bytes",
        f"  cells: {summary['n_cells']} finished, "
        f"{summary['n_failed']} failed, "
        f"{summary['n_encodings']} encoding summaries",
        f"  recorded wall time: {summary['recorded_wall_s']:.2f}s",
    ]
    if summary["cells_per_workload"]:
        lines.append("  cells per workload:")
        for workload, count in sorted(
            summary["cells_per_workload"].items()
        ):
            lines.append(f"    {workload}: {count}")
    for failed in summary["failed"]:
        lines.append(f"  FAILED {failed}")
    return "\n".join(lines)


def _cmd_checkpoint(args: argparse.Namespace) -> str:
    from pathlib import Path

    from .engine.checkpoint import (
        checkpoint_summary,
        compact_checkpoint,
    )
    from .errors import CheckpointError

    if not Path(args.path).is_file():
        raise CheckpointError(
            f"checkpoint not found: {args.path} (write one with "
            "`repro sweep --checkpoint PATH`)"
        )
    if args.compact:
        result = compact_checkpoint(args.path, output=args.out)
        return (
            f"compacted {args.path} -> {result['path']}: "
            f"{result['records_before']} -> {result['records_after']} "
            f"records ({result['dropped']} dropped), "
            f"{result['bytes_before']} -> {result['bytes_after']} "
            f"bytes\ndigest: {result['digest']}"
        )
    summary = checkpoint_summary(args.path)
    if args.digest:
        return summary["digest"]
    return _checkpoint_summary_text(summary)


def _cmd_stats(args: argparse.Namespace) -> str:
    from pathlib import Path

    from .errors import ManifestError
    from .observability import read_manifest

    # fail with a per-argument message before read_manifest's generic
    # one: with --against the user needs to know *which* path is bad
    hint = (
        "pass a JSON-lines manifest written by "
        "`repro sweep --emit-metrics PATH`"
    )
    if not Path(args.manifest).is_file():
        raise ManifestError(
            f"manifest not found: {args.manifest} ({hint})"
        )
    if _is_checkpoint_file(args.manifest):
        # checkpoints are JSON-lines too; route them to the richer
        # checkpoint summary instead of a manifest parse error
        from .engine.checkpoint import checkpoint_summary

        if args.against is not None:
            raise ManifestError(
                "--against diffs run manifests; to compare "
                "checkpoints, compare `repro checkpoint PATH "
                "--digest` outputs"
            )
        return _checkpoint_summary_text(
            checkpoint_summary(args.manifest)
        )
    if args.against is not None and not Path(args.against).is_file():
        raise ManifestError(
            f"--against baseline not found: {args.against} ({hint})"
        )
    manifest = read_manifest(args.manifest)
    if args.against is not None:
        baseline = read_manifest(args.against)
        return manifest_diff_table(
            baseline,
            manifest,
            min_relative=args.threshold,
            limit=args.limit,
        )
    return manifest_summary_table(manifest, slowest=args.slowest)


def _cmd_report(args: argparse.Namespace) -> str:
    name, matrix = _build_workload(args)
    return characterization_report(matrix, name)


def _cmd_compare(args: argparse.Namespace) -> str:
    deltas = compare_records(
        load_records(args.before),
        load_records(args.after),
        min_relative=args.threshold,
    )
    if not deltas:
        return "no metric changes above the threshold"
    return comparison_table(deltas, limit=args.limit)


def _cmd_pareto(args: argparse.Namespace) -> str:
    name, matrix = _build_workload(args)
    points = explore(matrix, lane_counts=tuple(args.lanes))
    frontier = pareto_frontier(points, tuple(args.objectives))
    rows = [
        [
            point.format_name,
            point.partition_size,
            point.n_lanes,
        ]
        + [point.metric(obj) for obj in args.objectives]
        for point in frontier
    ]
    return format_table(
        ["format", "p", "lanes"] + list(args.objectives),
        rows,
        title=f"Pareto frontier for {name} "
        f"({len(frontier)} of {len(points)} designs)",
    )


def _bench_suites() -> tuple:
    """The ``repro bench`` suites, each declared as data."""
    from .bench import SUITE as pipeline
    from .bench_advisor import SUITE as advisor
    from .bench_distributed import SUITE as distributed
    from .chaos import SUITE as chaos
    from .guard.campaign import SUITE as guard

    return (pipeline, distributed, advisor, guard, chaos)


def _report_and_gate(report: dict, output: str, lines: list[str]) -> str:
    """Write the report, print its gates, then fail on a failed gate."""
    from .envelope import check_gates, gate_lines, gate_summary, write_bench

    path = write_bench(report, output)
    print(
        "\n".join([*lines, *gate_lines(report),
                   f"report written to {path}"]),
        flush=True,
    )
    # raises BenchGateError (exit 2) only now the report is on disk
    check_gates(report)
    return gate_summary(report)


def _cmd_bench(args: argparse.Namespace) -> str:
    suite = args.bench_suite
    given = {
        param.name: getattr(args, param.name)
        for param in suite.params
        if param.flag
    }
    report = suite.run(seed=args.seed, quick=args.quick, **given)
    return _report_and_gate(report, args.output, suite.describe(report))


def _cmd_advise(args: argparse.Namespace) -> str:
    if args.fast:
        return _cmd_advise_fast(args)
    name, matrix = _build_workload(args)
    workload = Workload(name=name, group="cli", matrix=matrix)
    results = SweepRunner(error_policy="fail_fast").run_grid(
        [workload], PAPER_FORMATS, partition_sizes=PARTITION_SIZES
    ).results
    scores = sorted(
        summarize(results, PAPER_FORMATS),
        key=lambda s: s.overall,
        reverse=True,
    )
    metric_names = list(SUMMARY_METRICS)
    table = format_table(
        ["rank", "format"] + metric_names + ["overall"],
        [
            [index + 1, score.format_name]
            + [score.scores[m] for m in metric_names]
            + [score.overall]
            for index, score in enumerate(scores)
        ],
        title=f"Format recommendation for {name} (1 = best)",
    )
    return table + f"\n\nrecommended format: {scores[0].format_name}"


def _cmd_advise_fast(args: argparse.Namespace) -> str:
    from .core.recommend import (
        SAMPLE_BAND_ROWS,
        SAMPLE_FLOOR_BANDS,
        SAMPLE_OFFSET,
        recommend,
    )

    name, matrix = _build_workload(args)
    advice = recommend(
        matrix, formats=PAPER_FORMATS, partition_sizes=PARTITION_SIZES,
        fast=True,
    )
    rows = [
        [index + 1, result.format_name, result.partition_size,
         advice.cycles(result)]
        for index, result in enumerate(advice.ranking())
    ]
    k = advice.sample_every
    table = format_table(
        ["rank", "format", "p", "cycles" if k == 1 else "est. cycles"],
        rows,
        title=f"Latency advice for {name} (1 = best)",
    )
    if k == 1:
        provenance = (
            f"exact: every row characterized (sampling needs >= "
            f"{SAMPLE_FLOOR_BANDS * SAMPLE_BAND_ROWS} rows)"
        )
    else:
        provenance = (
            f"sampled: every {k}th band of {SAMPLE_BAND_ROWS} rows "
            f"from band {SAMPLE_OFFSET}; est. cycles = "
            f"{k} x steady + fill + drain"
        )
    return table + (
        f"\n\nrecommended: {advice.format_name} at "
        f"p={advice.partition_size}\n{provenance}"
    )


def _cmd_serve(args: argparse.Namespace) -> str:
    import asyncio

    from .guard import GuardPolicy, SandboxLimits
    from .serve import CharacterizationServer

    guard_policy = GuardPolicy(
        breaker_threshold=args.breaker_threshold,
        breaker_recovery_s=args.breaker_recovery,
        shed_p99_ms=args.shed_p99_ms,
    )
    sandbox_limits = SandboxLimits(
        wall_s=args.sandbox_wall_s,
        rss_mb=args.sandbox_rss_mb,
    )

    async def _run() -> str:
        import signal

        server = CharacterizationServer(
            args.host,
            args.port,
            max_inflight=args.max_inflight,
            queue_limit=args.queue_limit,
            budget_s=args.budget_s,
            cache_size=args.cache_size,
            max_dim=args.max_dim,
            faults=args.inject_faults,
            guard_policy=guard_policy,
            sandbox_limits=sandbox_limits,
        )
        await server.start()
        shedding = "+shedding" if args.shed_p99_ms is not None else ""
        print(
            f"serving on http://{server.host}:{server.port}  "
            "(POST /characterize, POST /advise, GET /metrics, "
            f"GET /healthz; guard: breaker{shedding}; "
            "SIGTERM/Ctrl-C drains and stops)",
            flush=True,
        )
        # SIGTERM and SIGINT both take the graceful path: stop
        # accepting, give in-flight requests --drain-timeout to
        # finish (stragglers answer 503), flush a final metrics/v1
        # snapshot, then exit 0
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        hooked = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
                hooked.append(signum)
            except (NotImplementedError, RuntimeError):
                pass
        forever = asyncio.ensure_future(server.serve_forever())
        stopped = asyncio.ensure_future(stop.wait())
        try:
            await asyncio.wait(
                {forever, stopped},
                return_when=asyncio.FIRST_COMPLETED,
            )
        finally:
            for task in (forever, stopped):
                task.cancel()
            await asyncio.gather(
                forever, stopped, return_exceptions=True
            )
            for signum in hooked:
                loop.remove_signal_handler(signum)
            await server.drain(
                timeout_s=args.drain_timeout,
                snapshot_path=args.metrics_snapshot,
            )
            await server.aclose()
        if args.metrics_snapshot is not None:
            return (
                "server drained and stopped; final metrics "
                f"snapshot written to {args.metrics_snapshot}"
            )
        return "server drained and stopped"

    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:
        return "server stopped"


def _cmd_loadgen(args: argparse.Namespace) -> str:
    import asyncio

    from .errors import LoadGenError
    from .serve import CharacterizationServer
    from .serve.loadgen import run_loadgen

    async def _run() -> dict:
        server = None
        host, port = args.host, args.port
        if args.spawn:
            server = CharacterizationServer(
                host,
                0,
                max_inflight=args.max_inflight,
                budget_s=args.budget_s,
            )
            await server.start()
            port = server.port
        elif port is None:
            raise LoadGenError(
                "pass --port of a running `repro serve`, or --spawn "
                "to boot a private server for the run"
            )
        try:
            return await run_loadgen(
                host,
                port,
                mix=args.mix,
                requests=args.requests,
                seed=args.seed,
                concurrency=args.concurrency,
                retry_policy=retry_policy,
            )
        finally:
            if server is not None:
                await server.aclose()

    retry_policy = None
    if args.retry_attempts:
        from .engine.retry import RetryPolicy

        retry_policy = RetryPolicy(
            max_attempts=args.retry_attempts + 1
        )
    report = asyncio.run(_run())
    latency = report["latency_ms"]
    server_stats = report["server"]
    config = report["config"]
    lines = [
        f"mix={config['mix']} requests={report['requests']} "
        f"seed={config['seed']} concurrency={config['concurrency']}",
        f"throughput: {report['throughput_rps']:.1f} req/s "
        f"over {report['wall_s']:.2f}s",
        "latency ms: "
        f"p50={latency['p50']:.2f} p90={latency['p90']:.2f} "
        f"p99={latency['p99']:.2f} max={latency['max']:.2f}",
        f"statuses: {report['statuses']} (5xx: {report['n_5xx']}, "
        f"degraded: {report['n_degraded']})",
        f"retries: {report['retries']['total']} total over "
        f"{report['retries']['requests_retried']} requests, "
        f"{report['retries']['resolved_429']} resolved to 200",
        f"sources: {report['sources']}",
        "server: "
        f"coalesce {server_stats['coalesce_hits']} hits "
        f"({server_stats['coalesce_hit_rate']:.0%}), "
        f"cache {server_stats['cache_hits']} hits "
        f"({server_stats['cache_hit_rate']:.0%}), "
        f"{server_stats['computations']} backend computations",
    ]
    hostile = report["hostile"]
    if hostile["requests"]:
        lines.append(
            f"hostile: {hostile['requests']} requests, "
            f"{hostile['contained']} contained, "
            f"{hostile['served_2xx']} served 2xx, "
            f"worker harm: {hostile['worker_harm']}"
        )
    return _report_and_gate(report, args.output, lines)


def _cmd_fuzz(args: argparse.Namespace) -> str:
    from pathlib import Path

    from . import io_atomic
    from .errors import FuzzError
    from .guard import (
        Sandbox,
        SandboxLimits,
        fuzz_run,
        minimize_case,
        replay_corpus,
        save_case,
    )

    corpus_dir = Path(args.corpus)
    limits = SandboxLimits(wall_s=args.sandbox_wall_s)
    with Sandbox(limits) as sandbox:
        if args.replay:
            report = replay_corpus(corpus_dir, sandbox=sandbox)
            mode = f"replayed corpus {corpus_dir}"
        else:
            n_cases, budget_s = args.cases, args.budget_s
            if n_cases is None and budget_s is None:
                n_cases = 400
            report = fuzz_run(
                args.seed,
                n_cases=n_cases,
                budget_s=budget_s,
                sandbox=sandbox,
            )
            mode = f"fuzzed seed={args.seed}"
    verdicts = ", ".join(
        f"{kind}={count}"
        for kind, count in sorted(report.by_verdict.items())
    )
    lines = [
        f"{mode}: {report.tried} inputs in {report.wall_s:.1f}s",
        f"verdicts: {verdicts or 'none'}",
    ]
    saved: list[str] = []
    if report.crashes and args.save_crashes:
        # one minimized corpus entry per distinct signature — the
        # regression corpus records crash classes, not every instance
        seen: set = set()
        for outcome in report.crashes:
            if outcome.signature in seen:
                continue
            seen.add(outcome.signature)
            path = save_case(
                corpus_dir, minimize_case(outcome.case)
            )
            saved.append(str(path))
        lines.append(
            "minimized crash cases saved: " + ", ".join(saved)
        )
    if args.output is not None:
        io_atomic.atomic_write_json(
            Path(args.output), report.to_dict()
        )
        lines.append(f"report written to {args.output}")
    if report.crashes:
        print("\n".join(lines), flush=True)
        raise FuzzError(
            f"{len(report.crashes)} of {report.tried} inputs crashed "
            f"the pipeline ({', '.join(report.crash_signatures)})"
            + (
                f"; minimized cases saved to {corpus_dir}"
                if saved
                else "; rerun with --save-crashes to record them"
            )
        )
    lines.append("no crashes: every input came back as a typed verdict")
    return "\n".join(lines)


def _cmd_doctor(args: argparse.Namespace) -> str:
    from pathlib import Path

    from .doctor import diagnose
    from .errors import DoctorError

    if not Path(args.path).exists():
        raise DoctorError(
            f"nothing to diagnose: {args.path} is neither a queue "
            "directory nor a checkpoint file"
        )
    report = diagnose(
        args.path,
        repair=args.repair,
        lease_timeout_s=args.lease_timeout,
        checkpoint=args.checkpoint,
    )
    lines = [
        f"doctor report for {report['target']} ({report['kind']}, "
        + ("repair" if report["repair"] else "audit")
        + " mode)",
        f"  findings: {report['n_findings']} "
        f"({report['n_repaired']} repaired)",
    ]
    if report["by_kind"]:
        lines.append(
            "  by kind: "
            + ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(report["by_kind"].items())
            )
        )
    for finding in report["findings"]:
        marker = " [repaired]" if finding["repaired"] else ""
        lines.append(
            f"  - {finding['kind']}: {finding['path']} — "
            f"{finding['detail']}{marker}"
        )
    unrepaired = report["n_findings"] - report["n_repaired"]
    if args.check and unrepaired:
        raise DoctorError(
            f"{unrepaired} unrepaired finding(s) in {args.path} "
            f"(kinds: {sorted(report['by_kind'])}); run "
            "`repro doctor --repair` to fix"
        )
    lines.append(
        "clean" if unrepaired == 0
        else f"NOT CLEAN: {unrepaired} unrepaired finding(s)"
    )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Copernicus sparse-format characterization",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser(
        "formats", help="list registered sparse formats"
    ).set_defaults(handler=_cmd_formats)
    commands.add_parser(
        "experiments", help="list the paper's tables and figures"
    ).set_defaults(handler=_cmd_experiments)
    commands.add_parser(
        "table1", help="print Table 1 (workload inventory)"
    ).set_defaults(handler=_cmd_table1)
    commands.add_parser(
        "table2", help="print Table 2 (resources & power, model vs paper)"
    ).set_defaults(handler=_cmd_table2)

    characterize = commands.add_parser(
        "characterize", help="characterize formats on one workload"
    )
    _add_workload_arguments(characterize)
    characterize.add_argument(
        "-f", "--format", action="append", default=None,
        choices=sorted(ALL_FORMATS), help="format(s) to run",
    )
    characterize.add_argument(
        "--all-formats", action="store_true",
        help="run all eight paper formats",
    )
    characterize.add_argument(
        "-p", "--partition", type=int, default=16,
        help="partition size (default 16)",
    )
    characterize.set_defaults(handler=_cmd_characterize)

    sweep = commands.add_parser(
        "sweep", help="sweep a metric over a workload group"
    )
    sweep.add_argument(
        "--group", choices=("suitesparse", "random", "band"),
        default="random",
    )
    sweep.add_argument(
        "--metric", default="sigma",
        choices=(
            "sigma", "balance_ratio", "bandwidth_utilization",
            "throughput_bytes_per_s", "total_cycles",
        ),
    )
    sweep.add_argument(
        "--partitions", type=int, nargs="+", default=[16],
        help="partition sizes (default: 16)",
    )
    sweep.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the sweep engine (default: 1)",
    )
    sweep.add_argument(
        "--backend", choices=("auto", "inline", "pool", "queue"),
        default="auto",
        help="execution backend: auto picks pool when --workers > 1, "
        "inline otherwise; queue runs a shared-directory work queue "
        "that external `repro worker` processes can join "
        "(default: auto)",
    )
    sweep.add_argument(
        "--queue-dir", metavar="DIR", default=None,
        help="work-queue directory for --backend queue; point "
        "`repro worker --queue DIR` at it from other machines "
        "(default: a private temporary queue)",
    )
    sweep.add_argument(
        "--queue-workers", type=int, default=None, metavar="N",
        help="local worker processes the queue coordinator spawns "
        "(default: --workers; 0 relies entirely on external workers)",
    )
    sweep.add_argument(
        "--lease-timeout", type=float, default=10.0, metavar="SECONDS",
        help="heartbeat staleness after which a claimed queue task is "
        "reclaimed from a presumed-dead worker (default 10)",
    )
    sweep.add_argument(
        "--keep-queue", action="store_true",
        help="keep the --queue-dir contents after the sweep instead "
        "of cleaning up (debugging aid)",
    )
    sweep.add_argument(
        "--speculate", type=float, default=None, metavar="FACTOR",
        help="straggler mitigation for --backend queue: re-dispatch "
        "a duplicate of any task claimed longer than FACTOR x the "
        "p95 completed-task duration (dedup by digest makes "
        "duplicates safe; default: off)",
    )
    sweep.add_argument(
        "--profile", action="store_true",
        help="collect telemetry and print a run profile "
        "(cache counters, slowest cells)",
    )
    sweep.add_argument(
        "--emit-metrics", metavar="PATH", default=None,
        help="write a JSON-lines run manifest to PATH "
        "(read it back with `repro stats`)",
    )
    sweep.add_argument(
        "--error-policy", choices=("collect", "fail_fast"),
        default="collect",
        help="collect: isolate per-cell failures and keep sweeping "
        "(default); fail_fast: abort on the first failure",
    )
    sweep.add_argument(
        "--max-retries", type=int, default=2,
        help="dispatch retries per chunk after a worker crash "
        "(default 2)",
    )
    sweep.add_argument(
        "--chunk-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per chunk; a chunk exceeding it is "
        "treated like a crashed chunk (default: no budget)",
    )
    sweep.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="append finished cells to a JSON-lines checkpoint at "
        "PATH as they complete",
    )
    sweep.add_argument(
        "--resume", action="store_true",
        help="replay cells already recorded in --checkpoint and "
        "execute only the rest",
    )
    sweep.add_argument(
        # deterministic fault injection (sweep cells and durability
        # seams) for testing the recovery machinery; see
        # repro.engine.faults for the spec grammar
        "--inject-faults", metavar="SPECS", default=None,
        help=argparse.SUPPRESS,
    )
    sweep.add_argument(
        "--integrity-check", action="store_true",
        help="charge CRC/structural check cycles in the memory-read "
        "stage (IntegrityCheckModel)",
    )
    sweep.set_defaults(handler=_cmd_sweep)

    integrity = commands.add_parser(
        "integrity",
        help="seeded corruption campaign: detection coverage per format",
    )
    _add_workload_arguments(integrity)
    integrity.add_argument(
        "-f", "--format", action="append", default=None,
        choices=sorted(ALL_FORMATS),
        help="format(s) to campaign (default: all registered)",
    )
    integrity.add_argument(
        "--partitions", type=int, nargs="+", default=[8],
        help="partition sizes to tile and frame (default: 8)",
    )
    integrity.add_argument(
        "--kinds", nargs="+", default=list(CORRUPTION_KINDS),
        choices=list(CORRUPTION_KINDS),
        help="corruption kinds to inject (default: all)",
    )
    integrity.add_argument(
        "--injections", type=int, default=60,
        help="injections per (format, kind) (default 60)",
    )
    integrity.add_argument(
        "--emit", metavar="PATH", default=None,
        help="also write the report as JSON to PATH",
    )
    integrity.set_defaults(handler=_cmd_integrity)

    worker = commands.add_parser(
        "worker",
        help="join a sweep work queue and execute chunks until STOP",
    )
    worker.add_argument(
        "--queue", metavar="DIR", required=True,
        help="queue directory created by `repro sweep --backend "
        "queue --queue-dir DIR` (any shared filesystem works)",
    )
    worker.add_argument(
        "--worker-id", metavar="ID", default=None,
        help="stable worker identity for shard affinity and lease "
        "ownership (default: host-pid derived)",
    )
    worker.add_argument(
        "--poll-interval", type=float, default=0.05, metavar="SECONDS",
        help="idle sleep between claim attempts (default 0.05)",
    )
    worker.add_argument(
        "--max-chunks", type=int, default=None, metavar="N",
        help="exit after executing N chunks (testing aid)",
    )
    worker.add_argument(
        "--oneshot", action="store_true",
        help="exit as soon as no task is claimable instead of "
        "waiting for the STOP sentinel",
    )
    worker.set_defaults(handler=_cmd_worker)

    checkpoint = commands.add_parser(
        "checkpoint",
        help="inspect or compact a sweep checkpoint file",
    )
    checkpoint.add_argument(
        "path", help="checkpoint file (JSON lines, "
        "`repro sweep --checkpoint PATH`)",
    )
    checkpoint.add_argument(
        "--digest", action="store_true",
        help="print only the content digest (order- and "
        "wall-time-independent; equal digests mean identical results)",
    )
    checkpoint.add_argument(
        "--compact", action="store_true",
        help="rewrite the checkpoint keeping only the latest record "
        "per cell digest",
    )
    checkpoint.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the compacted checkpoint to PATH instead of "
        "replacing in place (only with --compact)",
    )
    checkpoint.set_defaults(handler=_cmd_checkpoint)

    stats = commands.add_parser(
        "stats",
        help="summarize or diff sweep run manifests and checkpoints",
    )
    stats.add_argument("manifest", help="manifest file (JSON lines)")
    stats.add_argument(
        "--against", metavar="BASELINE", default=None,
        help="baseline manifest to diff against (regression check)",
    )
    stats.add_argument(
        "--slowest", type=int, default=5,
        help="slowest cells to list in the summary (default 5)",
    )
    stats.add_argument(
        "--threshold", type=float, default=0.01,
        help="minimum relative change to report with --against "
        "(default 1%%)",
    )
    stats.add_argument(
        "--limit", type=int, default=20,
        help="diff rows to print with --against (default 20)",
    )
    stats.set_defaults(handler=_cmd_stats)

    advise = commands.add_parser(
        "advise", help="rank formats for a workload (Figure-14 style)"
    )
    _add_workload_arguments(advise)
    advise.add_argument(
        "--fast", action="store_true",
        help="rank (format, p) by latency from a band sample of the "
        "matrix (every 8th band of 32 rows) through the exact model; "
        "matrices under 2048 rows run exact",
    )
    advise.set_defaults(handler=_cmd_advise)

    serve = commands.add_parser(
        "serve",
        help="run the characterization query server (HTTP/JSON)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve.add_argument(
        "--port", type=int, default=8787,
        help="bind port; 0 picks an ephemeral port (default 8787)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=4,
        help="concurrent backend computations (default 4)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=16,
        help="computations allowed to queue before new work is "
        "refused with 429 (default 16)",
    )
    serve.add_argument(
        "--budget-s", type=float, default=None, metavar="SECONDS",
        help="per-request time budget; over budget a request degrades "
        "to an approximate answer instead of hanging "
        "(default: no budget)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=256,
        help="LRU result-cache capacity in entries (default 256)",
    )
    serve.add_argument(
        "--max-dim", type=int, default=2048,
        help="largest workload dimension a query may ask for "
        "(default 2048)",
    )
    serve.add_argument(
        # deterministic fault injection into every backend sweep;
        # robustness testing only (see repro.engine.faults)
        "--inject-faults", metavar="SPECS", default=None,
        help=argparse.SUPPRESS,
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=5.0, metavar="SECONDS",
        help="on SIGTERM/SIGINT, seconds in-flight requests get to "
        "finish before being answered 503 (default 5)",
    )
    serve.add_argument(
        "--metrics-snapshot", metavar="PATH", default=None,
        help="write a final metrics/v1 snapshot to PATH during "
        "graceful shutdown (atomic write)",
    )
    serve.add_argument(
        "--breaker-threshold", type=int, default=5, metavar="N",
        help="consecutive backend failures before a route's breaker "
        "opens and answers 503 immediately (default 5)",
    )
    serve.add_argument(
        "--breaker-recovery", type=float, default=5.0,
        metavar="SECONDS",
        help="seconds an open breaker waits before letting one probe "
        "request through (default 5)",
    )
    serve.add_argument(
        "--shed-p99-ms", type=float, default=None, metavar="MS",
        help="rolling-window p99 latency SLO; over it, low-priority "
        "requests are shed with 503 + Retry-After, at 2x also "
        "normal-priority (default: shedding off)",
    )
    serve.add_argument(
        "--sandbox-wall-s", type=float, default=10.0,
        metavar="SECONDS",
        help="wall-clock cap per sandboxed untrusted-matrix job "
        "(default 10)",
    )
    serve.add_argument(
        "--sandbox-rss-mb", type=float, default=512.0, metavar="MB",
        help="address-space headroom of the sandbox worker beyond "
        "its baseline (default 512)",
    )
    serve.set_defaults(handler=_cmd_serve)

    loadgen = commands.add_parser(
        "loadgen",
        help="replay a seeded traffic mix against a serve instance",
    )
    loadgen.add_argument(
        "--host", default="127.0.0.1", help="server address"
    )
    loadgen.add_argument(
        "--port", type=int, default=None,
        help="server port (omit with --spawn)",
    )
    loadgen.add_argument(
        "--spawn", action="store_true",
        help="boot a private in-process server for this run instead "
        "of targeting a running one",
    )
    loadgen.add_argument(
        "--mix",
        choices=("hot", "unique", "mixed", "hostile"),
        default="mixed",
        help="traffic mix: hot = hot-key skew, unique = all-miss "
        "flood, mixed = both plus /advise traffic, hostile = half "
        "the stream is seeded malformed-matrix requests from the "
        "fuzz generators (default mixed)",
    )
    loadgen.add_argument(
        "--requests", type=int, default=200,
        help="requests to send (default 200)",
    )
    loadgen.add_argument(
        "--seed", type=int, default=7,
        help="traffic-plan seed; same (mix, requests, seed) replays "
        "identical traffic (default 7)",
    )
    loadgen.add_argument(
        "--concurrency", type=int, default=8,
        help="client connections in flight (default 8)",
    )
    loadgen.add_argument(
        "--max-inflight", type=int, default=4,
        help="backend concurrency of the --spawn server (default 4)",
    )
    loadgen.add_argument(
        "--budget-s", type=float, default=None, metavar="SECONDS",
        help="request budget of the --spawn server (default: none)",
    )
    loadgen.add_argument(
        "--output", metavar="PATH", default="BENCH_serve.json",
        help="bench/v2 report path, gated by the mix "
        "(default BENCH_serve.json)",
    )
    loadgen.add_argument(
        "--retry-attempts", type=int, default=3, metavar="N",
        help="retry a 429 up to N times with jittered exponential "
        "backoff, honoring the server's Retry-After as the delay "
        "floor (0 disables; default 3)",
    )
    loadgen.set_defaults(handler=_cmd_loadgen)

    fuzz = commands.add_parser(
        "fuzz",
        help="fuzz the .mtx parser and format codecs with seeded "
        "hostile inputs; gate on typed verdicts only",
    )
    fuzz.add_argument(
        "--seed", type=int, default=0,
        help="campaign seed; same (seed, cases) generates identical "
        "inputs (default 0)",
    )
    fuzz.add_argument(
        "--cases", type=int, default=None, metavar="N",
        help="inputs to generate (default 400 when no --budget-s)",
    )
    fuzz.add_argument(
        "--budget-s", type=float, default=None, metavar="SECONDS",
        help="wall-clock fuzzing budget; stops at whichever of "
        "--cases / --budget-s comes first",
    )
    fuzz.add_argument(
        "--replay", action="store_true",
        help="re-execute the regression corpus instead of "
        "generating fresh inputs (CI mode)",
    )
    fuzz.add_argument(
        "--corpus", metavar="DIR", default="tests/corpus",
        help="regression-corpus directory (default tests/corpus)",
    )
    fuzz.add_argument(
        "--save-crashes", action="store_true",
        help="delta-debug each new crash to a minimal reproducer "
        "and save it into the corpus",
    )
    fuzz.add_argument(
        "--sandbox-wall-s", type=float, default=5.0,
        metavar="SECONDS",
        help="wall-clock cap per sandboxed deep-execution job "
        "(default 5)",
    )
    fuzz.add_argument(
        "--output", metavar="PATH", default=None,
        help="also write the full fuzz report as JSON to PATH",
    )
    fuzz.set_defaults(handler=_cmd_fuzz)

    bench = commands.add_parser(
        "bench",
        help="run a benchmark or campaign suite and gate its bench/v2 "
        "report (exit 2 when a gate fails)",
    )
    suites = bench.add_subparsers(dest="suite", required=True)
    for suite in _bench_suites():
        sub = suites.add_parser(suite.name, help=suite.help)
        sized = suite.quick_gates is not None or any(
            param.quick is not None for param in suite.params
        )
        sub.add_argument(
            "--quick", action="store_true",
            help="CI-sized run; gates that mean nothing at that size "
            "are left out" if sized else
            "no effect: this suite has no CI size, it always runs in "
            "full with every gate",
        )
        sub.add_argument(
            "--seed", type=int, default=suite.seed,
            help=f"suite seed (default {suite.seed})",
        )
        sub.add_argument(
            "--output", metavar="PATH", default=suite.output,
            help=f"bench/v2 report path (default {suite.output})",
        )
        for param in suite.params:
            if param.flag:
                sub.add_argument(param.flag, **param.argparse_kwargs())
        sub.set_defaults(handler=_cmd_bench, bench_suite=suite)

    doctor = commands.add_parser(
        "doctor",
        help="audit (and repair) queue / checkpoint state after a "
        "crash",
    )
    doctor.add_argument(
        "path",
        help="a queue directory (`repro sweep --backend queue "
        "--keep-queue`) or a checkpoint file",
    )
    doctor.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="canonical sweep checkpoint the queue was feeding; "
        "completed cells stranded in worker shards are salvaged "
        "into it with --repair",
    )
    doctor.add_argument(
        "--repair", action="store_true",
        help="fix what the audit finds: truncate torn tails, drop "
        "corrupt records, requeue expired claims, remove stray "
        "temps and orphan blobs, salvage shard results",
    )
    doctor.add_argument(
        "--check", action="store_true",
        help="exit non-zero if any finding is left unrepaired "
        "(CI gate; combine with --repair for repair-then-verify)",
    )
    doctor.add_argument(
        "--lease-timeout", type=float, default=10.0,
        metavar="SECONDS",
        help="lease age beyond which a claimed task counts as "
        "expired (default 10)",
    )
    doctor.set_defaults(handler=_cmd_doctor)

    report = commands.add_parser(
        "report", help="full characterization report for one workload"
    )
    _add_workload_arguments(report)
    report.set_defaults(handler=_cmd_report)

    compare = commands.add_parser(
        "compare", help="diff two saved result files (JSON)"
    )
    compare.add_argument("before", help="baseline results file")
    compare.add_argument("after", help="new results file")
    compare.add_argument(
        "--threshold", type=float, default=0.01,
        help="minimum relative change to report (default 1%%)",
    )
    compare.add_argument(
        "--limit", type=int, default=20,
        help="rows to print (default 20)",
    )
    compare.set_defaults(handler=_cmd_compare)

    pareto = commands.add_parser(
        "pareto", help="Pareto frontier over (format, p, lanes)"
    )
    _add_workload_arguments(pareto)
    pareto.add_argument(
        "--objectives", nargs="+",
        default=["total_cycles", "dynamic_power_w"],
        help="two or more objective metrics",
    )
    pareto.add_argument(
        "--lanes", type=int, nargs="+", default=[1, 2, 4],
        help="lane counts to explore (default 1 2 4)",
    )
    pareto.set_defaults(handler=_cmd_pareto)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "characterize" and not (
        args.all_formats or args.format
    ):
        parser.error("pass -f/--format (repeatable) or --all-formats")
    if args.command == "sweep" and args.resume and args.checkpoint is None:
        parser.error("--resume requires --checkpoint")
    if args.command == "sweep" and args.backend != "queue":
        if args.queue_dir is not None:
            parser.error("--queue-dir requires --backend queue")
        if args.queue_workers is not None:
            parser.error("--queue-workers requires --backend queue")
        if args.keep_queue:
            parser.error("--keep-queue requires --backend queue")
        if args.speculate is not None:
            parser.error("--speculate requires --backend queue")
    if args.command == "checkpoint":
        if args.out is not None and not args.compact:
            parser.error("--out requires --compact")
        if args.digest and args.compact:
            parser.error("--digest and --compact are exclusive")
    try:
        print(args.handler(args))
    except SweepCellError as error:
        message = f"error: {error}\n"
        if error.traceback_text:
            message = f"{error.traceback_text}\n{message}"
        parser.exit(2, message)
    except (CopernicusError, OSError) as error:
        # OSError: a full disk or unwritable path is an operator
        # problem, not a crash worth a traceback
        parser.exit(2, f"error: {error}\n")
    return 0
