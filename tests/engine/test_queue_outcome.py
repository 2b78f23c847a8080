"""The queue backend's outcome is its merged checkpoint.

Done markers and ``queue.json`` are plain JSON that the coordinator
validates and never unpickles; the shard merge applies one rule
(a success beats any failure, the most ``attempts`` wins among
failures) to the checkpoint it writes and the outcome it returns
alike; and workers and the degraded coordinator share one per-task
path.  Everything here runs in-process: no worker is spawned.
"""

from __future__ import annotations

import base64
import json
import pickle
import zlib
from pathlib import Path

import pytest

from repro.doctor import diagnose_queue
from repro.engine import SweepRunner, WorkloadSpec, build_grid
from repro.engine.cache import ContentKeyedCache
from repro.engine.checkpoint import (
    CheckpointWriter,
    cell_digests,
    load_checkpoint,
)
from repro.engine.distributed import (
    QueueExecutor,
    QueueLayout,
    QueueOptions,
    _chunk_digest,
    _claim_next,
    _Outstanding,
    _read_done,
    _run_task,
    run_worker,
)
from repro.engine.executors import CheckpointSink, ExecutionSettings
from repro.engine.faults import FaultPlan
from repro.engine.grid import FailedCell
from repro.errors import QueueError, SweepCellError

#: Two cells of one small workload.
CELLS = build_grid(
    [WorkloadSpec.band(64, 4, seed=3)], ("csr", "coo"), (8,)
)
DIGESTS = cell_digests(CELLS)
N_SHARDS = 4


class _Hostile:
    """Pickles to a call that writes ``path`` when unpickled."""

    def __init__(self, path: Path) -> None:
        self.path = path

    def __reduce__(self):
        return (Path.write_text, (self.path, "unpickled"))


def _hostile_field(sentinel: Path) -> str:
    """The queue's legacy ``base64(zlib(pickle))`` field codec."""
    data = zlib.compress(pickle.dumps(_Hostile(sentinel), protocol=4))
    return base64.b64encode(data).decode("ascii")


def _failure(index: int, attempts: int, error_type="InjectedFault"):
    cell = CELLS[index]
    return FailedCell(
        index=index,
        workload=cell.workload_name,
        format_name=cell.format_name,
        partition_size=cell.partition_size,
        recipe_digest="r",
        error_type=error_type,
        message=f"attempt {attempts}",
        attempts=attempts,
    )


@pytest.fixture(scope="module")
def results():
    return SweepRunner().run(CELLS).results


# ----------------------------------------------------------------------
# No pickle is read back from a done marker or queue.json
# ----------------------------------------------------------------------
class TestNoUnpickling:
    def test_a_legacy_done_payload_is_never_unpickled(self, tmp_path):
        layout = QueueLayout(tmp_path / "queue")
        layout.create(ExecutionSettings(), N_SHARDS)
        sentinel = tmp_path / "sentinel"
        digest = _chunk_digest(DIGESTS)
        marker = layout.done / f"{digest}.done"
        marker.write_text(
            json.dumps({
                "digest": digest,
                "worker": "w-old",
                "attempt": 0,
                "stolen": False,
                "payload": _hostile_field(sentinel),
            })
        )
        outstanding = {digest: _Outstanding([], DIGESTS, 0)}
        markers: list = []
        fatal = QueueExecutor(ExecutionSettings())._collect_done(
            layout, outstanding, markers, {}
        )
        assert fatal is None and markers == []
        assert digest in outstanding, "an invalid marker is not done"
        assert _read_done(marker) is None
        report = diagnose_queue(layout.root, repair=True)
        assert report["by_kind"] == {"corrupt-done": 1}
        assert not marker.exists()
        assert not sentinel.exists()

    def test_a_schema_1_queue_json_is_refused_unread(self, tmp_path):
        layout = QueueLayout(tmp_path / "queue")
        layout.create(ExecutionSettings(), N_SHARDS)
        sentinel = tmp_path / "sentinel"
        layout.meta.write_text(
            json.dumps({
                "kind": "copernicus-work-queue",
                "schema": 1,
                "n_shards": N_SHARDS,
                "settings": _hostile_field(sentinel),
                "summary": {"encode": False},
            })
        )
        with pytest.raises(QueueError, match="unsupported queue schema 1"):
            run_worker(layout.root, worker_id="w-test", oneshot=True)
        with pytest.raises(QueueError, match="unsupported queue schema 1"):
            layout.load_meta()
        assert not sentinel.exists()


class TestQueueJson:
    def test_settings_round_trip(self, tmp_path):
        settings = ExecutionSettings(
            encode=True,
            telemetry=True,
            error_policy="fail_fast",
            faults=FaultPlan.parse(
                "raise@*:coo:8#times=none,disk-full@shards#after=5"
            ),
            max_retries=4,
            chunk_timeout=2.5,
            max_workers=3,
            max_pool_restarts=1,
        )
        layout = QueueLayout(tmp_path / "queue")
        layout.create(settings, N_SHARDS)
        assert layout.load_meta() == (settings, N_SHARDS)
        assert isinstance(
            json.loads(layout.meta.read_text())["settings"]["faults"], str
        )

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda s: s.pop("max_retries"), "missing fields"),
            (lambda s: s.update(extra=1), "unknown fields"),
            (lambda s: s.update(max_retries=True), "'max_retries'"),
            (lambda s: s.update(encode=1), "'encode'"),
            (lambda s: s.update(chunk_timeout="5"), "'chunk_timeout'"),
            (lambda s: s.update(faults="explode@*"), "fault plan"),
            (
                lambda s: s.update(faults="corrupt@*:csr:*#mode=strict"),
                "fault plan",
            ),
        ],
        ids=["missing", "unknown", "bool-for-int", "int-for-bool",
             "str-for-float", "bad-plan", "retired-mode-option"],
    )
    def test_invalid_settings_are_refused(self, tmp_path, edit, message):
        layout = QueueLayout(tmp_path / "queue")
        layout.create(ExecutionSettings(), N_SHARDS)
        meta = json.loads(layout.meta.read_text())
        edit(meta["settings"])
        layout.meta.write_text(json.dumps(meta))
        with pytest.raises(QueueError, match=message):
            layout.load_meta()

    def test_pickled_settings_under_schema_2_are_refused(self, tmp_path):
        layout = QueueLayout(tmp_path / "queue")
        layout.create(ExecutionSettings(), N_SHARDS)
        sentinel = tmp_path / "sentinel"
        meta = json.loads(layout.meta.read_text())
        meta["settings"] = _hostile_field(sentinel)
        layout.meta.write_text(json.dumps(meta))
        with pytest.raises(QueueError, match="expected an object"):
            layout.load_meta()
        assert not sentinel.exists()


# ----------------------------------------------------------------------
# One merge rule for the checkpoint and the outcome
# ----------------------------------------------------------------------
def _merge(tmp_path, shards: dict, crash_failures=()):
    """Write ``shards`` ({name: [("ok", i, result) | ("fail", i,
    FailedCell)]}), merge them; returns (checkpoint state, output)."""
    layout = QueueLayout(tmp_path / "queue")
    layout.results.mkdir(parents=True)
    for name, records in shards.items():
        with CheckpointWriter(layout.results / f"{name}.jsonl") as shard:
            for kind, index, value in records:
                if kind == "ok":
                    shard.record_result(DIGESTS[index], CELLS[index], value)
                else:
                    shard.record_failure(DIGESTS[index], value)
    merged = tmp_path / "merged.jsonl"
    cells_by_digest = {
        digest: (index, cell)
        for index, (cell, digest) in enumerate(zip(CELLS, DIGESTS))
    }
    with CheckpointWriter(merged) as writer:
        output = QueueExecutor(ExecutionSettings())._merge_shards(
            layout,
            CheckpointSink(writer, DIGESTS),
            cells_by_digest,
            list(crash_failures),
            [],
        )
    return load_checkpoint(merged), output


def _agree(state, output) -> None:
    """The merged checkpoint and the returned outcome hold the same."""
    results, _enc, _stats, _spans, _metrics, failures = output
    assert {
        DIGESTS[index]: result for index, result in results
    } == {digest: value[0] for digest, value in state.results.items()}
    assert {DIGESTS[f.index]: f for f in failures} == state.failures


class TestMergeRule:
    def test_a_success_beats_a_failure(self, tmp_path, results):
        state, output = _merge(tmp_path, {
            "a": [("ok", 0, results[0]), ("ok", 1, results[1])],
            "b": [("fail", 0, _failure(0, 1))],
        })
        _agree(state, output)
        assert [index for index, _ in output[0]] == [0, 1]
        assert output[5] == []

    @pytest.mark.parametrize("order", [(1, 2), (2, 1)], ids=str)
    def test_the_most_attempts_wins_in_either_shard_order(
        self, tmp_path, results, order
    ):
        first, second = order
        state, output = _merge(tmp_path, {
            "a": [("ok", 1, results[1]), ("fail", 0, _failure(0, first))],
            "b": [("fail", 0, _failure(0, second))],
        })
        _agree(state, output)
        assert [f.attempts for f in output[5]] == [2]
        assert output[5][0].message == "attempt 2"

    def test_a_crash_failure_is_superseded_by_a_success(
        self, tmp_path, results
    ):
        crash = _failure(0, 3, error_type="WorkerCrashError")
        state, output = _merge(
            tmp_path,
            {"a": [("ok", 0, results[0]), ("ok", 1, results[1])]},
            crash_failures=[crash],
        )
        _agree(state, output)
        assert output[5] == [] and state.failures == {}

    def test_a_crash_failure_stands_alone(self, tmp_path, results):
        crash = _failure(0, 3, error_type="WorkerCrashError")
        state, output = _merge(
            tmp_path,
            {"a": [("ok", 1, results[1]), ("fail", 0, _failure(0, 1))]},
            crash_failures=[crash],
        )
        _agree(state, output)
        assert output[5] == [crash]


# ----------------------------------------------------------------------
# Workers and the degraded coordinator share one per-task path
# ----------------------------------------------------------------------
def _publish(layout: QueueLayout, settings: ExecutionSettings) -> str:
    executor = QueueExecutor(settings, QueueOptions(n_shards=N_SHARDS))
    shipped, digests = executor._prepare_chunk(
        layout, list(enumerate(CELLS))
    )
    digest = _chunk_digest(digests)
    layout.write_task(
        digest, layout.shard_of(digest, N_SHARDS), 0, shipped, digests
    )
    return digest


def _degraded(layout: QueueLayout, settings: ExecutionSettings) -> dict:
    worker_id = "coordinator-test"
    home = layout.home_shard(worker_id, N_SHARDS)
    claimed = _claim_next(layout, worker_id, home, N_SHARDS)
    with CheckpointWriter(layout.results / f"{worker_id}.jsonl") as writer:
        return _run_task(
            layout, settings, ContentKeyedCache(), writer, worker_id,
            home, claimed, in_worker=False,
        )


class TestSharedTaskPath:
    def test_degraded_records_and_marker_match_a_worker(self, tmp_path):
        settings = ExecutionSettings(encode=True)
        layout = QueueLayout(tmp_path / "queue")
        layout.create(settings, N_SHARDS)
        digest = _publish(layout, settings)
        marker_path = layout.done / f"{digest}.done"

        degraded = _degraded(layout, settings)
        assert json.loads(marker_path.read_text()) == degraded
        assert not list(layout.tasks.iterdir())
        assert not list(layout.claimed.iterdir())

        _publish(layout, settings)
        stats = run_worker(layout.root, worker_id="w-test", oneshot=True)
        assert (stats["n_chunks"], stats["n_cells"]) == (1, len(CELLS))
        worker = json.loads(marker_path.read_text())
        assert worker["worker"] == "w-test"
        for marker in (degraded, worker):
            del marker["worker"], marker["stolen"]
        assert worker == degraded
        assert degraded["fatal"] is None
        assert sum(degraded["cache"]["misses"].values()) > 0

        shards = {
            path.stem: load_checkpoint(path)
            for path in layout.results.glob("*.jsonl")
        }
        assert set(shards) == {"coordinator-test", "w-test"}
        a, b = shards.values()
        assert set(a.results) == set(b.results) == set(DIGESTS)
        for key in DIGESTS:
            (result_a, _, cache_a), (result_b, _, cache_b) = (
                a.results[key], b.results[key]
            )
            assert (result_a, cache_a) == (result_b, cache_b)
        assert a.encodings == b.encodings and len(a.encodings) == 2

    def test_a_fatal_error_is_raised_degraded_and_marked_by_a_worker(
        self, tmp_path
    ):
        settings = ExecutionSettings(
            error_policy="fail_fast",
            faults=FaultPlan.parse("raise@*:coo:8#times=none"),
        )
        layout = QueueLayout(tmp_path / "queue")
        layout.create(settings, N_SHARDS)
        digest = _publish(layout, settings)
        marker_path = layout.done / f"{digest}.done"
        with pytest.raises(SweepCellError) as raised:
            _degraded(layout, settings)
        assert not marker_path.exists()
        assert not list(layout.claimed.iterdir())

        _publish(layout, settings)
        run_worker(layout.root, worker_id="w-test", oneshot=True)
        fatal = _read_done(marker_path)["fatal"]
        assert isinstance(fatal, SweepCellError)
        assert fatal.coords == raised.value.coords == CELLS[1].coords
        assert (fatal.reason, fatal.attempts) == (
            raised.value.reason, raised.value.attempts
        )
