"""``repro doctor``: classification and repair of post-crash state.

Every test follows the operational contract: *repair, then check* —
one ``repair=True`` pass applies the standard remedy, and a follow-up
audit of the same damage class comes back clean.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.doctor import (
    DOCTOR_SCHEMA,
    diagnose,
    diagnose_checkpoint,
    diagnose_queue,
)
from repro.engine import SweepRunner, WorkloadSpec, build_grid, cell_digest
from repro.engine.checkpoint import checkpoint_digest
from repro.engine.distributed import QueueLayout, QueueOptions
from repro.errors import DoctorError

SPECS = (WorkloadSpec.random(48, 0.1, seed=9),)
FORMATS = ("csr", "coo")
PARTITIONS = (8,)


@pytest.fixture(scope="module")
def finished_queue(tmp_path_factory):
    """One completed queue run, kept on disk: queue dir, canonical
    checkpoint, and the sequential reference digest."""
    root = tmp_path_factory.mktemp("doctor-fixture")
    reference = root / "reference.jsonl"
    SweepRunner(checkpoint=reference).run_grid(
        SPECS, format_names=FORMATS, partition_sizes=PARTITIONS
    )
    checkpoint = root / "sweep.jsonl"
    queue_dir = root / "queue"
    SweepRunner(
        max_workers=2,
        backend="queue",
        checkpoint=checkpoint,
        queue_options=QueueOptions(
            queue_dir=queue_dir,
            keep_queue=True,
            n_shards=2,
            poll_interval_s=0.05,
        ),
    ).run_grid(SPECS, format_names=FORMATS, partition_sizes=PARTITIONS)
    return {
        "queue": queue_dir,
        "checkpoint": checkpoint,
        "digest": checkpoint_digest(reference),
    }


@pytest.fixture()
def queue_copy(finished_queue, tmp_path):
    """A private, damageable copy of the finished queue state."""
    queue_dir = tmp_path / "queue"
    shutil.copytree(finished_queue["queue"], queue_dir)
    checkpoint = tmp_path / "sweep.jsonl"
    shutil.copy(finished_queue["checkpoint"], checkpoint)
    return queue_dir, checkpoint


def _kinds(report: dict) -> set[str]:
    return set(report["by_kind"])


# ----------------------------------------------------------------------
# Checkpoint files
# ----------------------------------------------------------------------
class TestCheckpointAudit:
    def test_torn_tail_is_repaired_digest_preserved(
        self, finished_queue, tmp_path
    ):
        path = tmp_path / "torn.jsonl"
        shutil.copy(finished_queue["checkpoint"], path)
        with open(path, "ab") as stream:
            stream.write(b'{"type": "cell", "digest": "abc')
        report = diagnose_checkpoint(path, repair=True)
        assert "torn-tail" in _kinds(report)
        assert report["n_repaired"] == report["n_findings"]
        assert (
            checkpoint_digest(path) == finished_queue["digest"]
        )
        assert diagnose_checkpoint(path)["clean"]

    def test_bad_record_is_dropped_on_repair(
        self, finished_queue, tmp_path
    ):
        path = tmp_path / "bad.jsonl"
        shutil.copy(finished_queue["checkpoint"], path)
        with open(path, "ab") as stream:
            stream.write(b'{"type": "cell", "payload": "!!not-b64"}\n')
        report = diagnose_checkpoint(path, repair=True)
        assert "bad-record" in _kinds(report)
        assert diagnose_checkpoint(path)["clean"]
        assert (
            checkpoint_digest(path) == finished_queue["digest"]
        )

    def test_truncated_typed_columns_are_dropped_on_repair(
        self, finished_queue, tmp_path
    ):
        path = tmp_path / "typed.jsonl"
        shutil.copy(finished_queue["checkpoint"], path)
        typed = next(
            json.loads(line)
            for line in path.read_text().splitlines()
            if "columns" in json.loads(line)
        )
        # base64 of a zlib stream cut short: valid armor, short block
        typed["columns"] = typed["columns"][:8]
        with open(path, "a") as stream:
            stream.write(json.dumps(typed) + "\n")
        report = diagnose_checkpoint(path, repair=True)
        assert _kinds(report) == {"bad-record"}
        assert report["n_repaired"] == report["n_findings"] == 1
        assert diagnose_checkpoint(path)["clean"]
        assert (
            checkpoint_digest(path) == finished_queue["digest"]
        )

    def test_stray_temp_sibling_is_swept(
        self, finished_queue, tmp_path
    ):
        path = tmp_path / "sweep.jsonl"
        shutil.copy(finished_queue["checkpoint"], path)
        stray = tmp_path / "sweep.jsonl.tmpa1b2c3"
        stray.write_bytes(b"half-written")
        report = diagnose_checkpoint(path, repair=True)
        assert "stray-temp" in _kinds(report)
        assert not stray.exists()
        assert diagnose_checkpoint(path)["clean"]

    def test_report_schema(self, finished_queue):
        report = diagnose_checkpoint(finished_queue["checkpoint"])
        assert report["schema"] == DOCTOR_SCHEMA
        assert set(report) == {
            "schema", "target", "kind", "repair", "n_findings",
            "n_repaired", "by_kind", "findings", "clean",
        }
        assert report["kind"] == "checkpoint"
        assert report["clean"]

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(DoctorError):
            diagnose_checkpoint(tmp_path / "nope.jsonl")


# ----------------------------------------------------------------------
# Queue directories
# ----------------------------------------------------------------------
class TestQueueAudit:
    def test_finished_queue_audits_clean_after_one_repair(
        self, queue_copy
    ):
        queue_dir, _ = queue_copy
        diagnose_queue(queue_dir, repair=True)
        assert diagnose_queue(queue_dir)["clean"]

    def test_expired_claim_is_released_back_to_tasks(self, queue_copy):
        queue_dir, _ = queue_copy
        layout = QueueLayout(queue_dir)
        # publish a real (decodable) task, then claim it on behalf of a
        # worker that never wrote a lease — the definition of a stale
        # claim after a crash
        cell = build_grid(SPECS, FORMATS, PARTITIONS)[0]
        chunk = [(0, cell)]
        layout.write_task(
            "feedface", 0, 1, chunk, [cell_digest(cell)]
        )
        name = layout.task_name(1, 0, "feedface")
        layout.claimed.mkdir(exist_ok=True)
        (layout.tasks / name).rename(layout.claimed / name)
        owner = layout.claimed / name.replace(".task", ".owner")
        owner.write_text("worker-departed")
        report = diagnose_queue(queue_dir, repair=True)
        assert "expired-claim" in _kinds(report)
        assert not (layout.claimed / name).exists()
        assert not owner.exists()
        assert (layout.tasks / name).exists()
        # a released pending task is ordinary state, not a finding
        assert diagnose_queue(queue_dir)["clean"]

    def test_orphan_owner_sidecar_is_deleted(self, queue_copy):
        queue_dir, _ = queue_copy
        claimed = queue_dir / "claimed"
        claimed.mkdir(exist_ok=True)
        sidecar = claimed / "chunk-3.owner"
        sidecar.write_text("worker-ghost")
        report = diagnose_queue(queue_dir, repair=True)
        assert "orphan-owner" in _kinds(report)
        assert not sidecar.exists()

    def test_corrupt_done_marker_is_deleted(self, queue_copy):
        queue_dir, _ = queue_copy
        done = queue_dir / "done" / "chunk-0.done"
        done.parent.mkdir(exist_ok=True)
        done.write_text("{torn mid-wri")
        report = diagnose_queue(queue_dir, repair=True)
        assert "corrupt-done" in _kinds(report)
        assert not done.exists()
        assert diagnose_queue(queue_dir)["clean"]

    def test_corrupt_blob_is_deleted(self, queue_copy):
        queue_dir, _ = queue_copy
        blobs = queue_dir / "blobs"
        blobs.mkdir(exist_ok=True)
        blob = blobs / ("f" * 16 + ".blob")
        blob.write_bytes(b"not a matrix at all")
        report = diagnose_queue(queue_dir, repair=True)
        assert "corrupt-blob" in _kinds(report)
        assert not blob.exists()
        assert diagnose_queue(queue_dir)["clean"]

    def test_torn_shard_tail_is_repaired(self, queue_copy):
        queue_dir, _ = queue_copy
        shards = sorted((queue_dir / "results").glob("*.jsonl"))
        assert shards, "finished queue keeps worker shards"
        with open(shards[0], "ab") as stream:
            stream.write(b'{"type": "cell", "dige')
        report = diagnose_queue(queue_dir, repair=True)
        assert "torn-tail" in _kinds(report)
        assert diagnose_queue(queue_dir)["clean"]

    def test_non_queue_directory_raises(self, tmp_path):
        with pytest.raises(DoctorError):
            diagnose_queue(tmp_path)


# ----------------------------------------------------------------------
# Shard salvage
# ----------------------------------------------------------------------
class TestSalvage:
    def test_stranded_shard_cells_rebuild_the_exact_checkpoint(
        self, finished_queue, tmp_path
    ):
        """Crash-before-merge: the canonical checkpoint is gone but the
        worker shards survive.  Salvage rebuilds a checkpoint whose
        semantic digest equals the sequential reference."""
        queue_dir = tmp_path / "queue"
        shutil.copytree(finished_queue["queue"], queue_dir)
        rebuilt = tmp_path / "rebuilt.jsonl"
        report = diagnose_queue(
            queue_dir, repair=True, checkpoint=rebuilt
        )
        assert "salvaged-cells" in _kinds(report)
        assert rebuilt.exists()
        assert checkpoint_digest(rebuilt) == finished_queue["digest"]

    def test_salvage_is_a_no_op_when_canonical_is_complete(
        self, queue_copy
    ):
        queue_dir, checkpoint = queue_copy
        before = checkpoint_digest(checkpoint)
        report = diagnose_queue(
            queue_dir, repair=True, checkpoint=checkpoint
        )
        assert "salvaged-cells" not in _kinds(report)
        assert checkpoint_digest(checkpoint) == before

    def test_check_without_repair_reports_but_leaves_state(
        self, finished_queue, tmp_path
    ):
        queue_dir = tmp_path / "queue"
        shutil.copytree(finished_queue["queue"], queue_dir)
        rebuilt = tmp_path / "rebuilt.jsonl"
        report = diagnose_queue(queue_dir, checkpoint=rebuilt)
        assert "salvaged-cells" in _kinds(report)
        assert report["n_repaired"] == 0
        assert not rebuilt.exists()


# ----------------------------------------------------------------------
# Autodetection
# ----------------------------------------------------------------------
class TestAutodetect:
    def test_file_routes_to_checkpoint_audit(self, finished_queue):
        report = diagnose(finished_queue["checkpoint"])
        assert report["kind"] == "checkpoint"

    def test_directory_routes_to_queue_audit(self, queue_copy):
        queue_dir, _ = queue_copy
        report = diagnose(queue_dir)
        assert report["kind"] == "queue"

    def test_findings_serialize_to_json(self, queue_copy):
        queue_dir, _ = queue_copy
        (queue_dir / "junk.tmp99").write_bytes(b"x")
        report = diagnose(queue_dir)
        json.dumps(report)  # the whole report is JSON-serializable
        finding = next(
            f for f in report["findings"] if f["kind"] == "stray-temp"
        )
        assert set(finding) == {"kind", "path", "detail", "repaired"}
