"""Checkpoint/resume: bit-identical replay, torn tails, corruption.

The acceptance property: a sweep killed mid-run and resumed from its
checkpoint produces a bit-identical ``SweepOutcome`` while executing
only the unfinished cells — verified here via result equality, the
telemetry digest, and the executed-vs-replayed counters.
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

from repro.bench_distributed import scaling_specs
from repro.engine import (
    CheckpointWriter,
    SweepRunner,
    WorkloadSpec,
    build_grid,
    cell_digest,
    load_checkpoint,
)
from repro.engine.checkpoint import (
    CHECKPOINT_KIND,
    CHECKPOINT_SCHEMA,
    _encode_payload,
    checkpoint_digest,
)
from repro.engine.grid import FailedCell
from repro.errors import CheckpointError, SweepCellError, SweepConfigError
from repro.formats.registry import PAPER_FORMATS

SPECS = (
    WorkloadSpec.random(96, 0.05, seed=1),
    WorkloadSpec.band(96, 4, seed=1),
)
FORMATS = ("csr", "coo")
PARTITIONS = (8, 16)
N_CELLS = len(SPECS) * len(FORMATS) * len(PARTITIONS)


@pytest.fixture(scope="module")
def baseline():
    outcome = SweepRunner(
        telemetry=True, error_policy="fail_fast"
    ).run_grid(SPECS, FORMATS, partition_sizes=PARTITIONS)
    assert outcome.ok
    return outcome


# ----------------------------------------------------------------------
# Cell digests
# ----------------------------------------------------------------------
class TestCellDigest:
    def test_digest_is_a_pure_function_of_the_recipe(self):
        grid_a = build_grid(SPECS, FORMATS, PARTITIONS)
        grid_b = build_grid(SPECS, FORMATS, PARTITIONS)
        assert [cell_digest(c) for c in grid_a] == [
            cell_digest(c) for c in grid_b
        ]

    def test_digest_distinguishes_every_coordinate(self):
        grid = build_grid(SPECS, FORMATS, PARTITIONS)
        digests = {cell_digest(c) for c in grid}
        assert len(digests) == len(grid)

    def test_digest_sees_the_hardware_config(self):
        from repro.hardware import HardwareConfig

        grid_default = build_grid(SPECS[:1], ("csr",), (16,))
        grid_other = build_grid(
            SPECS[:1], ("csr",), (16,),
            base_config=HardwareConfig(clock_mhz=150.0),
        )
        assert cell_digest(grid_default[0]) != cell_digest(grid_other[0])


# ----------------------------------------------------------------------
# Writer / loader round trip
# ----------------------------------------------------------------------
class TestWriterLoader:
    def test_round_trip_keeps_results_bit_identical(
        self, baseline, tmp_path
    ):
        path = tmp_path / "ck.jsonl"
        grid = build_grid(SPECS, FORMATS, PARTITIONS)
        with CheckpointWriter(path) as writer:
            for cell, result in zip(grid, baseline.results):
                writer.record_result(
                    cell_digest(cell), cell, result,
                    wall_s=0.5, cache_key="ab" * 16,
                )
        state = load_checkpoint(path)
        assert len(state) == N_CELLS
        for cell, result in zip(grid, baseline.results):
            stored, wall_s, cache_key = state.result_for(
                cell_digest(cell)
            )
            assert stored == result
            assert wall_s == 0.5
            assert cache_key == "ab" * 16

    def test_header_written_once_across_reopens(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        CheckpointWriter(path).close()
        CheckpointWriter(path).close()
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        header = json.loads(lines[0])
        assert header["kind"] == CHECKPOINT_KIND
        assert header["schema"] == CHECKPOINT_SCHEMA

    def test_latest_record_per_digest_wins(self, baseline, tmp_path):
        path = tmp_path / "ck.jsonl"
        grid = build_grid(SPECS, FORMATS, PARTITIONS)
        cell, result = grid[0], baseline.results[0]
        with CheckpointWriter(path) as writer:
            writer.record_result(
                cell_digest(cell), cell, result, wall_s=1.0
            )
            writer.record_result(
                cell_digest(cell), cell, result, wall_s=2.0
            )
        state = load_checkpoint(path)
        assert len(state) == 1
        assert state.result_for(cell_digest(cell))[1] == 2.0


# ----------------------------------------------------------------------
# Payload bytes: canonical, and pinned across versions
# ----------------------------------------------------------------------
def unshared(obj):
    """A copy of ``obj`` (object sharing kept) whose string fields, at
    any dataclass depth, are each a fresh object shared with nothing:
    the shape equal strings take after a worker's pickle round trip."""
    copy = pickle.loads(pickle.dumps(obj, 4))
    seen: set = set()

    def walk(node) -> None:
        if id(node) in seen:
            return
        seen.add(id(node))
        for name, value in list(vars(node).items()):
            if type(value) is str:
                object.__setattr__(node, name, "".join(list(value)))
            elif dataclasses.is_dataclass(value):
                walk(value)

    walk(copy)
    return copy


class TestCanonicalPayload:
    """Equal values encode to equal bytes whether or not equal strings
    are one object: the property that keeps checkpoint digests equal
    across the inline, pool and queue backends."""

    def assert_canonical(self, original, distinguishes_plain=True):
        variant = unshared(original)
        assert variant == original
        assert variant.format_name is not original.format_name
        assert _encode_payload(variant) == _encode_payload(original)
        if distinguishes_plain:
            # a plain pickle tells the two apart, so a swap to it fails
            assert pickle.dumps(variant, 4) != pickle.dumps(original, 4)

    def test_result(self, baseline):
        for result in baseline.results:
            self.assert_canonical(result)

    def test_encode_summary(self):
        outcome = SweepRunner(encode=True).run_grid(
            SPECS[:1], FORMATS, partition_sizes=(8,)
        )
        assert outcome.encodings
        for summary in outcome.encodings.values():
            # one occurrence per string: plain pickle agrees already
            self.assert_canonical(summary, distinguishes_plain=False)

    def test_failed_cell(self):
        fmt = "csr"
        failure = FailedCell(
            index=3,
            workload="band-96",
            format_name=fmt,
            partition_size=8,
            recipe_digest="ab" * 16,
            error_type="LookupError",
            message=fmt,
            traceback_text="Traceback (most recent call last): ...",
        )
        self.assert_canonical(failure)


#: ``checkpoint_digest`` of the scaling grid in BENCH_distributed.json,
#: written by the queue backend with the earlier pure-Python encoder.
SCALING_GRID_DIGEST = "3ca233020336345172c4f361c235a801"


def test_payload_bytes_are_pinned_across_versions(tmp_path):
    """Any change to the payload encoding changes every digest ever
    committed; this grid's digest must reproduce exactly."""
    path = tmp_path / "ck.jsonl"
    outcome = SweepRunner(
        backend="inline", error_policy="fail_fast", checkpoint=path
    ).run_grid(
        scaling_specs(), list(PAPER_FORMATS), partition_sizes=[8]
    )
    assert len(outcome.results) == 64
    assert checkpoint_digest(path) == SCALING_GRID_DIGEST


# ----------------------------------------------------------------------
# Interrupt, then resume
# ----------------------------------------------------------------------
class TestResume:
    def interrupted_checkpoint(self, path):
        """A sweep killed partway through, leaving a real checkpoint."""
        with pytest.raises(SweepCellError):
            SweepRunner(
                telemetry=True,
                error_policy="fail_fast",
                checkpoint=path,
                faults="raise@band-4:csr:16",
            ).run_grid(SPECS, FORMATS, partition_sizes=PARTITIONS)
        state = load_checkpoint(path)
        assert 0 < len(state) < N_CELLS
        return len(state)

    def test_resume_is_bit_identical_and_replays_only_done_cells(
        self, baseline, tmp_path
    ):
        path = tmp_path / "ck.jsonl"
        n_checkpointed = self.interrupted_checkpoint(path)
        resumed = SweepRunner(
            telemetry=True,
            error_policy="fail_fast",
            checkpoint=path,
            resume=True,
        ).run_grid(SPECS, FORMATS, partition_sizes=PARTITIONS)
        assert resumed.ok
        assert resumed.results == baseline.results
        assert (
            resumed.telemetry.digest() == baseline.telemetry.digest()
        )
        # the cache/telemetry counters prove only the unfinished cells
        # were re-executed
        counters = resumed.telemetry.metrics.counters
        assert resumed.telemetry.n_replayed == n_checkpointed
        assert counters["sweep.cells.replayed"] == n_checkpointed
        assert counters["sweep.cells"] == N_CELLS - n_checkpointed

    def test_resume_from_complete_checkpoint_executes_nothing(
        self, baseline, tmp_path
    ):
        path = tmp_path / "ck.jsonl"
        SweepRunner(
            telemetry=True, error_policy="fail_fast", checkpoint=path
        ).run_grid(SPECS, FORMATS, partition_sizes=PARTITIONS)
        resumed = SweepRunner(
            telemetry=True,
            error_policy="fail_fast",
            checkpoint=path,
            resume=True,
        ).run_grid(SPECS, FORMATS, partition_sizes=PARTITIONS)
        assert resumed.results == baseline.results
        counters = resumed.telemetry.metrics.counters
        assert resumed.telemetry.n_replayed == N_CELLS
        assert "sweep.cells" not in counters

    def test_parallel_resume_matches_sequential_baseline(
        self, baseline, tmp_path
    ):
        path = tmp_path / "ck.jsonl"
        self.interrupted_checkpoint(path)
        resumed = SweepRunner(
            telemetry=True,
            max_workers=2,
            error_policy="fail_fast",
            checkpoint=path,
            resume=True,
        ).run_grid(SPECS, FORMATS, partition_sizes=PARTITIONS)
        assert resumed.results == baseline.results
        assert (
            resumed.telemetry.digest() == baseline.telemetry.digest()
        )

    def test_resume_without_checkpoint_is_a_config_error(self):
        with pytest.raises(SweepConfigError):
            SweepRunner(resume=True)

    def test_resume_with_missing_file_runs_everything(
        self, baseline, tmp_path
    ):
        resumed = SweepRunner(
            telemetry=True,
            error_policy="fail_fast",
            checkpoint=tmp_path / "absent.jsonl",
            resume=True,
        ).run_grid(SPECS, FORMATS, partition_sizes=PARTITIONS)
        assert resumed.results == baseline.results
        assert resumed.telemetry.n_replayed == 0

    def test_encodings_replay_too(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        first = SweepRunner(
            encode=True, error_policy="fail_fast", checkpoint=path
        ).run_grid(SPECS, ("csr",), partition_sizes=(16,))
        resumed = SweepRunner(
            encode=True,
            error_policy="fail_fast",
            checkpoint=path,
            resume=True,
        ).run_grid(SPECS, ("csr",), partition_sizes=(16,))
        assert resumed.encodings == first.encodings


# ----------------------------------------------------------------------
# Corruption handling
# ----------------------------------------------------------------------
class TestCorruption:
    def valid_checkpoint(self, tmp_path) -> str:
        path = tmp_path / "ck.jsonl"
        SweepRunner(
            error_policy="fail_fast", checkpoint=path
        ).run_grid(SPECS[:1], ("csr",), partition_sizes=(16,))
        return path

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = self.valid_checkpoint(tmp_path)
        complete = len(load_checkpoint(path))
        with path.open("a") as stream:
            stream.write('{"type": "cell", "digest": "dead')  # no \n
        state = load_checkpoint(path)
        assert len(state) == complete
        # ... and the writer can still append after the torn tail is
        # superseded by a fresh run
        resumed = SweepRunner(
            error_policy="fail_fast", checkpoint=path, resume=True
        ).run_grid(SPECS[:1], ("csr",), partition_sizes=(16,))
        assert len(resumed.results) == 1

    def test_corrupt_interior_line_raises(self, tmp_path):
        path = self.valid_checkpoint(tmp_path)
        lines = path.read_text().splitlines()
        lines.insert(1, "{not json")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_undecodable_payload_raises(self, tmp_path):
        path = self.valid_checkpoint(tmp_path)
        with path.open("a") as stream:
            stream.write(
                json.dumps({
                    "type": "cell", "digest": "d", "payload": "!!!",
                }) + "\n"
            )
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_alien_file_is_rejected(self, tmp_path):
        path = tmp_path / "alien.jsonl"
        path.write_text('{"type": "header", "kind": "other"}\n')
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        with pytest.raises(CheckpointError):
            CheckpointWriter(path)

    def test_unsupported_schema_is_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps({
                "type": "header",
                "kind": CHECKPOINT_KIND,
                "schema": 999,
            }) + "\n"
        )
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


# ----------------------------------------------------------------------
# Crash-shaped damage, then resume (the durability contract)
# ----------------------------------------------------------------------
class TestCrashDamageResume:
    """The two damage shapes a crash can leave in an append-only
    checkpoint — a record truncated mid-write and a record written
    twice (a worker respawned after the append but before the ack) —
    must both resume to a bit-identical outcome."""

    def full_checkpoint(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        SweepRunner(
            error_policy="fail_fast", checkpoint=path
        ).run_grid(SPECS, FORMATS, partition_sizes=PARTITIONS)
        return path

    def test_truncated_trailing_line_resumes_bit_identical(
        self, baseline, tmp_path
    ):
        path = self.full_checkpoint(tmp_path)
        reference = checkpoint_digest(path)
        # cut the final record in half, exactly as a crash mid-append
        # would: earlier records intact, no trailing newline
        data = path.read_bytes()
        body = data[: data.rfind(b"\n", 0, len(data) - 1) + 1]
        last_line = data[len(body):]
        path.write_bytes(body + last_line[: len(last_line) // 2])
        resumed = SweepRunner(
            error_policy="fail_fast", checkpoint=path, resume=True
        ).run_grid(SPECS, FORMATS, partition_sizes=PARTITIONS)
        assert resumed.ok
        assert resumed.results == baseline.results
        # the re-executed cell re-lands the identical payload: the
        # repaired checkpoint's semantic digest matches the clean one
        assert checkpoint_digest(path) == reference

    def test_duplicated_cell_record_resumes_bit_identical(
        self, baseline, tmp_path
    ):
        path = self.full_checkpoint(tmp_path)
        reference = checkpoint_digest(path)
        lines = path.read_text().splitlines()
        duplicate = next(
            line
            for line in lines
            if json.loads(line).get("type") == "cell"
        )
        with path.open("a") as stream:
            stream.write(duplicate + "\n")
        # last-write-wins by digest: the duplicate changes nothing
        assert checkpoint_digest(path) == reference
        resumed = SweepRunner(
            telemetry=True,
            error_policy="fail_fast",
            checkpoint=path,
            resume=True,
        ).run_grid(SPECS, FORMATS, partition_sizes=PARTITIONS)
        assert resumed.ok
        assert resumed.results == baseline.results
        assert resumed.telemetry.n_replayed == N_CELLS
        assert checkpoint_digest(path) == reference
