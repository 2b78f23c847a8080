"""Checkpoint/resume: bit-identical replay, torn tails, corruption.

The acceptance property: a sweep killed mid-run and resumed from its
checkpoint produces a bit-identical ``SweepOutcome`` while executing
only the unfinished cells — verified here via result equality, the
telemetry digest, and the executed-vs-replayed counters.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.bench_distributed import scaling_specs
from repro.engine import (
    CheckpointWriter,
    SweepRunner,
    WorkloadSpec,
    build_grid,
    cell_digest,
    cell_digests,
    load_checkpoint,
)
from repro.engine.checkpoint import (
    CHECKPOINT_KIND,
    CHECKPOINT_SCHEMA,
    _cell_value,
    _encode_payload,
    _hash_value,
    checkpoint_digest,
    checkpoint_summary,
)
from repro.engine.grid import EncodeSummary, FailedCell
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

    def test_batch_digests_equal_one_at_a_time(self):
        from repro.hardware import HardwareConfig

        materialized = SPECS[0].build()
        grid = build_grid(
            (*SPECS, materialized), FORMATS, PARTITIONS
        ) + build_grid(
            (materialized, SPECS[1]), FORMATS, (16,),
            base_config=HardwareConfig(clock_mhz=150.0),
        )
        assert cell_digests(grid) == [cell_digest(c) for c in grid]
        assert cell_digests([]) == []

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
# The digest: defined over decoded values, pinned across encoders
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


def with_field(obj, path: str, value):
    """A deep copy of ``obj`` with the dotted attribute ``path`` set,
    bypassing frozen dataclasses and constructor coercion."""
    copy = pickle.loads(pickle.dumps(obj, 4))
    *parents, name = path.split(".")
    node = copy
    for parent in parents:
        node = getattr(node, parent)
    object.__setattr__(node, name, value)
    return copy


def digest_of(path, obj) -> str:
    """``checkpoint_digest`` of a checkpoint holding ``obj`` alone."""
    with CheckpointWriter(path) as writer:
        if isinstance(obj, FailedCell):
            writer.record_failure("d" * 32, obj)
        elif isinstance(obj, EncodeSummary):
            writer.record_encoding(obj)
        else:
            cell = build_grid(SPECS[:1], FORMATS[:1], PARTITIONS[:1])[0]
            writer.record_result("d" * 32, cell, obj)
    return checkpoint_digest(path)


FAILURE = FailedCell(
    index=3,
    workload="band-96",
    format_name="csr",
    partition_size=8,
    recipe_digest="ab" * 16,
    error_type="LookupError",
    message="csr",
    traceback_text="Traceback (most recent call last): ...",
)


def bumped(array):
    copy = array.copy()
    copy[0] += 1
    return copy


#: Value changes the digest must see: ``(result, failure) -> (before,
#: attribute path, new value)``.
DIGEST_CHANGES = {
    "float-one-ulp": lambda r, f: (
        r, "sigma", float(np.nextafter(r.sigma, np.inf))
    ),
    "zero-sign": lambda r, f: (with_field(r, "sigma", 0.0), "sigma", -0.0),
    "array-element": lambda r, f: (
        r,
        "pipeline.memory_per_partition",
        bumped(r.pipeline.memory_per_partition),
    ),
    "array-dtype": lambda r, f: (
        r,
        "pipeline.memory_per_partition",
        r.pipeline.memory_per_partition.astype(np.int32),
    ),
    "tuple-to-list": lambda r, f: (
        with_field(f, "message", ("csr", 8)), "message", ["csr", 8]
    ),
    "string-field": lambda r, f: (r, "workload", r.workload + "x"),
    "nested-dataclass-field": lambda r, f: (
        r, "power.static_w", r.power.static_w * 2
    ),
    "failed-attempts": lambda r, f: (f, "attempts", f.attempts + 1),
    "int-to-bool": lambda r, f: (f, "attempts", True),
}


class TestValueDigest:
    """The digest hashes decoded values, so equal values give equal
    digests however their payload bytes happen to be laid out, and any
    value change — even one ``==`` cannot see — gives another."""

    def assert_same_digest(self, tmp_path, original, bytes_differ=True):
        variant = unshared(original)
        assert variant == original
        assert variant.format_name is not original.format_name
        if bytes_differ:
            # the payloads differ, so a digest over bytes would too
            assert pickle.dumps(variant, 4) != pickle.dumps(original, 4)
        assert digest_of(tmp_path / "variant.jsonl", variant) == (
            digest_of(tmp_path / "original.jsonl", original)
        )

    def test_result(self, baseline, tmp_path):
        for index, result in enumerate(baseline.results):
            self.assert_same_digest(tmp_path / str(index), result)

    def test_encode_summary(self, tmp_path):
        outcome = SweepRunner(encode=True).run_grid(
            SPECS[:1], FORMATS, partition_sizes=(8,)
        )
        assert outcome.encodings
        for summary in outcome.encodings.values():
            # one occurrence per string: plain pickle agrees already
            self.assert_same_digest(
                tmp_path / summary.format_name, summary,
                bytes_differ=False,
            )

    def test_failed_cell(self, tmp_path):
        self.assert_same_digest(tmp_path, FAILURE)

    def test_traceback_text_is_not_part_of_the_value(self, tmp_path):
        elsewhere = dataclasses.replace(
            FAILURE, traceback_text="File \"/elsewhere/executors.py\""
        )
        assert elsewhere == FAILURE
        assert digest_of(tmp_path / "a.jsonl", elsewhere) == digest_of(
            tmp_path / "b.jsonl", FAILURE
        )

    @pytest.mark.parametrize("change", sorted(DIGEST_CHANGES))
    def test_value_change_changes_the_digest(
        self, change, baseline, tmp_path
    ):
        before, path, value = DIGEST_CHANGES[change](
            baseline.results[0], FAILURE
        )
        after = with_field(before, path, value)
        assert digest_of(tmp_path / "before.jsonl", before) != digest_of(
            tmp_path / "after.jsonl", after
        )

    @pytest.mark.parametrize(
        "message",
        [{"csr"}, np.array(["csr"], dtype=object), object()],
        ids=["set", "object-array", "object"],
    )
    def test_unhashable_value_raises(self, message, tmp_path):
        path = tmp_path / "ck.jsonl"
        with pytest.raises(CheckpointError, match="checkpoint payload"):
            digest_of(path, with_field(FAILURE, "message", message))


# ----------------------------------------------------------------------
# Typed cell records: the codec table
# ----------------------------------------------------------------------
def value_digest(obj) -> str:
    hasher = hashlib.blake2b(digest_size=16)
    _hash_value(hasher.update, obj)
    return hasher.hexdigest()


def cell_records(path) -> list[dict]:
    return [
        record
        for record in map(json.loads, path.read_text().splitlines())
        if record["type"] == "cell"
    ]


def as_payload(record: dict, value) -> dict:
    """``record`` rewritten as the pickled ``payload`` form."""
    twin = {
        key: record[key]
        for key in (
            "type", "digest", "workload", "format", "partition_size",
            "wall_s", "cache_key",
        )
    }
    twin["payload"] = _encode_payload(value)
    return twin


def write_records(path, records) -> None:
    header = {
        "type": "header", "kind": CHECKPOINT_KIND,
        "schema": CHECKPOINT_SCHEMA,
    }
    path.write_text(
        "".join(json.dumps(r) + "\n" for r in [header, *records])
    )


@pytest.fixture(scope="module")
def scaling_checkpoint(tmp_path_factory):
    """The scaling grid at p in {8, 16, 32}: cells, results, file."""
    path = tmp_path_factory.mktemp("typed") / "ck.jsonl"
    cells = build_grid(scaling_specs(), list(PAPER_FORMATS), (8, 16, 32))
    outcome = SweepRunner(
        backend="inline", error_policy="fail_fast", checkpoint=path
    ).run_grid(
        scaling_specs(), list(PAPER_FORMATS), partition_sizes=(8, 16, 32)
    )
    return cells, outcome.results, path


#: Results that must fall back to ``payload``: a typed record would
#: not give the same value back.
FALLBACKS = {
    "numpy-float-sigma": ("sigma", lambda r: np.float64(r.sigma)),
    "int32-column": (
        "pipeline.sizes.data_bytes",
        lambda r: r.pipeline.sizes.data_bytes.astype(np.int32),
    ),
    "bool-in-int-field": ("resources.ff_mapped_buffer_bits", lambda r: False),
}

#: Malformed typed records: ``record -> None`` (mutating in place).
HOSTILE = {
    "block-length": lambda r: r.update(tiles=r["tiles"] + 1),
    "bad-base64": lambda r: r.update(columns="!!" + r["columns"]),
    "not-zlib": lambda r: r.update(columns="AAAA"),
    "missing-field": lambda r: r.pop("power"),
    "non-list-size": lambda r: r.update(size=sum(r["size"])),
    "string-in-numeric": lambda r: r.update(sigma=str(r["sigma"])),
    "bool-tiles": lambda r: r.update(tiles=True),
    "negative-bytes": lambda r: r.update(size=[-1, 0, 0]),
}


class TestTypedCells:
    def test_canonical_results_are_typed_and_exact(
        self, scaling_checkpoint, tmp_path
    ):
        cells, results, path = scaling_checkpoint
        records = cell_records(path)
        assert len(records) == len(results) == 192
        state = load_checkpoint(path)
        twins = []
        for cell, result, record in zip(cells, results, records):
            assert "columns" in record and "payload" not in record
            stored = state.result_for(cell_digest(cell))[0]
            assert stored == result
            twins.append(as_payload(record, result))
            assert value_digest(stored) == value_digest(
                _cell_value(twins[-1])
            )
        twin = tmp_path / "twin.jsonl"
        write_records(twin, twins)
        assert checkpoint_digest(twin) == checkpoint_digest(path)

    def test_typed_columns_are_writable_int64(self, scaling_checkpoint):
        _cells, _results, path = scaling_checkpoint
        result = _cell_value(cell_records(path)[0])
        memory = result.pipeline.memory_per_partition
        assert memory.dtype.str == "<i8" and memory.flags.writeable

    @pytest.mark.parametrize("case", sorted(FALLBACKS))
    def test_non_canonical_results_fall_back_to_payload(
        self, case, scaling_checkpoint, tmp_path
    ):
        cells, results, _path = scaling_checkpoint
        attribute, change = FALLBACKS[case]
        variant = with_field(results[0], attribute, change(results[0]))
        path = tmp_path / "ck.jsonl"
        with CheckpointWriter(path) as writer:
            writer.record_result("d" * 32, cells[0], variant)
        (record,) = cell_records(path)
        assert "payload" in record and "columns" not in record
        assert value_digest(_cell_value(record)) == value_digest(variant)
        assert value_digest(variant) != value_digest(results[0])

    def test_cell_mismatch_falls_back_to_payload(
        self, scaling_checkpoint, tmp_path
    ):
        cells, results, _path = scaling_checkpoint
        path = tmp_path / "ck.jsonl"
        with CheckpointWriter(path) as writer:
            writer.record_result("d" * 32, cells[1], results[0])
        (record,) = cell_records(path)
        assert "payload" in record
        assert _cell_value(record) == results[0]

    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_hostile_typed_records_raise_checkpoint_error(
        self, case, scaling_checkpoint, tmp_path, monkeypatch
    ):
        _cells, _results, path = scaling_checkpoint
        record = cell_records(path)[5]
        HOSTILE[case](record)
        unpickled = []
        monkeypatch.setattr(pickle, "loads", unpickled.append)
        with pytest.raises(CheckpointError):
            _cell_value(record)
        bad = tmp_path / "bad.jsonl"
        write_records(bad, [record])
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)
        with pytest.raises(CheckpointError):
            checkpoint_digest(bad)
        assert unpickled == []

    def test_block_length_must_match_tiles(self, scaling_checkpoint):
        _cells, _results, path = scaling_checkpoint
        record = cell_records(path)[5]
        record["tiles"] -= 1
        with pytest.raises(CheckpointError, match="expected 6 x 8 x"):
            _cell_value(record)

    def test_typed_fields_cover_every_dataclass_field(self):
        from repro.core.results import CharacterizationResult
        from repro.engine import checkpoint
        from repro.formats.base import SizeBreakdown
        from repro.hardware.pipeline import PipelineResult
        from repro.hardware.power import PowerBreakdown
        from repro.hardware.resources import ResourceEstimate

        def names(kind):
            return tuple(f.name for f in dataclasses.fields(kind))

        coords = ("format_name", "partition_size")
        assert names(SizeBreakdown) == checkpoint._SIZE_FIELDS
        assert names(ResourceEstimate) == (
            coords + checkpoint._RESOURCE_FIELDS
        )
        assert names(PowerBreakdown) == coords + checkpoint._POWER_FIELDS
        assert names(PipelineResult) == coords + (
            "memory_per_partition", "compute", "sizes",
            "fill_cycles", "drain_cycles",
        )
        assert names(CharacterizationResult) == (
            "workload", *coords, "sigma", "pipeline", "size",
            "clock_mhz", "resources", "power",
        )


#: ``checkpoint_digest`` of the scaling grid in BENCH_distributed.json.
SCALING_GRID_DIGEST = "b5eef950efc41f7bf28258339c5d759a"


def test_scaling_grid_digest_is_pinned(tmp_path):
    """Any change to the digest's definition changes every digest ever
    committed; this grid's digest must reproduce exactly."""
    path = tmp_path / "ck.jsonl"
    outcome = SweepRunner(
        backend="inline", error_policy="fail_fast", checkpoint=path
    ).run_grid(
        scaling_specs(), list(PAPER_FORMATS), partition_sizes=[8]
    )
    assert len(outcome.results) == 64
    assert checkpoint_digest(path) == SCALING_GRID_DIGEST


#: A checkpoint written by the earlier canonical-pickle encoder: the
#: queue backend (2 workers) over ``scaling_specs()[:2]`` x
#: PAPER_FORMATS at p=8 with ``encode=True``, ``error_policy="collect"``
#: and the fault below — 15 cell, 15 encoding and 1 failed record.
V1_FIXTURE = Path(__file__).parent / "data" / "checkpoint-v1.jsonl"
V1_FAULT = "raise@band-4:coo:8"


def run_v1_grid(backend: str, path, resume: bool = False):
    return SweepRunner(
        backend=backend,
        max_workers=1 if backend == "inline" else 2,
        encode=True,
        telemetry=True,
        error_policy="collect",
        faults=V1_FAULT,
        checkpoint=path,
        resume=resume,
    ).run_grid(
        scaling_specs()[:2], list(PAPER_FORMATS), partition_sizes=[8]
    )


class TestV1Fixture:
    """Payload bytes may change with the encoder; the digest and the
    replay may not."""

    def test_fixture_holds_every_record_kind(self):
        summary = checkpoint_summary(V1_FIXTURE)
        assert summary["n_cells"] == 15
        assert summary["n_encodings"] == 15
        assert summary["n_failed"] == 1

    @pytest.mark.parametrize("backend", ["inline", "pool", "queue"])
    def test_fresh_run_matches_the_fixture_digest(self, backend, tmp_path):
        path = tmp_path / f"{backend}.jsonl"
        outcome = run_v1_grid(backend, path)
        assert len(outcome.failures) == 1
        assert checkpoint_digest(path) == checkpoint_digest(V1_FIXTURE)

    def test_resume_replays_every_fixture_cell(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        shutil.copyfile(V1_FIXTURE, path)
        resumed = run_v1_grid("inline", path, resume=True)
        assert resumed.telemetry.n_replayed == 15
        # only the faulted cell ran again, and it failed again
        assert "sweep.cells" not in resumed.telemetry.metrics.counters
        assert [f.coords for f in resumed.failures] == [
            ("band-4", "coo", 8)
        ]
        assert resumed.results == run_v1_grid(
            "inline", tmp_path / "fresh.jsonl"
        ).results
        assert checkpoint_digest(path) == checkpoint_digest(V1_FIXTURE)


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

    @pytest.mark.parametrize("missing", ["payload", "workload", "format"])
    def test_encoding_record_missing_a_field_raises(
        self, missing, tmp_path
    ):
        path = self.valid_checkpoint(tmp_path)
        record = {
            "type": "encoding",
            "workload": "rand-0.05",
            "format": "csr",
            "payload": _encode_payload(None),
        }
        del record[missing]
        with path.open("a") as stream:
            stream.write(json.dumps(record) + "\n")
        with pytest.raises(CheckpointError, match=missing):
            load_checkpoint(path)

    def test_digest_of_undecodable_payload_raises(self, tmp_path):
        path = self.valid_checkpoint(tmp_path)
        with path.open("a") as stream:
            stream.write(
                json.dumps({
                    "type": "cell", "digest": "d", "payload": "!!!",
                }) + "\n"
            )
        with pytest.raises(CheckpointError, match="undecodable"):
            checkpoint_digest(path)

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


class TestCompact:
    def test_compaction_decodes_each_cell_once(
        self, tmp_path, monkeypatch
    ):
        from repro.engine import checkpoint as module

        path = tmp_path / "ck.jsonl"
        SweepRunner(error_policy="fail_fast", checkpoint=path).run_grid(
            SPECS[:1], ("csr",), partition_sizes=(8, 16)
        )
        reference = checkpoint_digest(path)
        assert checkpoint_summary(path)["n_cells"] == 2
        calls = []

        def counting(record):
            calls.append(record.get("digest"))
            return _cell_value(record)

        monkeypatch.setattr(module, "_cell_value", counting)
        stats = module.compact_checkpoint(path, tmp_path / "tidy.jsonl")
        # the after-digest decodes each cell; the before-stats decode
        # nothing
        assert len(calls) == 2
        assert stats["digest"] == reference
        assert stats["records_before"] == stats["records_after"] == 2
        assert stats["dropped"] == 0
        assert stats["bytes_before"] == path.stat().st_size

    def test_compaction_drops_duplicates_and_keeps_the_digest(
        self, tmp_path
    ):
        from repro.engine.checkpoint import compact_checkpoint

        path = tmp_path / "ck.jsonl"
        SweepRunner(error_policy="fail_fast", checkpoint=path).run_grid(
            SPECS[:1], ("csr",), partition_sizes=(8, 16)
        )
        reference = checkpoint_digest(path)
        records = cell_records(path)
        with path.open("a") as stream:
            stream.write(json.dumps(records[0], sort_keys=True) + "\n")
        before = path.stat().st_size
        stats = compact_checkpoint(path)
        assert stats["records_before"] == 3
        assert stats["records_after"] == 2
        assert stats["dropped"] == 1
        assert stats["bytes_before"] == before
        assert stats["bytes_after"] == path.stat().st_size < before
        assert stats["digest"] == reference == checkpoint_digest(path)
