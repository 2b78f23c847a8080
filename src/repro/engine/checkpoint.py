"""Append-only JSONL sweep checkpoints for crash recovery and resume.

A checkpoint is the durable sibling of a run manifest: one JSON line
per *completed* cell, appended (and flushed) the moment the parent
process sees the result, so a sweep killed at any point leaves behind
every finished cell.  Resuming replays those cells from disk and
executes only the remainder — and because a cell record holds every
value of the :class:`~repro.core.results.CharacterizationResult`
exactly, a resumed sweep's outcome is bit-identical to an
uninterrupted run's.

Records are keyed by the **cell recipe digest** — a content digest of
(workload recipe, format, partition size, hardware config) — not by
grid position, so a checkpoint survives grid reordering, grid
extension, and partial overlap: any cell whose recipe matches replays,
everything else runs.

Wire format (one JSON object per line)::

    {"type": "header", "kind": "copernicus-sweep-checkpoint", ...}
    {"type": "cell", "digest": ..., "workload": ..., "format": ...,
     "partition_size": ..., "wall_s": ..., "cache_key": ...,
     "sigma": ..., "clock_mhz": ..., "fill_drain": [fill, drain],
     "size": [useful, data, metadata],
     "resources": [bram_18k, ff, lut, ff_mapped_buffer_bits],
     "power": [logic_w, bram_w, signals_w, static_w],
     "tiles": n, "columns": "<base64(zlib-1(6 x n int64 LE))>"}
    {"type": "cell", "digest": ..., ..., "cache_key": ...,
     "payload": "<base64(zlib(pickle(result)))>"}
    {"type": "encoding", "workload": ..., "format": ...,
     "payload": "<base64(zlib(pickle(EncodeSummary)))>"}
    {"type": "failed", "digest": ..., "index": ..., "workload": ...,
     "format": ..., "partition_size": ...,
     "payload": "<base64(zlib(pickle(FailedCell)))>"}

A cell is written as a **typed record** (the first ``cell`` form) when
its result is canonical: exactly a ``CharacterizationResult`` of the
usual component types, its format and partition size equal to the
cell's, every scalar exactly the declared ``str``/``int``/``float``
(so a JSON round trip returns it unchanged), and the six per-tile
columns 1-D little-endian ``int64`` of one length.  The columns —
memory, decompress, dot, useful, data, metadata cycles/bytes, in that
order — share one concatenated block with one ``zlib`` level-1 pass;
nothing is pickled.  Any other result is written as a ``payload``
record, so no value the digest can see is lost.  :func:`_cell_value`
reads both forms (every checkpoint written before typed records
still loads) and is strict: a typed record with a wrong block length,
bad base64 or a missing or mistyped field raises
:class:`~repro.errors.CheckpointError` and never reaches
``pickle.loads``.  A build that predates typed records refuses them
with the same error (the record has no ``payload``).

The file is append-only; re-executed cells simply append again and the
loader keeps the latest record per digest (a ``cell`` record clears an
earlier ``failed`` record for the same digest — a retry that
eventually succeeded).  A torn final line (the process died
mid-append) is detected and ignored on load; corruption anywhere
earlier raises :class:`~repro.errors.CheckpointError`.

Distributed sweeps stack another layer on the same format: every
queue worker appends to its **own shard** checkpoint, and the
coordinator merges shards into the canonical checkpoint in grid
order.  :func:`checkpoint_digest` is the correctness gate for that
merge.  It is defined over *decoded values*, never over record
bytes: the latest record per key survives, each surviving record is
decoded and fed through one fixed, type-tagged walk
(:func:`_hash_value` — strings length-prefixed, scalars by type and
``repr``, arrays by dtype, shape and bytes, dataclasses by qualified
name and compared fields), and wall-clock times, cache keys and
record order are left out.  A queue-backend checkpoint and a
sequential one therefore compare equal iff they hold equal results,
whether a cell was stored typed or pickled and however the pickler
happened to lay out the bytes.
:func:`compact_checkpoint` rewrites a record log keeping only the
latest record per key (``repro checkpoint --compact``).
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import pickle
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, TYPE_CHECKING, Sequence

import numpy as np

from .. import io_atomic
from ..core.results import CharacterizationResult
from ..errors import CheckpointError, CopernicusError
from ..formats.base import SizeBreakdown
from ..hardware.decompressors import ComputeColumns, SizeColumns
from ..hardware.pipeline import PipelineResult
from ..hardware.power import PowerBreakdown
from ..hardware.resources import ResourceEstimate
from .telemetry import workload_recipe_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .grid import EncodeSummary, FailedCell, SweepCell

__all__ = [
    "CHECKPOINT_KIND",
    "CHECKPOINT_SCHEMA",
    "cell_digest",
    "cell_digests",
    "CheckpointState",
    "CheckpointWriter",
    "load_checkpoint",
    "checkpoint_digest",
    "checkpoint_summary",
    "compact_checkpoint",
]

#: Value of the header's ``kind`` field.
CHECKPOINT_KIND = "copernicus-sweep-checkpoint"

#: Bump on any backwards-incompatible record change.
CHECKPOINT_SCHEMA = 1


def cell_digest(cell: "SweepCell") -> str:
    """Content digest identifying one cell's complete recipe.

    Two cells collide iff they would compute the same result: same
    workload recipe (generator parameters for specs, matrix content
    for materialized workloads), same format, same partition size and
    same base hardware configuration.
    """
    return cell_digests([cell])[0]


def cell_digests(cells: "Sequence[SweepCell]") -> list[str]:
    """:func:`cell_digest` of every cell, each workload and config once.

    A grid repeats every workload and config across its formats and
    partition sizes; a materialized workload's recipe digest hashes
    the whole matrix, so it is taken once per distinct workload
    object, as is each config's ``repr``.
    """
    # keyed by id(); each value keeps its object alive, so no id is
    # reused while the table stands
    seen: dict[int, tuple[object, str]] = {}

    def text_of(obj, describe) -> str:
        entry = seen.get(id(obj))
        if entry is None:
            entry = seen[id(obj)] = (obj, describe(obj))
        return entry[1]

    digests = []
    for cell in cells:
        workload = text_of(
            cell.workload, lambda w: repr(workload_recipe_digest(w))
        )
        config = text_of(cell.config, repr)
        # byte for byte the repr of the (recipe, format, p, config)
        # tuple
        payload = (
            f"({workload}, {cell.format_name!r}, "
            f"{cell.partition_size!r}, {config})"
        )
        digests.append(
            hashlib.blake2b(
                payload.encode("utf-8"), digest_size=16
            ).hexdigest()
        )
    return digests


def _encode_payload(obj) -> str:
    return base64.b64encode(
        zlib.compress(pickle.dumps(obj, 4))
    ).decode("ascii")


def _decode_payload(text: str):
    try:
        return pickle.loads(zlib.decompress(base64.b64decode(text)))
    except Exception as error:
        raise CheckpointError(
            f"undecodable checkpoint payload: "
            f"{type(error).__name__}: {error}"
        ) from error


#: Typed cell records: the attributes behind each list field.
_SIZE_FIELDS = ("useful_bytes", "data_bytes", "metadata_bytes")
_RESOURCE_FIELDS = ("bram_18k", "ff", "lut", "ff_mapped_buffer_bits")
_POWER_FIELDS = ("logic_w", "bram_w", "signals_w", "static_w")

#: Typed-record scalar fields, written and read by one schema:
#: ``key -> (exact type, list length or None for a bare scalar)``.
_SCALARS = {
    "sigma": (float, None),
    "clock_mhz": (float, None),
    "fill_drain": (int, 2),
    "size": (int, 3),
    "resources": (int, 4),
    "power": (float, 4),
}

#: The per-tile columns of one typed record share one block of this
#: many rows, in the order memory, decompress, dot, useful, data,
#: metadata.
_N_COLUMNS = 6
_COLUMN_DTYPE = "<i8"


def _conforms(value, kind: type, count: int | None) -> bool:
    """``value`` is exactly ``kind`` (or a list of ``count`` of them).

    Exact types only: a ``bool`` is not an ``int`` and a numpy scalar
    is not a ``float``, since JSON would not give them back.
    """
    if count is None:
        return type(value) is kind
    return (
        type(value) is list
        and len(value) == count
        and all(type(item) is kind for item in value)
    )


def _typed_fields(
    cell: "SweepCell", result: "CharacterizationResult"
) -> dict | None:
    """The typed record fields of a canonical result, else ``None``.

    ``None`` whenever any value would not come back from
    :func:`_decode_typed` exactly as it went in (type, dtype and
    value), so the caller falls back to a pickled ``payload``.
    """
    if type(result) is not CharacterizationResult:
        return None
    pipeline, size = result.pipeline, result.size
    resources, power = result.resources, result.power
    if (
        type(pipeline) is not PipelineResult
        or type(pipeline.compute) is not ComputeColumns
        or type(pipeline.sizes) is not SizeColumns
        or type(size) is not SizeBreakdown
        or type(resources) is not ResourceEstimate
        or type(power) is not PowerBreakdown
        or type(result.workload) is not str
    ):
        return None
    # the record stores one (format, p) pair: the cell's
    for part in (result, pipeline, resources, power):
        if not (
            _conforms(part.format_name, str, None)
            and part.format_name == cell.format_name
            and _conforms(part.partition_size, int, None)
            and part.partition_size == cell.partition_size
        ):
            return None
    fields = {
        "sigma": result.sigma,
        "clock_mhz": result.clock_mhz,
        "fill_drain": [pipeline.fill_cycles, pipeline.drain_cycles],
        "size": [getattr(size, attr) for attr in _SIZE_FIELDS],
        "resources": [
            getattr(resources, attr) for attr in _RESOURCE_FIELDS
        ],
        "power": [getattr(power, attr) for attr in _POWER_FIELDS],
    }
    if not all(
        _conforms(fields[key], *spec) for key, spec in _SCALARS.items()
    ):
        return None
    columns = (
        pipeline.memory_per_partition,
        pipeline.compute.decompress_cycles,
        pipeline.compute.dot_cycles,
        pipeline.sizes.useful_bytes,
        pipeline.sizes.data_bytes,
        pipeline.sizes.metadata_bytes,
    )
    shape = pipeline.memory_per_partition.shape
    if len(shape) != 1 or not all(
        type(column) is np.ndarray
        and column.dtype.str == _COLUMN_DTYPE
        and column.shape == shape
        for column in columns
    ):
        return None
    block = zlib.compress(np.concatenate(columns), 1)
    fields["tiles"] = shape[0]
    fields["columns"] = base64.b64encode(block).decode("ascii")
    return fields


def _field(record: dict, key: str, kind: type, count: int | None = None):
    """``record[key]``, which must conform to ``(kind, count)``."""
    value = record[key]
    if not _conforms(value, kind, count):
        raise CheckpointError(
            f"typed cell record: {key!r} must be "
            + (kind.__name__ if count is None
               else f"a list of {count} {kind.__name__}")
        )
    return value


def _decode_typed(record: dict) -> "CharacterizationResult":
    name = _field(record, "format", str)
    p = _field(record, "partition_size", int)
    n = _field(record, "tiles", int)
    scalars = {
        key: _field(record, key, *spec) for key, spec in _SCALARS.items()
    }
    text = _field(record, "columns", str)
    block = zlib.decompress(base64.b64decode(text, validate=True))
    if n < 0 or len(block) != _N_COLUMNS * 8 * n:
        raise CheckpointError(
            f"typed cell record: columns block is {len(block)} bytes, "
            f"expected {_N_COLUMNS} x 8 x {n}"
        )
    # one writable copy, six row views
    memory, decompress, dot, useful, data, metadata = np.frombuffer(
        bytearray(block), dtype=_COLUMN_DTYPE
    ).reshape(_N_COLUMNS, n)
    fill, drain = scalars["fill_drain"]
    return CharacterizationResult(
        workload=_field(record, "workload", str),
        format_name=name,
        partition_size=p,
        sigma=scalars["sigma"],
        pipeline=PipelineResult(
            format_name=name,
            partition_size=p,
            memory_per_partition=memory,
            compute=ComputeColumns(decompress, dot),
            sizes=SizeColumns(useful, data, metadata),
            fill_cycles=fill,
            drain_cycles=drain,
        ),
        size=SizeBreakdown(*scalars["size"]),
        clock_mhz=scalars["clock_mhz"],
        resources=ResourceEstimate(name, p, *scalars["resources"]),
        power=PowerBreakdown(name, p, *scalars["power"]),
    )


def _cell_value(record: dict) -> "CharacterizationResult":
    """Decode one ``cell`` record, typed or ``payload``.

    Strict: any malformed typed record raises :class:`CheckpointError`
    (never another exception type), and only ``payload`` records are
    ever unpickled.
    """
    if "columns" not in record:
        if "payload" not in record:
            raise CheckpointError("cell record missing 'payload'")
        return _decode_payload(record["payload"])
    try:
        return _decode_typed(record)
    except CheckpointError:
        raise
    except (
        KeyError, TypeError, ValueError, zlib.error, CopernicusError
    ) as error:
        raise CheckpointError(
            f"malformed typed cell record: "
            f"{type(error).__name__}: {error}"
        ) from error


@dataclass
class CheckpointState:
    """Everything a checkpoint file holds, latest record per key.

    ``results`` maps cell recipe digests to
    ``(result, wall_s, cache_key)`` triples; ``encodings`` maps
    (workload, format) pairs to their :class:`EncodeSummary`;
    ``failures`` maps cell digests to :class:`FailedCell` records that
    no later ``cell`` record superseded.
    """

    results: dict = field(default_factory=dict)
    encodings: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.results)

    def result_for(self, digest: str):
        return self.results.get(digest)


class CheckpointWriter:
    """Appends completed cells to a checkpoint file, flushing each.

    Opening a missing or empty file writes the header line first;
    opening an existing checkpoint truncates any torn trailing line
    (a crash mid-append — appending after it would glue the new
    record onto the fragment and corrupt both), then validates the
    header and appends.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        io_atomic.repair_torn_tail(self.path)
        fresh = (
            not self.path.exists() or self.path.stat().st_size == 0
        )
        if not fresh:
            _validate_header(self.path)
        self._stream: IO[str] = self.path.open(
            "a", encoding="utf-8"
        )
        if fresh:
            self._append({
                "type": "header",
                "kind": CHECKPOINT_KIND,
                "schema": CHECKPOINT_SCHEMA,
            })

    # ------------------------------------------------------------------
    def _append(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True) + "\n"
        io_atomic.fire(
            "checkpoint.append", self.path, line.encode("utf-8")
        )
        self._stream.write(line)
        self._stream.flush()

    def record_result(
        self,
        digest: str,
        cell: "SweepCell",
        result: "CharacterizationResult",
        wall_s: float = 0.0,
        cache_key: str = "",
    ) -> None:
        """Append one completed cell (called as each cell finishes).

        Typed when the result is canonical, ``payload`` otherwise.
        """
        record = {
            "type": "cell",
            "digest": digest,
            "workload": result.workload,
            "format": cell.format_name,
            "partition_size": cell.partition_size,
            "wall_s": wall_s,
            "cache_key": cache_key,
        }
        typed = _typed_fields(cell, result)
        if typed is None:
            record["payload"] = _encode_payload(result)
        else:
            record.update(typed)
        self._append(record)

    def record_encoding(self, summary: "EncodeSummary") -> None:
        """Append one (workload, format) encode summary."""
        self._append({
            "type": "encoding",
            "workload": summary.workload,
            "format": summary.format_name,
            "payload": _encode_payload(summary),
        })

    def record_failure(
        self, digest: str, failure: "FailedCell"
    ) -> None:
        """Append one failed cell (``error_policy="collect"``).

        Lets a distributed worker's shard carry its failures to the
        coordinator; a later ``cell`` record for the same digest (a
        retry that succeeded, possibly on another worker) supersedes
        it on load.
        """
        self._append({
            "type": "failed",
            "digest": digest,
            "index": failure.index,
            "workload": failure.workload,
            "format": failure.format_name,
            "partition_size": failure.partition_size,
            "payload": _encode_payload(failure),
        })

    def close(self) -> None:
        self._stream.close()

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _validate_header(path: Path) -> dict:
    with path.open("r", encoding="utf-8") as stream:
        first = stream.readline()
    try:
        header = json.loads(first)
    except json.JSONDecodeError as error:
        raise CheckpointError(
            f"{path}: first line is not JSON: {error}"
        ) from error
    if not isinstance(header, dict) or header.get("type") != "header":
        raise CheckpointError(f"{path}: missing checkpoint header")
    if header.get("kind") != CHECKPOINT_KIND:
        raise CheckpointError(
            f"{path}: not a sweep checkpoint "
            f"(kind={header.get('kind')!r})"
        )
    if header.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"{path}: unsupported checkpoint schema "
            f"{header.get('schema')!r} (expected {CHECKPOINT_SCHEMA})"
        )
    return header


def _iter_records(path: Path):
    """Yield ``(lineno, record)`` for every parseable record line.

    Applies the shared trust model: a torn final line is silently
    dropped, anything else malformed raises :class:`CheckpointError`.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise CheckpointError(
            f"cannot read checkpoint {path}: {error}"
        ) from error
    _validate_header(path)
    lines = text.splitlines()
    last_index = len(lines) - 1
    for lineno, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            if lineno == last_index and not text.endswith("\n"):
                return  # torn tail from a mid-append kill
            raise CheckpointError(
                f"{path}:{lineno + 1}: invalid JSON: {error}"
            ) from error
        if not isinstance(record, dict):
            if lineno == last_index and not text.endswith("\n"):
                return  # torn tail that happens to parse (e.g. "12")
            raise CheckpointError(
                f"{path}:{lineno + 1}: checkpoint records must be "
                f"objects"
            )
        yield lineno, record


def load_checkpoint(path: str | Path) -> CheckpointState:
    """Parse a checkpoint, keeping the latest record per cell digest.

    A torn final line — the tell-tale of a process killed mid-append —
    is silently dropped; malformed records anywhere else raise
    :class:`CheckpointError` because they mean the file cannot be
    trusted as a whole.
    """
    path = Path(path)
    state = CheckpointState()
    for lineno, record in _iter_records(path):
        kind = record.get("type")
        if kind == "cell":
            try:
                digest = record["digest"]
            except KeyError as error:
                raise CheckpointError(
                    f"{path}:{lineno + 1}: cell record missing "
                    f"{error}"
                ) from None
            state.results[digest] = (
                _cell_value(record),
                float(record.get("wall_s", 0.0)),
                str(record.get("cache_key", "")),
            )
            # a completed retry supersedes an earlier failure record
            state.failures.pop(digest, None)
        elif kind == "encoding":
            try:
                key = (record["workload"], record["format"])
                payload = record["payload"]
            except KeyError as error:
                raise CheckpointError(
                    f"{path}:{lineno + 1}: encoding record missing "
                    f"{error}"
                ) from None
            state.encodings[key] = _decode_payload(payload)
        elif kind == "failed":
            try:
                digest = record["digest"]
                payload = record["payload"]
            except KeyError as error:
                raise CheckpointError(
                    f"{path}:{lineno + 1}: failed record missing "
                    f"{error}"
                ) from None
            state.failures[digest] = _decode_payload(payload)
        # header handled above; unknown types skipped for forward
        # compatibility
    return state


def _hash_value(update, value) -> None:
    """Feed one decoded payload value to ``update``, type-tagged.

    The walk behind :func:`checkpoint_digest`.  Every token names its
    type and carries its own length, so no two different values feed
    the same bytes: ``-0.0``/``0.0``, ``True``/``1`` and tuple/list
    stay apart.  Dataclasses contribute their qualified name and every
    field that takes part in ``==``.  Any other type raises
    :class:`CheckpointError` rather than being skipped.
    """
    kind = type(value)
    if kind is str:
        data = value.encode("utf-8")
        update(b"str:%d:" % len(data))
        update(data)
    elif kind in (int, float, bool, type(None)):
        update(f"{kind.__name__}:{value!r};".encode("utf-8"))
    elif kind is np.ndarray or isinstance(value, np.generic):
        if value.dtype.hasobject:
            raise CheckpointError(
                "checkpoint payload holds an object-dtype array"
            )
        update(
            f"{kind.__name__}:{value.dtype.str}{value.shape};"
            .encode("utf-8")
        )
        update(value.tobytes())  # C order, whatever the strides
    elif kind is tuple or kind is list:
        update(f"{kind.__name__}:{len(value)};".encode("utf-8"))
        for item in value:
            _hash_value(update, item)
    elif kind is dict:
        update(f"dict:{len(value)};".encode("utf-8"))
        for name, item in value.items():
            _hash_value(update, name)
            _hash_value(update, item)
    elif dataclasses.is_dataclass(kind):
        update(
            f"{kind.__module__}.{kind.__qualname__};".encode("utf-8")
        )
        for spec in dataclasses.fields(value):
            if spec.compare:
                _hash_value(update, getattr(value, spec.name))
    else:
        raise CheckpointError(
            f"checkpoint payload holds an unsupported "
            f"{kind.__module__}.{kind.__qualname__}"
        )


def checkpoint_digest(path: str | Path) -> str:
    """Content digest of a checkpoint's *semantic* payload.

    Covers the latest result per cell digest, the encodings and the
    surviving failures, each decoded and hashed by value
    (:func:`_hash_value`); excludes wall-clock times, cache keys
    (provenance metadata some backends omit) and record order.  Two
    checkpoints compare equal under this digest iff replaying them
    yields equal sweep outcomes — the correctness gate for the
    distributed coordinator's shard merge (``repro checkpoint
    --digest``).  An undecodable payload raises
    :class:`CheckpointError`.
    """
    cells: dict = {}
    encodings: dict = {}
    failures: dict = {}
    for _lineno, record in _iter_records(Path(path)):
        kind = record.get("type")
        if kind == "cell":
            digest = record.get("digest", "")
            cells[digest] = record
            failures.pop(digest, None)
        elif kind == "encoding":
            encodings[
                (record.get("workload", ""), record.get("format", ""))
            ] = record.get("payload", "")
        elif kind == "failed":
            failures[record.get("digest", "")] = record.get(
                "payload", ""
            )
    hasher = hashlib.blake2b(digest_size=16)
    for group, decode in (
        (cells, _cell_value),
        (encodings, _decode_payload),
        (failures, _decode_payload),
    ):
        hasher.update(b"records:%d;" % len(group))
        for key, stored in sorted(
            group.items(), key=lambda item: item[0]
        ):
            # one record decoded at a time keeps memory flat
            _hash_value(hasher.update, (key, decode(stored)))
    return hasher.hexdigest()


def checkpoint_summary(path: str | Path) -> dict:
    """Inspection stats for one checkpoint (``repro checkpoint``)."""
    path = Path(path)
    n_records = 0
    cell_appends: dict = {}
    per_workload: dict = {}
    encodings: set = set()
    failures: dict = {}
    wall_s = 0.0
    for _lineno, record in _iter_records(path):
        kind = record.get("type")
        if kind == "header":
            continue
        n_records += 1
        if kind == "cell":
            digest = record.get("digest", "")
            cell_appends[digest] = cell_appends.get(digest, 0) + 1
            workload = record.get("workload", "")
            per_workload[workload] = per_workload.get(workload, 0) + 1
            wall_s += float(record.get("wall_s", 0.0))
            failures.pop(digest, None)
        elif kind == "encoding":
            encodings.add(
                (record.get("workload", ""), record.get("format", ""))
            )
        elif kind == "failed":
            failures[record.get("digest", "")] = {
                "workload": record.get("workload", ""),
                "format": record.get("format", ""),
                "partition_size": record.get("partition_size", 0),
                "index": record.get("index", -1),
            }
    duplicates = sum(count - 1 for count in cell_appends.values())
    return {
        "path": str(path),
        "n_records": n_records,
        "n_cells": len(cell_appends),
        "n_duplicate_cells": duplicates,
        "n_encodings": len(encodings),
        "n_failed": len(failures),
        "failed": sorted(
            failures.values(),
            key=lambda f: (f["index"], f["workload"], f["format"]),
        ),
        "cells_per_workload": dict(sorted(per_workload.items())),
        "recorded_wall_s": wall_s,
        "digest": checkpoint_digest(path),
        "bytes": path.stat().st_size,
    }


def compact_checkpoint(
    path: str | Path, output: "str | Path | None" = None
) -> dict:
    """Rewrite a checkpoint keeping only the latest record per key.

    Drops duplicate ``cell`` appends (re-executed or duplicated-claim
    cells), duplicate encodings, and ``failed`` records superseded by
    a later success.  Record order in the compacted file is the order
    each key's *latest* record appeared, so compacting an
    already-compact file is the identity.  In-place (``output=None``)
    replaces the file atomically via a same-directory temp file.
    Returns the before/after stats; the semantic
    :func:`checkpoint_digest` is invariant under compaction.
    """
    path = Path(path)
    bytes_before = path.stat().st_size
    records_before = 0
    latest: dict = {}  # key -> record (insertion order re-established)
    for _lineno, record in _iter_records(path):
        kind = record.get("type")
        records_before += kind != "header"
        if kind == "cell":
            key = ("cell", record.get("digest", ""))
            failed_key = ("failed", record.get("digest", ""))
            latest.pop(failed_key, None)
        elif kind == "encoding":
            key = (
                "encoding",
                record.get("workload", ""),
                record.get("format", ""),
            )
        elif kind == "failed":
            key = ("failed", record.get("digest", ""))
        else:
            continue  # the header is rewritten fresh
        latest.pop(key, None)  # move-to-back: keep latest, late order
        latest[key] = record
    destination = path if output is None else Path(output)
    lines = [
        json.dumps(
            {
                "type": "header",
                "kind": CHECKPOINT_KIND,
                "schema": CHECKPOINT_SCHEMA,
            },
            sort_keys=True,
        )
    ]
    lines.extend(
        json.dumps(record, sort_keys=True)
        for record in latest.values()
    )
    io_atomic.atomic_write_text(destination, "\n".join(lines) + "\n")
    return {
        "path": str(destination),
        "records_before": records_before,
        "records_after": len(latest),
        "dropped": records_before - len(latest),
        "bytes_before": bytes_before,
        "bytes_after": destination.stat().st_size,
        "digest": checkpoint_digest(destination),
    }
