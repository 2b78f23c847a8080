"""Append-only JSONL sweep checkpoints for crash recovery and resume.

A checkpoint is the durable sibling of a run manifest: one JSON line
per *completed* cell, appended (and flushed) the moment the parent
process sees the result, so a sweep killed at any point leaves behind
every finished cell.  Resuming replays those cells from disk and
executes only the remainder — and because the replay payload is the
pickled :class:`~repro.core.results.CharacterizationResult` itself
(zlib-compressed, base64-armored inside the JSON record), a resumed
sweep's outcome is bit-identical to an uninterrupted run's.

Records are keyed by the **cell recipe digest** — a content digest of
(workload recipe, format, partition size, hardware config) — not by
grid position, so a checkpoint survives grid reordering, grid
extension, and partial overlap: any cell whose recipe matches replays,
everything else runs.

Wire format (one JSON object per line)::

    {"type": "header", "kind": "copernicus-sweep-checkpoint", ...}
    {"type": "cell", "digest": ..., "workload": ..., "format": ...,
     "partition_size": ..., "wall_s": ..., "cache_key": ...,
     "payload": "<base64(zlib(pickle(result)))>"}
    {"type": "encoding", "workload": ..., "format": ...,
     "payload": "<base64(zlib(pickle(EncodeSummary)))>"}
    {"type": "failed", "digest": ..., "index": ..., "workload": ...,
     "format": ..., "partition_size": ...,
     "payload": "<base64(zlib(pickle(FailedCell)))>"}

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
merge.  It is defined over *decoded values*, never over payload
bytes: the latest record per key survives, each surviving payload is
unpickled and fed through one fixed, type-tagged walk
(:func:`_hash_value` — strings length-prefixed, scalars by type and
``repr``, arrays by dtype, shape and bytes, dataclasses by qualified
name and compared fields), and wall-clock times, cache keys and
record order are left out.  A queue-backend checkpoint and a
sequential one therefore compare equal iff they hold equal results,
however the pickler happened to lay out the bytes.
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
from typing import IO, TYPE_CHECKING

import numpy as np

from .. import io_atomic
from ..errors import CheckpointError
from .telemetry import workload_recipe_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.results import CharacterizationResult
    from .grid import EncodeSummary, FailedCell, SweepCell

__all__ = [
    "CHECKPOINT_KIND",
    "CHECKPOINT_SCHEMA",
    "cell_digest",
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
    payload = repr((
        workload_recipe_digest(cell.workload),
        cell.format_name,
        cell.partition_size,
        cell.config,
    ))
    return hashlib.blake2b(
        payload.encode("utf-8"), digest_size=16
    ).hexdigest()


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
        """Append one completed cell (called as each cell finishes)."""
        self._append({
            "type": "cell",
            "digest": digest,
            "workload": result.workload,
            "format": cell.format_name,
            "partition_size": cell.partition_size,
            "wall_s": wall_s,
            "cache_key": cache_key,
            "payload": _encode_payload(result),
        })

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
                payload = record["payload"]
            except KeyError as error:
                raise CheckpointError(
                    f"{path}:{lineno + 1}: cell record missing "
                    f"{error}"
                ) from None
            state.results[digest] = (
                _decode_payload(payload),
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
            cells[digest] = record.get("payload", "")
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
    for group in (cells, encodings, failures):
        hasher.update(b"records:%d;" % len(group))
        for key, text in sorted(group.items()):
            # one payload decoded at a time keeps memory flat
            _hash_value(hasher.update, (key, _decode_payload(text)))
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
    before = checkpoint_summary(path)
    latest: dict = {}  # key -> record (insertion order re-established)
    for _lineno, record in _iter_records(path):
        kind = record.get("type")
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
    after = checkpoint_summary(destination)
    return {
        "path": str(destination),
        "records_before": before["n_records"],
        "records_after": after["n_records"],
        "dropped": before["n_records"] - after["n_records"],
        "bytes_before": before["bytes"],
        "bytes_after": after["bytes"],
        "digest": after["digest"],
    }
