"""Append-only JSONL sweep checkpoints for crash recovery and resume.

A checkpoint is the durable sibling of a run manifest: one JSON line
per *completed* cell, appended (and flushed) the moment the parent
process sees the result, so a sweep killed at any point leaves behind
every finished cell.  Resuming replays those cells from disk and
executes only the remainder — and because the replay payload is the
pickled :class:`~repro.core.results.CharacterizationResult` itself
(zlib-compressed, base64-armored inside the JSON record), a resumed
sweep's outcome is bit-identical to an uninterrupted run's.

Payloads are canonical pickles: protocol 4 from the C pickler, with
every string collapsed to one object per value
(:class:`_CanonicalPickler`), so equal results encode to equal bytes
whichever backend computed them.

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
merge — a content digest over the *semantic* payload (cell digests,
results, cache keys, encodings) that deliberately excludes wall-clock
times and record order, so a queue-backend checkpoint and a
sequential one compare equal iff they hold bit-identical results.
:func:`compact_checkpoint` rewrites a record log keeping only the
latest record per key (``repro checkpoint --compact``).
"""

from __future__ import annotations

import base64
import copyreg
import hashlib
import io
import json
import pickle
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from types import FunctionType
from typing import IO, TYPE_CHECKING

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


class _CanonicalPickler(pickle.Pickler):
    """C pickler whose output is invariant to ``str`` object identity.

    pickle's memo is keyed by object id, so two equal strings that are
    distinct objects (typical for a result that crossed a worker's
    pickle boundary) serialize differently than one shared interned
    string (typical for a result computed in-process).  Swapping every
    ``str`` for one representative per value from a value-keyed table
    makes the payload bytes — and therefore :func:`checkpoint_digest`
    — depend only on the values, not on which backend produced them.

    The C pickler writes strings, tuples, lists and dicts without
    calling back into Python, so the swap happens where it does call
    back: :meth:`reducer_override`, once per object of any other type
    (dataclasses, arrays, dtypes, classes).  It returns the object's
    usual reduction (the ``copyreg`` table, else ``__reduce_ex__(4)``)
    with every string in its arguments, state and list/dict items —
    and in the tuples, lists and dicts nested there — swapped; nested
    objects get their own call, and :meth:`dump` swaps the top-level
    value.  Each container is copied once per dump (keyed by id, the
    original kept alive), so shared and cyclic structure keeps its
    shape.  Classes and functions are written under their swapped
    qualified name.

    The bytes equal those of the earlier pure-Python encoder (a swap in
    every ``save``), so checkpoints written by either compare equal.
    The one string the C pickler reads itself is a class's module
    name: a payload string equal to one shares its memo slot only if
    it is the same object.
    """

    def __init__(self, stream, protocol: int) -> None:
        super().__init__(stream, protocol)
        self._strings: dict[str, str] = {}
        self._copies: dict[int, tuple] = {}

    def dump(self, obj) -> None:
        super().dump(self._canonical(obj))

    def _canonical(self, value):
        kind = type(value)
        if kind is str:
            return self._strings.setdefault(value, value)
        if kind not in _CONTAINERS:
            return value
        key = id(value)
        seen = self._copies.get(key)
        if seen is not None:
            return seen[1]
        if kind is tuple:
            copy = tuple(self._items(value))
            # a tuple reached again through its own items was copied
            # there already; keep that copy so the cycle stays closed
            seen = self._copies.get(key)
            if seen is not None:
                return seen[1]
            self._copies[key] = (value, copy)
            return copy
        copy = kind()
        self._copies[key] = (value, copy)
        if kind is list:
            copy.extend(self._items(value))
        else:
            strings = self._strings
            canonical = self._canonical
            for name, item in value.items():
                copy[
                    strings.setdefault(name, name) if type(name) is str
                    else canonical(name)
                ] = (
                    strings.setdefault(item, item) if type(item) is str
                    else canonical(item) if type(item) in _CONTAINERS
                    else item
                )
        return copy

    def _items(self, values) -> list:
        """:meth:`_canonical` of each value, atoms and strings inline."""
        strings = self._strings
        canonical = self._canonical
        return [
            strings.setdefault(item, item) if type(item) is str
            else canonical(item) if type(item) in _CONTAINERS
            else item
            for item in values
        ]

    def reducer_override(self, obj):
        kind = type(obj)
        reduce = None if kind is type else copyreg.dispatch_table.get(kind)
        if reduce is None and (
            kind is FunctionType or issubclass(kind, type)
        ):
            if obj in _SINGLETON_TYPES:
                return NotImplemented
            rv = obj.__qualname__
        else:
            rv = obj.__reduce_ex__(4) if reduce is None else reduce(obj)
        if type(rv) is str:  # a global, written by (canonical) name
            return self._strings.setdefault(rv, rv)
        if type(rv) is not tuple:
            return NotImplemented
        canonical = self._canonical
        rv = self._items(rv)
        if len(rv) > 3 and rv[3] is not None:  # listitems iterator
            rv[3] = map(canonical, rv[3])
        if len(rv) > 4 and rv[4] is not None:  # dictitems iterator
            rv[4] = ((canonical(k), canonical(v)) for k, v in rv[4])
        return tuple(rv)


#: The containers whose items :class:`_CanonicalPickler` rewrites.
_CONTAINERS = frozenset((tuple, list, dict))

#: Classes the pickler writes as ``type(None)``-style reductions.
_SINGLETON_TYPES = (type(None), type(NotImplemented), type(...))


def _encode_payload(obj) -> str:
    buffer = io.BytesIO()
    _CanonicalPickler(buffer, 4).dump(obj)
    return base64.b64encode(
        zlib.compress(buffer.getvalue())
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
            summary = _decode_payload(record["payload"])
            state.encodings[
                (record["workload"], record["format"])
            ] = summary
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


def checkpoint_digest(path: str | Path) -> str:
    """Content digest of a checkpoint's *semantic* payload.

    Covers the latest result payload per cell digest, the encodings
    and the surviving failures; excludes wall-clock times, cache keys
    (provenance metadata some backends omit) and record order.  Two
    checkpoints compare equal under this digest iff replaying them
    yields bit-identical sweep outcomes — the correctness gate for
    the distributed coordinator's shard merge
    (``repro checkpoint --digest``).
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
    payload = repr((
        sorted(cells.items()),
        sorted(encodings.items()),
        sorted(failures.items()),
    ))
    return hashlib.blake2b(
        payload.encode("utf-8"), digest_size=16
    ).hexdigest()


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
