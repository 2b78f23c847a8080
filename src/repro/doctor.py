"""Audit and repair of queue and checkpoint state (``repro doctor``).

A crash — real or chaos-injected — can leave a work-queue directory
or a checkpoint in any state the durability layer permits: torn
trailing JSONL lines, stray atomic-write temp files, tasks still
claimed by dead workers, half-written done markers, blobs nobody
references.  The doctor walks that state, classifies every problem
into a *finding*, and (with ``repair=True``) applies the standard
remedy for each:

=================  ====================================================
``torn-tail``       unterminated final JSONL line → truncate it away
``stray-temp``      leftover ``*.tmp*`` from an interrupted atomic
                    write → delete (the destination is intact by
                    construction)
``bad-record``      checkpoint/shard line that parses but cannot be
                    decoded or trusted → rewrite the file without it
``expired-claim``   claimed task whose owner's lease is stale or gone
                    → release it back to ``tasks/``
``orphan-owner``    ``.owner`` sidecar without its task → delete
``corrupt-task``    unreadable/undecodable task file → delete (the
                    coordinator re-derives tasks from the grid)
``corrupt-done``    invalid JSON done marker → delete (treated as
                    not-done; the work is re-dispatched or resumed)
``corrupt-blob``    blob whose bytes no longer match its content key
                    → delete (tasks referencing it will recompute)
``orphan-blob``     blob no task references → delete (pure cache)
``salvaged-cells``  completed cells found in worker shards but missing
                    from the canonical checkpoint → append them
=================  ====================================================

Ordinary operational state — the ``STOP`` marker, worker
registrations, lease files, done markers of finished chunks — is
*not* a finding: a queue directory that merely finished a run is
healthy.  ``repro doctor --check`` exits non-zero iff findings
remain, which makes "repair, then check" the post-crash contract the
chaos campaign gates on.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import time as _now

from . import io_atomic
from .engine.cache import matrix_content_key
from .engine.checkpoint import (
    CheckpointWriter,
    _cell_value,
    _decode_payload,
    _iter_records,
    _validate_header,
    load_checkpoint,
)
from .engine.distributed import QueueLayout, _decode_blob, _read_done
from .errors import CheckpointError, DoctorError

__all__ = [
    "DOCTOR_SCHEMA",
    "Finding",
    "diagnose",
    "diagnose_checkpoint",
    "diagnose_queue",
]

#: Schema tag of the report ``repro doctor`` emits.
DOCTOR_SCHEMA = "doctor/v1"


@dataclass
class Finding:
    """One problem the doctor identified (and possibly fixed)."""

    kind: str
    path: str
    detail: str
    repaired: bool = False

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class _Audit:
    """Shared accumulator for one doctor pass."""

    repair: bool
    findings: list[Finding] = field(default_factory=list)

    def add(
        self, kind: str, path: Path, detail: str, repaired: bool = False
    ) -> Finding:
        finding = Finding(kind, str(path), detail, repaired)
        self.findings.append(finding)
        return finding


# ----------------------------------------------------------------------
# JSONL (checkpoint / shard) auditing
# ----------------------------------------------------------------------
def _audit_jsonl(audit: _Audit, path: Path) -> None:
    """Torn tails and undecodable records in one checkpoint file."""
    try:
        data = path.read_bytes()
    except OSError as error:
        raise DoctorError(f"cannot read {path}: {error}") from error
    if data and not data.endswith(b"\n"):
        torn = len(data) - (data.rfind(b"\n") + 1)
        finding = audit.add(
            "torn-tail", path, f"{torn} unterminated trailing bytes"
        )
        if audit.repair:
            io_atomic.repair_torn_tail(path)
            finding.repaired = True
            data = path.read_bytes()
    if not data:
        return
    try:
        _validate_header(path)
    except CheckpointError as error:
        audit.add("bad-record", path, f"unusable header: {error}")
        return
    # every remaining line is newline-terminated; keep only the lines
    # that parse AND decode, rewrite if any were dropped
    lines = data.decode("utf-8").splitlines()
    kept: list[str] = []
    dropped = 0
    for lineno, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("record is not an object")
            if record.get("type") == "cell":
                _cell_value(record)
            elif "payload" in record:
                _decode_payload(record["payload"])
        except Exception as error:  # noqa: BLE001 — any damage counts
            dropped += 1
            audit.add(
                "bad-record",
                path,
                f"line {lineno + 1}: {type(error).__name__}: {error}",
            )
            continue
        kept.append(line)
    if dropped and audit.repair:
        io_atomic.atomic_write_text(path, "\n".join(kept) + "\n")
        for finding in audit.findings:
            if finding.kind == "bad-record" and finding.path == str(
                path
            ):
                finding.repaired = True


def _audit_stray_temps(audit: _Audit, root: Path) -> None:
    """Leftover atomic-write temp files anywhere under ``root``."""
    if root.is_dir():
        candidates = sorted(root.rglob(f"*{io_atomic.TMP_MARKER}*"))
    else:
        candidates = sorted(
            root.parent.glob(root.name + f"{io_atomic.TMP_MARKER}*")
        )
    for temp in candidates:
        if not temp.is_file():
            continue
        finding = audit.add(
            "stray-temp", temp, "interrupted atomic write"
        )
        if audit.repair:
            temp.unlink(missing_ok=True)
            finding.repaired = True


# ----------------------------------------------------------------------
# Queue auditing
# ----------------------------------------------------------------------
def _referenced_blobs(layout: QueueLayout, audit: _Audit) -> set[str]:
    """Content keys referenced by readable task files; prunes corrupt
    task files and orphan owner sidecars along the way."""
    referenced: set[str] = set()
    for directory in (layout.tasks, layout.claimed):
        if not directory.is_dir():
            continue
        for path in sorted(directory.iterdir()):
            if io_atomic.TMP_MARKER in path.name:
                continue  # handled by the stray-temp sweep
            if path.name.endswith(".owner"):
                task = path.with_name(
                    path.name[: -len(".owner")] + ".task"
                )
                if not task.exists():
                    finding = audit.add(
                        "orphan-owner", path, "sidecar without a task"
                    )
                    if audit.repair:
                        path.unlink(missing_ok=True)
                        finding.repaired = True
                continue
            if not path.name.endswith(".task"):
                continue
            try:
                _record, chunk, _digests = layout.read_task(path)
            except Exception as error:  # noqa: BLE001 — damage
                finding = audit.add(
                    "corrupt-task",
                    path,
                    f"{type(error).__name__}: {error}",
                )
                if audit.repair:
                    path.unlink(missing_ok=True)
                    finding.repaired = True
                continue
            for _index, cell in chunk:
                key = getattr(cell.workload, "content_key", None)
                if key:
                    referenced.add(key)
    return referenced


def _audit_claims(
    audit: _Audit, layout: QueueLayout, lease_timeout_s: float
) -> None:
    """Release claimed tasks whose owner stopped heartbeating."""
    if not layout.claimed.is_dir():
        return
    now = _now()
    for path in sorted(layout.claimed.glob("*.task")):
        owner_path = path.with_name(
            path.name[: -len(".task")] + ".owner"
        )
        try:
            owner = owner_path.read_text(encoding="utf-8").strip()
        except OSError:
            owner = ""
        age = layout.lease_age(owner, now) if owner else None
        if age is not None and age < lease_timeout_s:
            continue
        who = owner or "unknown worker"
        lease = (
            f"lease {age:.1f}s stale"
            if age is not None
            else "no lease on file"
        )
        finding = audit.add(
            "expired-claim", path, f"claimed by {who}, {lease}"
        )
        if audit.repair:
            try:
                path.rename(layout.tasks / path.name)
            except OSError:
                pass
            owner_path.unlink(missing_ok=True)
            finding.repaired = True


def _audit_done(audit: _Audit, layout: QueueLayout) -> None:
    """Remove done markers the coordinator would not accept."""
    if not layout.done.is_dir():
        return
    for path in sorted(layout.done.glob("*.done")):
        if _read_done(path) is None:
            finding = audit.add(
                "corrupt-done", path, "unreadable or invalid done marker"
            )
            if audit.repair:
                path.unlink(missing_ok=True)
                finding.repaired = True


def _audit_blobs(
    audit: _Audit, layout: QueueLayout, referenced: set[str]
) -> None:
    """Verify blob content keys; prune corrupt and orphan blobs."""
    if not layout.blobs.is_dir():
        return
    for path in sorted(layout.blobs.glob("*.blob")):
        key = path.name[: -len(".blob")]
        try:
            matrix = _decode_blob(path.read_bytes())
            actual = matrix_content_key(matrix)
        except Exception as error:  # noqa: BLE001 — damage
            finding = audit.add(
                "corrupt-blob",
                path,
                f"undecodable: {type(error).__name__}: {error}",
            )
            if audit.repair:
                path.unlink(missing_ok=True)
                finding.repaired = True
            continue
        if actual != key:
            finding = audit.add(
                "corrupt-blob",
                path,
                f"content key mismatch (actual {actual[:12]}...)",
            )
            if audit.repair:
                path.unlink(missing_ok=True)
                finding.repaired = True
        elif key not in referenced:
            finding = audit.add(
                "orphan-blob", path, "referenced by no task"
            )
            if audit.repair:
                path.unlink(missing_ok=True)
                finding.repaired = True


def _salvage_shards(
    audit: _Audit, layout: QueueLayout, checkpoint: Path
) -> None:
    """Append shard-only completed cells to the canonical checkpoint.

    A crash between a worker finishing cells and the coordinator's
    merge strands those results in ``results/*.jsonl``.  They are
    bit-identical to what the merge would have written (same decode →
    canonical re-encode path), so appending them makes the resumed
    sweep replay instead of recompute.
    """
    shard_paths = sorted(layout.results.glob("*.jsonl"))
    if not shard_paths:
        return
    try:
        canonical = (
            load_checkpoint(checkpoint)
            if checkpoint.exists() and checkpoint.stat().st_size > 0
            else None
        )
    except CheckpointError:
        canonical = None  # damage already reported by the audit
    have = set(canonical.results) if canonical else set()
    have_encodings = set(canonical.encodings) if canonical else set()
    # raw record copy: shard payloads use the same canonical encoding
    # the coordinator's merge would produce, so the semantic
    # checkpoint digest comes out identical either way
    salvage: dict = {}
    salvage_encodings: dict = {}
    for shard_path in shard_paths:
        try:
            for _lineno, record in _iter_records(shard_path):
                kind = record.get("type")
                if kind == "cell":
                    digest = record.get("digest", "")
                    if digest and digest not in have:
                        salvage[digest] = record
                elif kind == "encoding":
                    key = (
                        record.get("workload", ""),
                        record.get("format", ""),
                    )
                    if key not in have_encodings:
                        salvage_encodings[key] = record
        except CheckpointError:
            continue  # shard damage already reported by the audit
    if not salvage and not salvage_encodings:
        return
    finding = audit.add(
        "salvaged-cells",
        checkpoint,
        f"{len(salvage)} cell(s) and {len(salvage_encodings)} "
        f"encoding(s) stranded in worker shards",
    )
    if not audit.repair:
        return
    with CheckpointWriter(checkpoint) as writer:
        for digest in sorted(salvage):
            writer._append(salvage[digest])
        for key in sorted(salvage_encodings):
            writer._append(salvage_encodings[key])
    finding.repaired = True


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def diagnose_checkpoint(
    path: "str | Path", repair: bool = False
) -> dict:
    """Audit one checkpoint file; returns a ``doctor/v1`` report."""
    path = Path(path)
    if not path.exists():
        raise DoctorError(f"no such checkpoint: {path}")
    audit = _Audit(repair=repair)
    _audit_stray_temps(audit, path)
    _audit_jsonl(audit, path)
    return _report(audit, path, "checkpoint")


def diagnose_queue(
    queue_dir: "str | Path",
    repair: bool = False,
    lease_timeout_s: float = 10.0,
    checkpoint: "str | Path | None" = None,
) -> dict:
    """Audit one queue directory; returns a ``doctor/v1`` report.

    ``checkpoint`` names the canonical sweep checkpoint this queue
    was feeding; when given, completed cells stranded in worker
    shards are salvaged into it (with ``repair=True``).
    """
    layout = QueueLayout(queue_dir)
    if not layout.meta.exists():
        raise DoctorError(
            f"{layout.root} is not a work queue (no queue.json)"
        )
    audit = _Audit(repair=repair)
    _audit_stray_temps(audit, layout.root)
    for shard_path in sorted(layout.results.glob("*.jsonl")):
        _audit_jsonl(audit, shard_path)
    referenced = _referenced_blobs(layout, audit)
    _audit_claims(audit, layout, lease_timeout_s)
    _audit_done(audit, layout)
    _audit_blobs(audit, layout, referenced)
    if checkpoint is not None:
        checkpoint = Path(checkpoint)
        cp_audit = _Audit(repair=repair)
        if checkpoint.exists():
            _audit_stray_temps(cp_audit, checkpoint)
            _audit_jsonl(cp_audit, checkpoint)
        audit.findings.extend(cp_audit.findings)
        _salvage_shards(audit, layout, checkpoint)
    return _report(audit, layout.root, "queue")


def diagnose(
    path: "str | Path",
    repair: bool = False,
    lease_timeout_s: float = 10.0,
    checkpoint: "str | Path | None" = None,
) -> dict:
    """Audit ``path``, autodetecting queue directory vs checkpoint."""
    target = Path(path)
    if target.is_dir():
        return diagnose_queue(
            target,
            repair=repair,
            lease_timeout_s=lease_timeout_s,
            checkpoint=checkpoint,
        )
    return diagnose_checkpoint(target, repair=repair)


def _report(audit: _Audit, target: Path, kind: str) -> dict:
    by_kind: dict[str, int] = {}
    for finding in audit.findings:
        by_kind[finding.kind] = by_kind.get(finding.kind, 0) + 1
    return {
        "schema": DOCTOR_SCHEMA,
        "target": str(target),
        "kind": kind,
        "repair": audit.repair,
        "n_findings": len(audit.findings),
        "n_repaired": sum(f.repaired for f in audit.findings),
        "by_kind": dict(sorted(by_kind.items())),
        "findings": [f.to_json() for f in audit.findings],
        "clean": not audit.findings,
    }
