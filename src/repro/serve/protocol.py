"""The ``serve/v1`` wire contract: queries, digests, payloads.

Everything the characterization server says or accepts over HTTP is
defined here, away from sockets and concurrency, so the schema is
testable as plain functions:

* :func:`parse_query` validates a request body into a normalized
  :class:`Query` (strict: unknown fields are rejected, parameters are
  bounded) — normalization sorts formats/partitions, so two requests
  asking for the same work in different spelling share one digest;
* :func:`query_digest` is the coalescing/cache key: a content digest
  of the normalized query, built on the workload's *recipe digest*
  (the same identity run manifests use);
* payload builders produce JSON-serializable dicts whose field sets
  are pinned by the golden-schema suite, and :func:`canonical_json`
  renders them deterministically so coalesced and cached responses
  are byte-for-byte identical;
* :data:`SERVE_SCHEMA` versions it all — bump on any incompatible
  change, and update the golden sets deliberately.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from ..core.recommend import OBJECTIVES, Constraints, Recommendation
from ..core.results import CharacterizationResult
from ..engine.specs import WorkloadSpec
from ..errors import ServeRequestError
from ..formats.registry import ALL_FORMATS, PAPER_FORMATS
from ..workloads.suitesparse import TABLE1

__all__ = [
    "SERVE_SCHEMA",
    "ENDPOINTS",
    "Query",
    "parse_query",
    "query_digest",
    "canonical_json",
    "characterize_payload",
    "advise_payload",
    "error_payload",
    "health_payload",
]

#: Version tag carried by every response; bump on incompatible change.
SERVE_SCHEMA = "serve/v1"

#: The query endpoints (also the URL paths, as ``/<endpoint>``).
ENDPOINTS = ("characterize", "advise")

#: Server-side ceiling on workload dimensions: a query is a bounded
#: unit of work, not an arbitrary compute job.
DEFAULT_MAX_DIM = 2048

#: Default grid served when a query does not narrow it.
DEFAULT_PARTITIONS = (8, 16)

#: Per-cell metrics reported for every (format, partition) cell.
CELL_FIELDS = (
    "total_cycles",
    "memory_cycles",
    "compute_cycles",
    "decompress_cycles",
    "sigma",
    "balance_ratio",
    "total_bytes",
    "framed_total_bytes",
    "bandwidth_utilization",
    "throughput_bytes_per_s",
    "dynamic_power_w",
    "total_seconds",
)

#: Constraint fields accepted by ``/advise`` (see
#: :class:`repro.core.recommend.Constraints`).
CONSTRAINT_FIELDS = (
    "max_bram_18k", "max_ff", "max_lut", "max_dynamic_power_w",
)

_WORKLOAD_KINDS = ("random", "band", "poisson", "standin", "mtx")

#: Largest inline ``.mtx`` content a query may carry (the HTTP body
#: cap is 1 MiB; this keeps the workload's share of it explicit).
MAX_MTX_CONTENT_BYTES = 1 << 19
_STANDIN_IDS = tuple(row.id for row in TABLE1)


@dataclass(frozen=True)
class Query:
    """One normalized, digestable characterization question."""

    endpoint: str
    spec: WorkloadSpec
    formats: tuple[str, ...]
    partitions: tuple[int, ...]
    objective: str = ""
    constraints: tuple[tuple[str, float], ...] = ()

    def approximate(self) -> "Query | None":
        """A cheaper query answering the same question, or ``None``.

        The degraded answer a blown time budget falls back to: the
        smallest requested partition size only (1/len(partitions) of
        the work, same formats, same matrix).  ``None`` when the query
        is already minimal.
        """
        if len(self.partitions) <= 1:
            return None
        return Query(
            endpoint=self.endpoint,
            spec=self.spec,
            formats=self.formats,
            partitions=(min(self.partitions),),
            objective=self.objective,
            constraints=self.constraints,
        )

    def echo(self) -> dict:
        """The normalized query, echoed in every response payload."""
        workload: dict = {
            "kind": self.spec.kind,
            "name": self.spec.name,
            **dict(self.spec.params),
        }
        if self.spec.kind == "mtx":
            # never reflect untrusted bytes back to a client; the
            # name already carries the content digest
            content = workload.pop("content", "")
            workload["content_bytes"] = len(content)
        payload: dict = {
            "endpoint": self.endpoint,
            "workload": workload,
            "formats": list(self.formats),
            "partitions": list(self.partitions),
        }
        if self.endpoint == "advise":
            payload["objective"] = self.objective
            payload["constraints"] = dict(self.constraints)
        return payload

    def recommend_constraints(self) -> Constraints | None:
        if not self.constraints:
            return None
        return Constraints(**dict(self.constraints))


def query_digest(query: Query) -> str:
    """Stable content digest of a normalized query — the single-flight
    and LRU key.  Built on the workload recipe digest, so it never
    requires materializing the matrix."""
    payload = repr((
        SERVE_SCHEMA,
        query.endpoint,
        query.spec.recipe_digest,
        query.formats,
        query.partitions,
        query.objective,
        query.constraints,
    ))
    return hashlib.blake2b(
        payload.encode("utf-8"), digest_size=16
    ).hexdigest()


# ----------------------------------------------------------------------
# Request parsing
# ----------------------------------------------------------------------
def _fail(problems: list[str]) -> None:
    if problems:
        raise ServeRequestError("; ".join(problems))


def _require_int(
    value: object, name: str, lo: int, hi: int, problems: list[str]
) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        problems.append(f"{name} must be an integer, got {value!r}")
        return lo
    if not lo <= value <= hi:
        problems.append(f"{name} must be in [{lo}, {hi}], got {value}")
        return lo
    return value


def _parse_workload(
    data: object, max_dim: int, problems: list[str]
) -> WorkloadSpec | None:
    if not isinstance(data, dict):
        problems.append("workload must be an object")
        return None
    kind = data.get("kind")
    if kind not in _WORKLOAD_KINDS:
        problems.append(
            f"workload.kind must be one of {', '.join(_WORKLOAD_KINDS)}; "
            f"got {kind!r}"
        )
        return None
    known = {
        "random": ("kind", "n", "density", "seed"),
        "band": ("kind", "n", "width", "seed"),
        "poisson": ("kind", "grid"),
        "standin": ("kind", "id", "max_dim", "seed"),
        "mtx": ("kind", "content"),
    }[kind]
    for field in data:
        if field not in known:
            problems.append(f"unknown workload field {field!r}")
    if kind == "mtx":
        content = data.get("content")
        if not isinstance(content, str) or not content:
            problems.append(
                "workload.content must be a non-empty string of "
                "MatrixMarket text"
            )
            return None
        if len(content) > MAX_MTX_CONTENT_BYTES:
            problems.append(
                f"workload.content exceeds {MAX_MTX_CONTENT_BYTES} "
                f"bytes ({len(content)})"
            )
            return None
        if problems:
            return None
        # deliberately *not* parsed here: untrusted content first
        # crosses the sandbox boundary in the server, never the
        # request-parsing path
        return WorkloadSpec.mtx(content)
    seed = _require_int(
        data.get("seed", 0), "workload.seed", 0, 2**32 - 1, problems
    )
    if kind == "random":
        n = _require_int(
            data.get("n"), "workload.n", 1, max_dim, problems
        )
        density = data.get("density")
        if not isinstance(density, (int, float)) or isinstance(
            density, bool
        ) or not 0.0 < float(density) <= 1.0:
            problems.append(
                f"workload.density must be in (0, 1], got {density!r}"
            )
            return None
        if problems:
            return None
        return WorkloadSpec.random(n, float(density), seed=seed)
    if kind == "band":
        n = _require_int(
            data.get("n"), "workload.n", 1, max_dim, problems
        )
        width = _require_int(
            data.get("width"), "workload.width", 1, max_dim, problems
        )
        if problems:
            return None
        return WorkloadSpec.band(n, width, seed=seed)
    if kind == "poisson":
        grid_cap = max(2, int(max_dim ** 0.5))
        grid = _require_int(
            data.get("grid"), "workload.grid", 2, grid_cap, problems
        )
        if problems:
            return None
        return WorkloadSpec.poisson(grid)
    # kind == "standin"
    table1_id = data.get("id")
    if table1_id not in _STANDIN_IDS:
        problems.append(
            f"workload.id must be a Table 1 ID "
            f"({', '.join(_STANDIN_IDS)}); got {table1_id!r}"
        )
        return None
    cap = _require_int(
        data.get("max_dim", max_dim), "workload.max_dim", 16, max_dim,
        problems,
    )
    if problems:
        return None
    return WorkloadSpec.standin(table1_id, max_dim=cap, seed=seed)


def parse_query(
    endpoint: str, payload: object, max_dim: int = DEFAULT_MAX_DIM
) -> Query:
    """Validate and normalize one request body into a :class:`Query`.

    Strict by design: unknown fields, unknown formats and out-of-range
    parameters all raise :class:`ServeRequestError` (listing every
    problem found) instead of being silently dropped, so schema
    evolution stays visible to clients.
    """
    if endpoint not in ENDPOINTS:
        raise ServeRequestError(f"unknown endpoint {endpoint!r}")
    if not isinstance(payload, dict):
        raise ServeRequestError("request body must be a JSON object")
    problems: list[str] = []
    known_fields = {"workload", "formats", "partitions"}
    if endpoint == "advise":
        known_fields |= {"objective", "constraints"}
    for field in payload:
        if field not in known_fields:
            problems.append(f"unknown field {field!r}")
    if "workload" not in payload:
        problems.append("missing required field 'workload'")
    spec = _parse_workload(payload.get("workload"), max_dim, problems)

    formats = payload.get("formats", list(PAPER_FORMATS))
    if not isinstance(formats, list) or not formats:
        problems.append("formats must be a non-empty array")
        formats = []
    unknown = [f for f in formats if f not in ALL_FORMATS]
    if unknown:
        problems.append(
            f"unknown formats: {', '.join(map(repr, unknown))}"
        )
        formats = []

    partitions = payload.get("partitions", list(DEFAULT_PARTITIONS))
    if not isinstance(partitions, list) or not partitions:
        problems.append("partitions must be a non-empty array")
        partitions = []
    else:
        partitions = [
            _require_int(p, "partitions[]", 1, 1024, problems)
            for p in partitions
        ]

    objective = ""
    constraints: tuple[tuple[str, float], ...] = ()
    if endpoint == "advise":
        objective = payload.get("objective", "latency")
        if objective not in OBJECTIVES:
            problems.append(
                f"objective must be one of {', '.join(OBJECTIVES)}; "
                f"got {objective!r}"
            )
        raw = payload.get("constraints", {})
        if not isinstance(raw, dict):
            problems.append("constraints must be an object")
            raw = {}
        entries: list[tuple[str, float]] = []
        for key, value in raw.items():
            if key not in CONSTRAINT_FIELDS:
                problems.append(f"unknown constraint {key!r}")
            elif not isinstance(value, (int, float)) or isinstance(
                value, bool
            ) or float(value) <= 0:
                problems.append(
                    f"constraint {key} must be a positive number, "
                    f"got {value!r}"
                )
            else:
                entries.append((key, float(value)))
        constraints = tuple(sorted(entries))
    _fail(problems)
    return Query(
        endpoint=endpoint,
        spec=spec,
        formats=tuple(sorted(set(formats))),
        partitions=tuple(sorted(set(partitions))),
        objective=objective,
        constraints=constraints,
    )


# ----------------------------------------------------------------------
# Response payloads
# ----------------------------------------------------------------------
def canonical_json(payload: dict) -> bytes:
    """Deterministic JSON encoding — the byte-identity guarantee."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _cell(result: CharacterizationResult) -> dict:
    record: dict = {
        "format": result.format_name,
        "partition_size": result.partition_size,
    }
    for name in CELL_FIELDS:
        value = getattr(result, name)
        record[name] = value if isinstance(value, int) else float(value)
    return record


def characterize_payload(
    query: Query, results: list[CharacterizationResult]
) -> dict:
    """The ``/characterize`` response body."""
    return {
        "schema": SERVE_SCHEMA,
        "endpoint": "characterize",
        "digest": query_digest(query),
        "query": query.echo(),
        "cells": [_cell(result) for result in results],
    }


def advise_payload(
    query: Query,
    results: list[CharacterizationResult],
    recommendation: Recommendation,
) -> dict:
    """The ``/advise`` response body."""
    objective = recommendation.objective
    return {
        "schema": SERVE_SCHEMA,
        "endpoint": "advise",
        "digest": query_digest(query),
        "query": query.echo(),
        "objective": objective.name,
        "best": {
            "format": recommendation.format_name,
            "partition_size": recommendation.partition_size,
            "value": objective.value(recommendation.best),
        },
        "ranking": [
            {
                "format": result.format_name,
                "partition_size": result.partition_size,
                "value": objective.value(result),
            }
            for result in recommendation.ranking()
        ],
        "n_rejected": len(recommendation.rejected),
        "cells": [_cell(result) for result in results],
    }


def error_payload(error_type: str, message: str, status: int) -> dict:
    """The structured error body (every non-2xx response)."""
    return {
        "schema": SERVE_SCHEMA,
        "error": {
            "type": error_type,
            "message": message,
            "status": status,
        },
    }


def health_payload() -> dict:
    """The ``GET /healthz`` body."""
    return {"schema": SERVE_SCHEMA, "ok": True}
