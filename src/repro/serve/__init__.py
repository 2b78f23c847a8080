"""Characterization-as-a-service: async query server + load harness.

The serving stack, bottom to top:

* :mod:`~repro.serve.protocol` — the ``serve/v1`` wire contract
  (query parsing, digests, payload builders, canonical JSON);
* :mod:`~repro.serve.lru` — the bounded result cache;
* :mod:`~repro.serve.backend` — the synchronous sweep-engine compute
  path;
* :mod:`~repro.serve.server` — the asyncio HTTP server wiring it all
  together with single-flight coalescing, admission control, and
  budget degradation;
* :mod:`~repro.serve.loadgen` — the deterministic load generator and
  its gated ``bench/v2`` report.
"""

from .backend import SweepBackend
from .loadgen import (
    MIXES,
    PlannedRequest,
    bench_report,
    http_request,
    percentile,
    plan_requests,
    run_load,
    run_loadgen,
)
from .lru import LRUCache
from .protocol import (
    ENDPOINTS,
    SERVE_SCHEMA,
    Query,
    advise_fast_payload,
    advise_payload,
    canonical_json,
    characterize_payload,
    error_payload,
    health_payload,
    parse_query,
    query_digest,
)
from .server import CharacterizationServer

__all__ = [
    "SweepBackend",
    "MIXES",
    "PlannedRequest",
    "bench_report",
    "http_request",
    "percentile",
    "plan_requests",
    "run_load",
    "run_loadgen",
    "LRUCache",
    "ENDPOINTS",
    "SERVE_SCHEMA",
    "Query",
    "advise_fast_payload",
    "advise_payload",
    "canonical_json",
    "characterize_payload",
    "error_payload",
    "health_payload",
    "parse_query",
    "query_digest",
    "CharacterizationServer",
]
