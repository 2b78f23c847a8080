"""The synchronous compute path behind the characterization server.

One :class:`SweepBackend` per server: it turns a normalized
:class:`~repro.serve.protocol.Query` into canonical response bytes by
running the existing :class:`~repro.engine.SweepRunner` path (so the
server's answers are bit-identical to ``repro sweep`` / ``repro
advise`` on the same grid) and, for ``/advise``, ranking the results
through :func:`~repro.core.recommend.recommend_from_results`.

The backend is deliberately synchronous — it is called through the
event loop's thread executor, and the ``fail_fast`` error policy turns
any cell failure (including injected faults and corrupt streams) into
one typed exception the server maps to a structured error response.
"""

from __future__ import annotations

from ..engine.faults import FaultPlan
from ..errors import SweepConfigError
from ..engine.runner import SweepRunner
from .protocol import (
    Query,
    advise_payload,
    canonical_json,
    characterize_payload,
)

__all__ = ["SweepBackend"]


class SweepBackend:
    """Executes queries against the sweep engine, one at a time.

    ``faults`` threads a deterministic
    :class:`~repro.engine.faults.FaultPlan` into every sweep — the
    robustness-test hook: an injected crash or corrupt stream fails the
    request, not the server.  Only cell clauses are accepted: a server
    runs many sweeps at once on threads, and the io_atomic hooks
    durability clauses install are process-global.
    """

    def __init__(self, faults: "FaultPlan | str | None" = None) -> None:
        if isinstance(faults, str):
            faults = FaultPlan.parse(faults)
        if faults is not None and faults.durable:
            raise SweepConfigError(
                f"a server accepts only sweep-cell faults; durability "
                f"clauses install process-global hooks that concurrent "
                f"sweeps would share: {FaultPlan(faults.durable).describe()}"
            )
        self.faults = faults
        #: Completed backend computations (not HTTP requests).
        self.computations = 0

    def execute(self, query: Query) -> dict:
        """Compute one query's response payload (synchronously)."""
        runner = SweepRunner(
            error_policy="fail_fast", faults=self.faults
        )
        outcome = runner.run_grid(
            [query.spec],
            query.formats,
            partition_sizes=query.partitions,
        )
        self.computations += 1
        if query.endpoint == "advise":
            from ..core.recommend import recommend_from_results

            recommendation = recommend_from_results(
                outcome.results,
                objective=query.objective,
                constraints=query.recommend_constraints(),
            )
            return advise_payload(query, outcome.results, recommendation)
        return characterize_payload(query, outcome.results)

    def execute_bytes(self, query: Query) -> bytes:
        """Canonical response body bytes for ``query``.

        This is what the single-flight future resolves to and what the
        LRU stores: serialization happens once, inside the shared
        computation, so every coalesced waiter and every later cache
        hit ships identical bytes.
        """
        return canonical_json(self.execute(query))
