"""In-memory span recorder and the wrappers that time each layer.

The benchmark never edits the program: a traced run replaces the
public entry points of each layer with thin wrappers (``Instrument``)
for the duration of the run and restores them afterwards.  Every
wrapper records one span — name, start, end, parent span and
operation id — in memory; the spans are written out as JSONL when the
run ends.

A span's parent is the innermost span open in the same context
(``contextvars``), so spans taken in asyncio tasks and in the server's
executor threads nest correctly.  A span opened with no parent starts
a new operation unless ``op_of`` links it to one (the serve wrappers
link a request's parse and backend spans through the ``Query`` object
they share).  On the server an operation therefore covers the
server-side handling of one request; the client side of a request is
not a span, its latency is in the workload's timings.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

__all__ = ["Tracer", "Instrument", "self_times"]


class Tracer:
    """Collects spans and counters for one traced run."""

    def __init__(self) -> None:
        #: (id, name, start_s, end_s, parent_id, op_id) per span.
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._span_ids = itertools.count(1)
        self._op_ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        #: id(query) -> (query, op id): links serve spans of one request.
        self.query_ops: dict[int, tuple] = {}

    def new_op(self) -> str:
        return f"op{next(self._op_ids)}"

    def call(self, name: str, fn, args, kwargs, op=None, after=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``after(args, result, op_id)`` runs once the call returned.
        """
        parent = self._current.get()
        if parent is not None:
            parent_id, op_id = parent
        else:
            parent_id, op_id = 0, op or self.new_op()
        span_id = next(self._span_ids)
        token = self._current.set((span_id, op_id))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.spans.append((span_id, name, start, end, parent_id, op_id))
        if after is not None:
            after(args, result, op_id)
        return result

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as stream:
            for span_id, name, start, end, parent, op in self.spans:
                stream.write(json.dumps({
                    "id": span_id, "name": name, "start": start,
                    "end": end, "parent": parent, "op": op,
                }) + "\n")


def self_times(spans: list[tuple]) -> tuple[dict, dict, dict]:
    """Per span name: total self seconds, total seconds, span count.

    Self time is a span's duration minus the part of its interval
    covered by its children (overlapping children count once).
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent:
            children[parent].append((start, end))
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    for span_id, name, start, end, _, _ in spans:
        covered, reach = 0.0, start
        for child_start, child_end in sorted(children.get(span_id, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        self_s[name] += (end - start) - covered
        total_s[name] += end - start
        count[name] += 1
    return self_s, total_s, count


class Instrument:
    """Context manager wrapping each layer's public entry points.

    Wraps names where the program looks them up at call time: class
    attributes for methods, and the importing module's global for
    functions imported by name.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, owner, attr: str, name: str, after=None, op_of=None):
        original = getattr(owner, attr)
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            op = op_of(args) if op_of is not None else None
            return tracer.call(
                name, original, args, kwargs, op=op, after=after
            )

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Instrument":
        recommend = importlib.import_module("repro.core.recommend")
        simulator = importlib.import_module("repro.core.simulator")
        from repro.engine import checkpoint, executors, runner, specs
        from repro.hardware.pipeline import StreamingPipeline
        from repro.serve import backend, server

        tracer, counts = self.tracer, self.tracer.counts

        def count_tiles(_args, table, _op):
            counts["partition.tiles"] += len(table)

        def count_outcome(args, outcome, _op):
            counts["engine.cells"] += len(args[1])
            counts["engine.cache_hits"] += outcome.stats.total_hits
            counts["engine.cache_misses"] += sum(
                outcome.stats.misses.values()
            )

        def link_query(_args, query, op):
            tracer.query_ops[id(query)] = (query, op)

        def op_of_query(index):
            def lookup(args):
                entry = tracer.query_ops.get(id(args[index]))
                return entry[1] if entry is not None else None
            return lookup

        self._wrap(specs.WorkloadSpec, "build", "workloads.build")
        self._wrap(executors, "profile_table", "partition.profile",
                   after=count_tiles)
        self._wrap(StreamingPipeline, "run", "hardware.pipeline")
        self._wrap(simulator, "estimate_resources", "hardware.estimate")
        self._wrap(simulator, "estimate_power", "hardware.estimate")
        self._wrap(simulator.SpmvSimulator, "run_format", "core.run_format")
        self._wrap(recommend, "recommend_from_results", "core.rank")
        self._wrap(runner.SweepRunner, "run", "engine.runner",
                   after=count_outcome)
        self._wrap(checkpoint.CheckpointWriter, "record_result",
                   "engine.checkpoint_write")
        self._wrap(runner, "load_checkpoint", "engine.checkpoint_load")
        self._wrap(server, "parse_query", "serve.parse", after=link_query)
        self._wrap(server, "query_digest", "serve.parse",
                   op_of=op_of_query(0))
        self._wrap(backend.SweepBackend, "execute_bytes", "serve.backend",
                   op_of=op_of_query(1))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.tracer.query_ops.clear()

