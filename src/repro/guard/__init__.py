"""Untrusted-input defense line for the characterization system.

Three layers between hostile bytes and a serve worker:

* :mod:`repro.guard.sandbox` — a resource-sandboxed execution
  boundary: parse/profile/encode for untrusted matrices runs in a
  subprocess under hard wall-clock, address-space and output-size
  caps, and comes back as a typed :class:`ResourceVerdict` (``ok`` /
  ``rejected`` / ``timeout`` / ``oom`` / ``oversize`` / ``crash``)
  instead of an exception or a dead worker;
* :mod:`repro.guard.fuzz` — structured fuzzing of the ``.mtx`` parser
  and the 14 format codecs: seeded generators for malformed bytes and
  semantically-corrupted encodings, a delta-debugging minimizer, and
  an on-disk regression corpus replayed in CI;
* :mod:`repro.guard.overload` — serve-side overload protection: one
  pure admission decision (:func:`decide`) over drain, SLO-aware
  priority shedding, per-route circuit breakers and queue capacity.

:mod:`repro.guard.campaign` ties them together into the gated
campaign behind ``repro bench guard``.
"""

from .campaign import DEFAULT_CORPUS_DIR, run_guard_campaign
from .fuzz import (
    FUZZ_KINDS,
    CaseOutcome,
    FuzzCase,
    FuzzReport,
    build_case,
    execute_case,
    fuzz_run,
    load_corpus,
    minimize_case,
    replay_corpus,
    save_case,
)
from .overload import (
    PRIORITIES,
    CircuitBreaker,
    Decision,
    GuardPolicy,
    LoadShedder,
    Signals,
    decide,
    parse_priority,
)
from .sandbox import (
    SANDBOX_OPS,
    VERDICT_KINDS,
    ResourceVerdict,
    Sandbox,
    SandboxLimits,
    run_sandboxed,
)

__all__ = [
    "DEFAULT_CORPUS_DIR",
    "run_guard_campaign",
    "SANDBOX_OPS",
    "VERDICT_KINDS",
    "ResourceVerdict",
    "Sandbox",
    "SandboxLimits",
    "run_sandboxed",
    "FUZZ_KINDS",
    "CaseOutcome",
    "FuzzCase",
    "FuzzReport",
    "build_case",
    "execute_case",
    "fuzz_run",
    "load_corpus",
    "minimize_case",
    "replay_corpus",
    "save_case",
    "PRIORITIES",
    "CircuitBreaker",
    "Decision",
    "GuardPolicy",
    "LoadShedder",
    "Signals",
    "decide",
    "parse_priority",
]
