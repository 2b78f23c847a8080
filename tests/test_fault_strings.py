"""Every fault spec string the docs, CI and artifacts carry still parses.

The grammar is documented by example and recorded in
``BENCH_chaos.json``; a string that stopped parsing (or describing back
to itself) would silently rot either one.  These checks are pure: no
sweep runs.
"""

from __future__ import annotations

import json
import pathlib
import re
from random import Random

import pytest

from repro.chaos import random_plan
from repro.engine.faults import FAULT_KINDS, FaultPlan

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
DOCS = (
    "README.md",
    "EXPERIMENTS.md",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
)
_SPEC = re.compile(
    r"\b(?:" + "|".join(map(re.escape, FAULT_KINDS)) + r")@[\w.*:#=,@\-]+"
)
_BENCH = json.loads((REPO_ROOT / "BENCH_chaos.json").read_text())


def _doc_specs() -> list[tuple[str, str]]:
    found = []
    for doc in DOCS:
        text = (REPO_ROOT / doc).read_text()
        specs = sorted(set(_SPEC.findall(text)))
        assert specs, f"{doc} quotes no fault spec"
        found.extend((doc, spec) for spec in specs)
    return found


@pytest.mark.parametrize("doc, text", _doc_specs())
def test_doc_spec_parses(doc, text):
    FaultPlan.parse(text)


@pytest.mark.parametrize(
    "schedule", _BENCH["schedules"], ids=lambda s: f"schedule-{s['index']}"
)
def test_bench_chaos_plan_describes_back_byte_identically(schedule):
    assert FaultPlan.parse(schedule["plan"]).describe() == schedule["plan"]


@pytest.mark.parametrize(
    "schedule",
    [s for s in _BENCH["schedules"] if s["kind"] == "queue"],
    ids=lambda s: f"schedule-{s['index']}",
)
def test_random_plan_reproduces_the_recorded_queue_plan(schedule):
    seed = _BENCH["config"]["seed"]
    rng = Random(seed * 10007 + schedule["index"])
    assert random_plan(rng).describe() == schedule["plan"]
