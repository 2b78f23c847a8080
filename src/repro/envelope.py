"""One report envelope for every benchmark and campaign: ``bench/v2``.

Every suite behind ``repro bench <suite>``, and ``repro loadgen``,
reports through this module, so every run is stamped, written and
gated the same way:

* :func:`envelope` puts a suite's own sections under one header:
  ``schema``, ``suite``, ``machine`` (with ``cpu_count``), ``config``,
  ``gates`` and ``n_gates_failed``;
* a :class:`Gate` is data: a name, a dotted key path into the report,
  a comparison and a bound.  :func:`evaluate` fills in each gate's
  measured ``value`` and ``passed`` (``None`` when the suite recorded
  no value, e.g. a worker count the machine cannot run);
* :func:`write_bench` is the one writer: atomic, indented JSON with
  sorted keys and a trailing newline;
* :func:`gate_summary` is the closing verdict line, counting only
  gates that passed (a gate without a value is not a pass);
* :func:`check_gates` raises :class:`~repro.errors.BenchGateError`
  (CLI exit 2) naming each failed gate with its value and bound.
  Callers run it only after the report is on disk.

A :class:`Suite` declares its parameters once, as a table of
:class:`Param` rows.  ``repro bench`` renders them as flags and
:meth:`Suite.run` resolves each one (the explicit value, else its
``--quick`` value, else its default) before calling the suite body.
No flag switches a gate on or off: a suite lists the gates that mean
something on a quick run in ``quick_gates``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import io_atomic
from .errors import BenchGateError
from .observability import machine_metadata

__all__ = [
    "BENCH_SCHEMA",
    "Gate",
    "Param",
    "Suite",
    "check_gates",
    "envelope",
    "evaluate",
    "gate_lines",
    "gate_summary",
    "write_bench",
]

#: Version tag of every benchmark and campaign report.
BENCH_SCHEMA = "bench/v2"

_OPS = {"==": operator.eq, ">=": operator.ge, ">": operator.gt}

#: Keys the envelope owns; no suite section may reuse one.
_HEADER = ("schema", "suite", "machine", "config", "gates", "n_gates_failed")


@dataclass(frozen=True)
class Gate:
    """``value at path  op  bound`` must hold for the run to pass."""

    name: str
    path: str
    op: str
    bound: object

    def verdict(self, report: dict) -> dict:
        value = report
        for key in self.path.split("."):
            value = value[key]
        passed = (
            None if value is None else bool(_OPS[self.op](value, self.bound))
        )
        return {
            "name": self.name,
            "path": self.path,
            "op": self.op,
            "bound": self.bound,
            "value": value,
            "passed": passed,
        }


def evaluate(report: dict, gates: "tuple[Gate, ...]") -> dict:
    """(Re)compute ``report["gates"]`` and ``n_gates_failed`` in place."""
    verdicts = [gate.verdict(report) for gate in gates]
    report["gates"] = verdicts
    report["n_gates_failed"] = sum(v["passed"] is False for v in verdicts)
    return report


def envelope(
    suite: str, config: dict, sections: dict, gates: "tuple[Gate, ...]"
) -> dict:
    """The ``bench/v2`` report: header, then the suite's sections."""
    clash = sorted(set(sections) & set(_HEADER))
    if clash:
        raise TypeError(
            f"{suite}: section(s) {clash} clash with the report header"
        )
    report = {
        "schema": BENCH_SCHEMA,
        "suite": suite,
        "machine": machine_metadata(),
        "config": config,
        **sections,
    }
    return evaluate(report, gates)


def write_bench(report: dict, path: "str | Path") -> Path:
    """Atomically write ``report`` as indented, key-sorted JSON."""
    return io_atomic.atomic_write_json(Path(path), report)


def _describe(verdict: dict) -> str:
    return (
        f"{verdict['name']} = {verdict['value']!r} "
        f"(need {verdict['op']} {verdict['bound']!r})"
    )


def gate_lines(report: dict) -> list[str]:
    """One human-readable line per gate verdict."""
    marks = {True: "pass", False: "FAIL", None: "no value"}
    return [
        f"gate {marks[v['passed']]}: {_describe(v)}" for v in report["gates"]
    ]


def gate_summary(report: dict) -> str:
    """The closing verdict: how many gates passed, and of how many."""
    verdicts = report["gates"]
    if not verdicts:
        return "no gates on this run"
    passed = sum(v["passed"] is True for v in verdicts)
    missing = sum(v["passed"] is None for v in verdicts)
    if passed == len(verdicts):
        return f"all {passed} gate(s) passed"
    return (
        f"{passed} of {len(verdicts)} gate(s) passed "
        f"({len(verdicts) - passed - missing} failed, "
        f"{missing} without a value)"
    )


def check_gates(report: dict) -> None:
    """Raise :class:`BenchGateError` naming every failed gate."""
    failed = [v for v in report["gates"] if v["passed"] is False]
    if failed:
        raise BenchGateError(
            f"{report['suite']}: {len(failed)} of {len(report['gates'])} "
            "gate(s) failed: " + "; ".join(map(_describe, failed))
        )


def _shown(value: object) -> str:
    if isinstance(value, (tuple, list)):
        return " ".join(map(str, value))
    return str(value)


@dataclass(frozen=True)
class Param:
    """One suite parameter: a keyword of the suite body.

    ``quick`` is the value ``--quick`` runs use (``None``: the
    default).  ``option`` is the command-line spelling: empty derives
    ``--name-with-dashes``, ``None`` keeps the parameter in the table
    (and in the report's ``config``) but off the command line.
    """

    name: str
    default: object
    help: str
    quick: object = None
    type: "Callable | None" = None
    nargs: "str | None" = None
    option: "str | None" = ""

    @property
    def flag(self) -> "str | None":
        if self.option is None:
            return None
        return self.option or "--" + self.name.replace("_", "-")

    def argparse_kwargs(self) -> dict:
        shown = _shown(self.default)
        if self.quick is not None:
            shown += f"; --quick: {_shown(self.quick)}"
        kwargs = {
            "dest": self.name,
            "metavar": self.flag.lstrip("-").replace("-", "_").upper(),
            "default": None,
            "help": f"{self.help} (default {shown})",
            "type": self.type or type(self.default),
        }
        if self.nargs:
            kwargs["nargs"] = self.nargs
        return kwargs


@dataclass(frozen=True)
class Suite:
    """A gated benchmark or campaign, declared as data.

    ``body(seed=..., **params)`` runs the suite and returns its
    sections; a ``config`` entry among them carries derived settings
    into the report's ``config`` next to the resolved parameters (it
    may not repeat one of them, nor ``seed``/``quick``).
    """

    name: str
    help: str
    seed: int
    output: str
    params: "tuple[Param, ...]"
    body: Callable[..., dict]
    gates: "tuple[Gate, ...]"
    describe: Callable[[dict], "list[str]"]
    quick_gates: "tuple[Gate, ...] | None" = None

    def resolve(self, quick: bool = False, **given) -> dict:
        names = {param.name for param in self.params}
        unknown = sorted(set(given) - names)
        if unknown:
            raise TypeError(f"{self.name} has no parameter(s) {unknown}")
        resolved = {}
        for param in self.params:
            value = given.get(param.name)
            if value is None:
                value = (
                    param.quick
                    if quick and param.quick is not None
                    else param.default
                )
            resolved[param.name] = value
        return resolved

    def run(
        self, *, seed: "int | None" = None, quick: bool = False, **given
    ) -> dict:
        """Resolve the parameters, run the body, return the report."""
        seed = self.seed if seed is None else seed
        params = self.resolve(quick, **given)
        sections = self.body(seed=seed, **params)
        config = {"seed": seed, "quick": quick, **params}
        derived = sections.pop("config", {})
        clash = sorted(set(derived) & set(config))
        if clash:
            raise TypeError(
                f"{self.name}: derived config {clash} would overwrite "
                "the parameters that ran"
            )
        config.update(derived)
        gates = self.gates
        if quick and self.quick_gates is not None:
            gates = self.quick_gates
        return envelope(self.name, config, sections, gates)
