"""Deterministic fault injection: one grammar for cells and durability.

The robustness machinery — error policies, worker-crash recovery,
chunk bisection, checkpoint/resume, queue leases, the doctor — only
earns its keep if its failure paths are *testable*.  This module makes
failure a first-class, reproducible input: a :class:`FaultPlan` is a
frozen, picklable set of :class:`FaultSpec` clauses, parsed from one
compact grammar (the ``--inject-faults`` flag uses it)::

    kind@target#key=value#key=value,kind@target...

A clause aims at one of two kinds of target:

**Sweep cells** — ``workload:format:p`` (``*`` wildcards) or
``every:N`` (grid indexes divisible by N).  The runner evaluates these
immediately before executing each cell, so the same plan faults the
same cells on every run, any worker count, and every retry attempt:

``raise``
    Raise :class:`InjectedFault` inside the cell, exercising the
    ``collect`` / ``fail_fast`` error policies.
``crash``
    Kill the worker process with ``os._exit`` — the death that
    surfaces as ``BrokenProcessPool`` or an expired queue lease.  On
    the in-process path it raises
    :class:`~repro.errors.WorkerCrashError` instead.
``delay``
    Sleep ``delay`` seconds before the cell runs.
``corrupt``
    Damage the cell's encoded matrix stream with a seeded
    :class:`~repro.formats.corrupt.CorruptionSpec` and decode it back
    under ``mode`` (a :data:`~repro.formats.integrity.DECODE_MODES`
    policy).

Cell clauses are *attempt-gated*: ``times=N`` trips only on the first
N dispatch attempts of the cell's chunk (``times=none`` = always).

**Durability seams** — ``checkpoint``, ``shards``, ``blobs``,
``worker``, ``merge`` or ``serve``.  Write sites announce operations
through :func:`repro.io_atomic.fire`; :meth:`FaultPlan.install`
registers a hook that counts matching operations per process and
fires once ``after`` of them were seen, at most ``times`` times:

``torn-write@checkpoint|shards``
    Append the first ``frac`` of the record, then die.
``stale-lease@worker``
    Swallow lease heartbeats.
``slow-io@blobs|shards|checkpoint``
    Sleep ``ms`` milliseconds.
``disk-full@shards|blobs|checkpoint``
    Raise ``ENOSPC``.
``crash@merge|worker``
    Die before the shard merge / at the worker's next shard append.
``sigterm@serve[#midflight]``
    Drain a live server under load; interpreted by the campaign
    (:mod:`repro.chaos`), never fired by a hook.

Cell targets always contain ``:`` and durability targets never do, so
the two forms of ``crash`` cannot be confused.  Examples::

    raise@rand-0.01:csr:16              # one exact cell
    crash@*:coo:*#times=none            # every coo cell, every attempt
    delay@every:5#delay=0.25            # every 5th grid cell sleeps
    corrupt@*:csr:*#ckind=bitflip#ber=0.001#mode=strict
    torn-write@checkpoint#frac=0.4#after=3
    disk-full@shards#after=5,crash@merge    # clauses compose

Process roles matter for fatal clauses: in a **worker** they call
``os._exit`` (a real ``kill -9`` as far as durability is concerned);
on the **coordinator** a durability crash or tear raises
:class:`~repro.errors.ChaosCrash` so a harness survives to run
recovery.  Queue workers receive the plan through the pickled
:class:`~repro.engine.executors.ExecutionSettings` in ``queue.json``.
"""

from __future__ import annotations

import errno
import math
import os
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

from .. import io_atomic
from ..errors import ChaosCrash, SweepConfigError, WorkerCrashError
from ..formats.corrupt import CorruptionSpec
from ..io_atomic import HookSuppressed

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "HOOK_OPS",
    "InjectedFault",
]

#: Exit status a fatal clause kills its worker with (any non-zero
#: status breaks the pool; a recognizable one helps post-mortems).
CRASH_EXIT_STATUS = 86

#: The cell target form; it contains ``:``, which no durability target
#: name does.
_CELL = "workload:format:p|every:N"
_HOOKED = ("after", "times")

#: kind -> {target form: the options that kind reads there}.
_GRAMMAR: dict[str, dict[str, tuple[str, ...]]] = {
    "raise": {_CELL: ("times",)},
    "crash": {_CELL: ("times",), "merge": _HOOKED, "worker": _HOOKED},
    "delay": {_CELL: ("delay", "times")},
    "corrupt": {_CELL: ("ckind", "plane", "ber", "mode", "times")},
    "torn-write": dict.fromkeys(
        ("checkpoint", "shards"), ("frac",) + _HOOKED
    ),
    "stale-lease": {"worker": _HOOKED},
    "slow-io": dict.fromkeys(
        ("blobs", "shards", "checkpoint"), ("ms",) + _HOOKED
    ),
    "disk-full": dict.fromkeys(("shards", "blobs", "checkpoint"), _HOOKED),
    "sigterm": {"serve": ("midflight",)},
}

#: Every fault kind the grammar accepts.
FAULT_KINDS = tuple(_GRAMMAR)

#: The io_atomic operations an installed plan listens on.
HOOK_OPS = (
    "checkpoint.append",
    "atomic.write",
    "blob.read",
    "queue.heartbeat",
    "queue.merge",
)

#: Queue subdirectories whose files count as shard/queue state.
_SHARD_DIRS = frozenset({"tasks", "claimed", "done", "results"})

_ROLES = ("worker", "coordinator")


class InjectedFault(RuntimeError):
    """The exception a ``raise`` fault throws inside a cell."""


@dataclass(frozen=True)
class FaultSpec:
    """One ``kind@target#options`` clause.

    Option fields are named as in the grammar and listed in the order
    :meth:`describe` writes them; an option the kind does not read
    must keep its default.
    """

    kind: str
    target: str = "*:*:*"
    frac: float = 0.5
    after: int = 1
    ms: float = 25.0
    delay: float = 0.05
    ckind: str = "bitflip"
    plane: str = "*"
    ber: float = 1e-3
    mode: str = "strict"
    times: int | None = 1
    midflight: bool = False
    #: (workload, format, p, every_nth) for a cell target, else None
    _cell: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.kind not in _GRAMMAR:
            raise SweepConfigError(
                f"unknown fault kind {self.kind!r}; "
                f"known: {', '.join(FAULT_KINDS)}"
            )
        target, cell = _parse_target(self.kind, self.target)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "_cell", cell)
        _check_options(
            self.kind,
            self.target,
            [
                name
                for name, default in _DEFAULTS.items()
                if getattr(self, name) != default
            ],
        )
        if self.times is not None and self.times < 1:
            raise SweepConfigError(
                f"times must be >= 1 (or none for always), "
                f"got {self.times}"
            )
        if self.after < 1:
            raise SweepConfigError(f"after must be >= 1, got {self.after}")
        if not 0.0 <= self.frac < 1.0:
            raise SweepConfigError(
                f"frac must be in [0, 1), got {self.frac}"
            )
        for name in ("ms", "delay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise SweepConfigError(
                    f"{name} must be a finite number >= 0, got {value}"
                )
        if self.kind == "corrupt":
            # constructing the spec validates ckind / plane / ber / mode
            self.corruption_spec()

    # ------------------------------------------------------------------
    @property
    def durable(self) -> bool:
        """Whether this clause aims at a durability seam, not a cell."""
        return self._cell is None

    def matches(self, coords: tuple[str, str, int], index: int) -> bool:
        """Does this clause target the cell at ``coords`` / ``index``?"""
        if self._cell is None:
            return False
        workload, format_name, partition_size, every_nth = self._cell
        if every_nth is not None:
            return index % every_nth == 0
        return (
            workload in (None, coords[0])
            and format_name in (None, coords[1])
            and partition_size in (None, coords[2])
        )

    def should_fire(
        self, coords: tuple[str, str, int], index: int, attempt: int
    ) -> bool:
        """Whether the clause trips for this (cell, dispatch attempt)."""
        if self.times is not None and attempt >= self.times:
            return False
        return self.matches(coords, index)

    def listens(self, op: str, path: Path) -> bool:
        """Does this clause count io_atomic operation ``op`` at ``path``?"""
        if self._cell is not None or self.kind == "sigterm":
            return False
        if self.kind == "stale-lease":
            return op == "queue.heartbeat"
        if self.kind == "crash":
            if self.target == "merge":
                return op == "queue.merge"
            # crash@worker: die at the worker's next shard append
            return op == "checkpoint.append" and _classify(path) == "shards"
        if self.kind == "torn-write":
            return (
                op == "checkpoint.append" and _classify(path) == self.target
            )
        # slow-io / disk-full: any announced write or blob read whose
        # path classifies as the target
        if op == "blob.read":
            return self.target == "blobs"
        if op in ("checkpoint.append", "atomic.write"):
            return _classify(path) == self.target
        return False

    def corruption_spec(self) -> CorruptionSpec:
        """The stream-corruption rule a ``corrupt`` clause applies."""
        return CorruptionSpec(
            kind=self.ckind,
            plane=self.plane,
            ber=self.ber,
            decode_mode=self.mode,
        )

    def describe(self) -> str:
        """Round-trippable compact form: non-default options, fixed order."""
        parts = [f"{self.kind}@{self.target}"]
        for name, default in _DEFAULTS.items():
            value = getattr(self, name)
            if value == default:
                continue
            if name == "midflight":
                parts.append(name)
            else:
                parts.append(f"{name}={_format(value)}")
        return "#".join(parts)


#: Option name -> default, in describe order.
_DEFAULTS = {
    f.name: f.default for f in fields(FaultSpec) if f.init
}
del _DEFAULTS["kind"], _DEFAULTS["target"]


def _format(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        short = f"{value:g}"
        return short if float(short) == value else repr(value)
    return str(value)


def _parse_target(kind: str, target: str) -> tuple[str, tuple | None]:
    """Canonical target text plus the parsed cell selector (or None)."""
    target = target.strip()
    forms = _GRAMMAR[kind]
    if (_CELL if ":" in target else target) not in forms:
        raise SweepConfigError(
            f"fault kind {kind!r} cannot target {target!r}; "
            f"valid targets: {', '.join(forms)}"
        )
    if ":" not in target:
        return target, None
    parts = [part.strip() for part in target.split(":")]
    if len(parts) == 2 and parts[0] == "every":
        every_nth = _parse_int(parts[1], "every")
        if every_nth < 1:
            raise SweepConfigError(f"every:N needs N >= 1, got {every_nth}")
        return f"every:{every_nth}", (None, None, None, every_nth)
    if len(parts) != 3 or not all(parts):
        raise SweepConfigError(
            f"fault target {target!r} must be workload:format:p "
            f"('*' wildcards) or every:N"
        )
    workload, format_name, partition = (
        None if part == "*" else part for part in parts
    )
    if partition is not None:
        partition = _parse_int(partition, "p")
    canonical = ":".join(
        "*" if part is None else str(part)
        for part in (workload, format_name, partition)
    )
    return canonical, (workload, format_name, partition, None)


def _check_options(kind: str, target: str, names) -> None:
    """Reject options the clause's kind never reads at its target."""
    read = _GRAMMAR[kind][_CELL if ":" in target else target]
    for name in names:
        if name not in read:
            raise SweepConfigError(
                f"fault option {name!r} does not apply to "
                f"{kind}@{target}; it reads: {', '.join(read)}"
            )


def _parse_int(value: str, label: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise SweepConfigError(
            f"fault target part {label}={value!r} is not an integer"
        ) from None


_CONVERT = {
    "frac": float,
    "after": int,
    "ms": float,
    "delay": float,
    "ckind": str,
    "plane": str,
    "ber": float,
    "mode": str,
    "times": lambda value: None if value.lower() == "none" else int(value),
}


def _parse_one(text: str) -> FaultSpec:
    head, *chunks = text.split("#")
    kind, sep, target = head.partition("@")
    kind, target = kind.strip(), target.strip()
    if not sep or not target:
        raise SweepConfigError(
            f"fault spec {text!r} must look like kind@target[#key=value] "
            f"(e.g. raise@rand-0.01:csr:16, crash@every:5, crash@merge)"
        )
    options: dict = {}
    for chunk in chunks:
        key, sep, value = (part.strip() for part in chunk.partition("="))
        if key == "midflight" and not sep:
            options[key] = True
            continue
        if not sep or key not in _CONVERT:
            raise SweepConfigError(
                f"fault option {chunk.strip()!r} in {text!r} must be "
                f"key=value with key one of {', '.join(_CONVERT)} "
                f"(or the bare marker midflight)"
            )
        try:
            options[key] = _CONVERT[key](value)
        except ValueError:
            raise SweepConfigError(
                f"fault option {key}={value!r} in {text!r} is not a number"
            ) from None
    spec = FaultSpec(kind, target, **options)
    # the constructor sees only non-default values; an unread option
    # spelled out at its default is just as much a mistake
    _check_options(kind, spec.target, options)
    return spec


def _classify(path: Path) -> str:
    """Map a path to a durability target by its queue-directory position.

    Files inside a queue's ``tasks``/``claimed``/``done``/``results``
    dirs are ``shards`` state, ``blobs`` is itself, and everything
    else — canonical checkpoints, BENCH artifacts, manifests — is
    ``checkpoint``.
    """
    parent = path.parent.name
    if parent in _SHARD_DIRS:
        return "shards"
    if parent == "blobs":
        return "blobs"
    return "checkpoint"


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, frozen, picklable set of fault clauses.

    The runner calls :meth:`before_cell` immediately before executing
    each cell; the first matching ``raise``/``crash`` clause fires.
    Plans cross process boundaries with the chunk (and ``queue.json``),
    so workers and the in-process path evaluate identical rules.
    Durability clauses act only once :meth:`install` registers them.
    """

    specs: tuple[FaultSpec, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.specs)

    @property
    def durable(self) -> tuple[FaultSpec, ...]:
        """The clauses aimed at durability seams rather than cells."""
        return tuple(spec for spec in self.specs if spec.durable)

    # ------------------------------------------------------------------
    def before_cell(
        self,
        coords: tuple[str, str, int],
        index: int,
        attempt: int = 0,
        in_worker: bool = False,
    ) -> None:
        """Inject the first matching cell fault, if any.

        ``attempt`` is the chunk's dispatch attempt (0-based);
        ``in_worker`` tells a ``crash`` fault whether it may actually
        kill the process (worker) or must raise
        :class:`WorkerCrashError` instead (in-process path).
        """
        for spec in self.specs:
            if not spec.should_fire(coords, index, attempt):
                continue
            if spec.kind == "corrupt":
                # applied to the cell's encoded stream through
                # :meth:`corruption_for`, not raised here
                continue
            if spec.kind == "delay":
                time.sleep(spec.delay)
                continue
            if spec.kind == "raise":
                raise InjectedFault(
                    f"injected fault {spec.describe()} at cell "
                    f"{coords} (attempt {attempt})"
                )
            # kind == "crash"
            if in_worker:
                os._exit(CRASH_EXIT_STATUS)
            raise WorkerCrashError(
                f"injected crash {spec.describe()} at cell {coords} "
                f"(attempt {attempt}, in-process path)"
            )

    def corruption_for(
        self,
        coords: tuple[str, str, int],
        index: int,
        attempt: int = 0,
    ) -> CorruptionSpec | None:
        """The corruption rule (if any) firing for this cell.

        The first matching ``corrupt`` clause wins, with the same
        attempt-gating as :meth:`before_cell`.
        """
        for spec in self.specs:
            if spec.kind == "corrupt" and spec.should_fire(
                coords, index, attempt
            ):
                return spec.corruption_spec()
        return None

    # ------------------------------------------------------------------
    def install(self, role: str) -> None:
        """Register the durability clauses as this process's io hooks.

        ``role`` is ``"worker"`` (fatal clauses kill the process, like
        a real crash) or ``"coordinator"`` (they raise
        :class:`ChaosCrash` so a harness can run recovery).  The
        ``after``/``times`` counters are per installation, so each
        process counts its own operations.  Replaces any installed
        hooks.
        """
        if role not in _ROLES:
            raise SweepConfigError(
                f"fault role must be 'worker' or 'coordinator', "
                f"got {role!r}"
            )
        specs = self.durable
        seen = [0] * len(specs)
        fired = [0] * len(specs)

        def hook(op: str, path: Path, data: "bytes | None") -> None:
            for index, spec in enumerate(specs):
                if not spec.listens(op, path):
                    continue
                seen[index] += 1
                if seen[index] < spec.after:
                    continue
                if spec.times is not None and fired[index] >= spec.times:
                    continue
                fired[index] += 1
                _fire(spec, op, path, data, role)

        for op in HOOK_OPS:
            io_atomic.install_hook(op, hook)

    @staticmethod
    def uninstall() -> None:
        """Remove the installed durability hooks (idempotent)."""
        for op in HOOK_OPS:
            io_atomic.remove_hook(op)

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a comma-separated compact spec string (see module doc)."""
        specs = tuple(
            _parse_one(part) for part in text.split(",") if part.strip()
        )
        if not specs:
            raise SweepConfigError(
                f"fault plan {text!r} contains no fault specs"
            )
        return cls(specs)

    @classmethod
    def of(cls, *specs: FaultSpec) -> "FaultPlan":
        return cls(tuple(specs))

    def describe(self) -> str:
        return ",".join(spec.describe() for spec in self.specs)


def _fire(
    spec: FaultSpec, op: str, path: Path, data: "bytes | None", role: str
) -> None:
    if spec.kind == "slow-io":
        time.sleep(spec.ms / 1000.0)
        return
    if spec.kind == "stale-lease":
        raise HookSuppressed(f"chaos {spec.describe()}")
    if spec.kind == "disk-full":
        raise OSError(
            errno.ENOSPC,
            f"No space left on device (chaos {spec.describe()})",
        )
    where = f"at {op}"
    if spec.kind == "torn-write":
        # append a prefix of the record through a separate descriptor
        # (the real writer never runs): exactly what kill -9 between a
        # partial write(2) and its completion leaves on disk
        payload = data or b""
        torn = payload[: int(len(payload) * spec.frac)]
        if torn.endswith(b"\n"):
            torn = torn[:-1]
        try:
            with open(path, "ab") as stream:
                stream.write(torn)
                stream.flush()
                os.fsync(stream.fileno())
        except OSError:
            pass  # the death below is the observable effect
        where = f"after torn write ({spec.describe()} at {path.name})"
    if role == "worker":
        os._exit(CRASH_EXIT_STATUS)
    if spec.kind == "torn-write":
        raise ChaosCrash(f"injected coordinator crash {where}")
    raise ChaosCrash(
        f"injected coordinator crash ({spec.describe()} {where})"
    )
