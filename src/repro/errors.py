"""Exception hierarchy for the Copernicus reproduction library.

Every error raised by this package derives from :class:`CopernicusError`,
so callers can catch one type to handle any library failure.
"""

from __future__ import annotations


class CopernicusError(Exception):
    """Base class for all errors raised by this library."""


class FormatError(CopernicusError):
    """A sparse-format encode/decode operation failed or was invalid."""


class FormatIntegrityError(FormatError):
    """An encoded stream failed an integrity check.

    The structured counterpart of the free-text :class:`FormatError`
    messages raised by :mod:`repro.formats.validate`: every check names
    the format, the plane (array) it inspected, a stable check id, the
    offending element offset when one is attributable, and the *kind*
    of violation (``"crc"``, ``"truncation"``, ``"bounds"``,
    ``"monotonicity"``, ``"duplicate"``, ``"padding"``, ...), so
    corruption campaigns can aggregate detections by taxonomy instead
    of string-matching messages.  Subclasses :class:`FormatError`, so
    pre-existing ``except FormatError`` callers keep working.
    """

    def __init__(
        self,
        message: str,
        *,
        format_name: str = "",
        plane: str = "",
        check: str = "",
        offset: "int | None" = None,
        kind: str = "structure",
    ) -> None:
        self.format_name = format_name
        self.plane = plane
        self.check = check
        self.offset = offset
        self.kind = kind
        where = format_name or "stream"
        if plane:
            where = f"{where}.{plane}"
        if offset is not None:
            where = f"{where}[{offset}]"
        tag = f"[{kind}:{check}] " if check else f"[{kind}] "
        super().__init__(f"invalid encoding: {tag}{where}: {message}")

    def __reduce__(self):  # keep the taxonomy across process boundaries
        return (
            _rebuild_integrity_error,
            (
                self.args[0],
                self.format_name,
                self.plane,
                self.check,
                self.offset,
                self.kind,
            ),
        )


def _rebuild_integrity_error(
    message: str,
    format_name: str,
    plane: str,
    check: str,
    offset: "int | None",
    kind: str,
) -> FormatIntegrityError:
    """Unpickle helper: rebuild without re-deriving the message."""
    error = FormatIntegrityError.__new__(FormatIntegrityError)
    Exception.__init__(error, message)
    error.format_name = format_name
    error.plane = plane
    error.check = check
    error.offset = offset
    error.kind = kind
    return error


class ValidationError(FormatIntegrityError):
    """An encoding's declared extents cannot be trusted.

    The dense-bomb guard: raised by
    :func:`repro.formats.validate.validate_encoding` *before* any
    allocation whose size is derived from attacker-controlled headers
    (declared dimensions, nnz, plane widths), so a hostile encoding
    that lies about its extent is refused at header-inspection cost,
    never at allocation cost.  ``reason`` is a stable machine-readable
    tag (``"negative-extent"``, ``"extent-overflow"``,
    ``"nnz-overflow"``, ...); the usual
    :class:`FormatIntegrityError` taxonomy fields are also populated,
    so pre-existing ``except FormatError`` callers keep working.
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str,
        format_name: str = "",
        plane: str = "",
        offset: "int | None" = None,
    ) -> None:
        self.reason = reason
        super().__init__(
            message,
            format_name=format_name,
            plane=plane,
            check=reason,
            offset=offset,
            kind="extent",
        )

    def __reduce__(self):  # keep the reason across process boundaries
        return (
            _rebuild_validation_error,
            (
                self.args[0],
                self.reason,
                self.format_name,
                self.plane,
                self.offset,
            ),
        )


def _rebuild_validation_error(
    message: str,
    reason: str,
    format_name: str,
    plane: str,
    offset: "int | None",
) -> ValidationError:
    """Unpickle helper: rebuild without re-deriving the message."""
    error = ValidationError.__new__(ValidationError)
    Exception.__init__(error, message)
    error.reason = reason
    error.format_name = format_name
    error.plane = plane
    error.check = reason
    error.offset = offset
    error.kind = "extent"
    return error


class UnknownFormatError(FormatError):
    """A format name was not found in the registry."""

    def __init__(self, name: str, known: tuple[str, ...]) -> None:
        self.name = name
        self.known = known
        super().__init__(
            f"unknown sparse format {name!r}; known formats: {', '.join(known)}"
        )


class ShapeError(CopernicusError):
    """An array or matrix had an incompatible shape."""


class PartitionError(CopernicusError):
    """Matrix partitioning was requested with invalid parameters."""


class WorkloadError(CopernicusError):
    """A workload generator received invalid parameters."""


class HardwareConfigError(CopernicusError):
    """The hardware model was configured with invalid parameters."""


class SimulationError(CopernicusError):
    """The characterization simulator could not complete a run."""


class SweepConfigError(SimulationError, ValueError):
    """The sweep engine was configured with invalid parameters.

    Derives from both :class:`CopernicusError` (via
    :class:`SimulationError`) and :class:`ValueError`, so the CLI can
    report it cleanly while ``except ValueError`` callers keep working.
    """


class ObservabilityError(CopernicusError):
    """A metrics or telemetry operation failed."""


class ManifestError(ObservabilityError):
    """A run manifest could not be written, read or interpreted."""


class WorkerCrashError(SimulationError):
    """A sweep worker process died (or was fenced off) mid-chunk.

    Raised in the parent when a ``ProcessPoolExecutor`` worker
    disappears and the lost cells cannot be recovered within the retry
    budget; raised directly by the fault-injection harness when a
    ``crash`` fault trips on the in-process path (where actually
    killing the process would take the whole run down with it).
    """


class CheckpointError(CopernicusError):
    """A sweep checkpoint file could not be written, read or trusted."""


class QueueError(SimulationError):
    """A distributed work-queue directory is missing, stale or corrupt.

    Raised when a worker is pointed at a directory that is not a queue
    (or one created by an incompatible schema), when a content blob a
    :class:`~repro.engine.distributed.StoredWorkload` refers to has
    vanished, or when the coordinator finds the queue in a state it
    cannot reconcile.
    """


class ChaosError(SimulationError):
    """A chaos campaign was misconfigured or an injected crash fired.

    Recovery failures are not raised: they are recorded as schedule
    violations and gated through the ``bench/v2`` envelope.
    """


class ChaosCrash(ChaosError):
    """An injected coordinator-side crash (the fault *firing*).

    The coordinator analog of a worker's ``os._exit``: raised at the
    chaos-chosen instant so the campaign harness regains control with
    the on-disk state exactly as a real crash would leave it.  Never a
    test failure by itself — recovery from it is what gets gated.
    """


class DoctorError(SimulationError):
    """``repro doctor`` could not audit the given state directory."""


class ServeError(CopernicusError):
    """The characterization server (or its client) failed.

    Every subclass carries an HTTP ``status`` so the server can map a
    raised error to a structured JSON response without inspecting
    types, and so the taxonomy doubles as the wire contract: the
    ``error.type`` field of a ``serve/v1`` error payload is the
    exception class name.  Refusals (429 and the 503s) also carry
    ``retry_after_s``, which the server renders as ``Retry-After``.
    """

    status: int = 500
    #: Seconds a refused client should wait; ``None`` for errors that
    #: are not refusals (no ``Retry-After`` header).
    retry_after_s: "float | None" = None


class ServeRequestError(ServeError):
    """A query was malformed or referenced unknown formats/workloads."""

    status = 400


class ServeOverloadedError(ServeError):
    """Admission control rejected the request (queue full)."""

    status = 429
    retry_after_s = 1.0


class ServeBudgetError(ServeError):
    """The per-request time budget expired with no degradable answer."""

    status = 504


class ServeDrainingError(ServeError):
    """The server is draining (SIGTERM/SIGINT) and sheds this request.

    Distinct from :class:`ServeOverloadedError`: a 429 invites the
    client to retry the same server after backoff, while a drain 503
    means this process is going away and the client should fail over.
    """

    status = 503
    retry_after_s = 1.0


class ServeCircuitOpenError(ServeError):
    """A route's circuit breaker is open and sheds this request.

    The backend behind the route failed repeatedly and recently; the
    server answers 503 with ``Retry-After`` set to the breaker's
    remaining recovery time instead of feeding more work into a
    failing dependency.  Distinct from
    :class:`ServeOverloadedError` (429: healthy but full) and
    :class:`ServeDrainingError` (503: process going away).
    """

    status = 503

    def __init__(self, message: str, retry_after_s: float) -> None:
        self.retry_after_s = retry_after_s
        super().__init__(message)


class ServeShedError(ServeError):
    """SLO-aware load shedding refused this request.

    Raised when the rolling request p99 latency has crossed the
    configured SLO and this request's priority class is below the
    current shed line.  Clients retry after ``Retry-After``;
    higher-priority traffic keeps flowing.
    """

    status = 503
    retry_after_s = 1.0


class ServeSandboxError(ServeError):
    """An untrusted matrix failed the sandbox boundary.

    The poison-matrix verdict: parsing/profiling the submitted matrix
    in the resource-sandboxed subprocess ended in something other than
    ``ok`` (timeout, oom, oversize, crash, or a typed rejection), so
    the server refuses the query instead of letting the matrix near a
    serve worker.  Carries the verdict kind for the structured body.
    """

    status = 400

    def __init__(self, message: str, verdict_kind: str = "") -> None:
        self.verdict_kind = verdict_kind
        super().__init__(message)


class LoadGenError(ServeError):
    """The load generator could not complete its run."""

    status = 500


class GuardError(CopernicusError):
    """The untrusted-input defense layer (``repro.guard``) failed.

    Base class for sandbox/fuzz infrastructure errors — *not* for the
    hostile inputs themselves, which always come back as typed
    verdicts, never as exceptions.
    """


class SandboxError(GuardError):
    """The sandbox harness itself misbehaved (not the sandboxed input).

    Raised for infrastructure failures: a child that cannot be
    spawned, a protocol violation on the verdict pipe, limits that are
    not satisfiable.  A hostile input can never raise this — it gets a
    :class:`~repro.guard.sandbox.ResourceVerdict` instead.
    """


class FuzzError(GuardError):
    """The fuzzing subsystem was misconfigured or a corpus is corrupt."""


class BenchGateError(CopernicusError):
    """A ``bench/v2`` report failed one or more of its gates.

    Raised only after the report is on disk, so the failing run can
    be inspected; the message names every failed gate with its
    measured value and bound.
    """


class SweepCellError(SimulationError):
    """One cell of a sweep grid failed.

    Carries the failing cell's (workload, format, partition size)
    coordinates so a failure inside a worker process still names the
    exact experiment that died, plus — because exception chains do not
    survive pickling across the process boundary — the formatted
    worker-side traceback (``traceback_text``) and the workload's
    recipe digest (``recipe_digest``) so the failure is debuggable and
    attributable from the parent process.
    """

    def __init__(
        self,
        coords: tuple[str, str, int],
        reason: str,
        traceback_text: str = "",
        recipe_digest: str = "",
        attempts: int = 1,
    ) -> None:
        self.coords = tuple(coords)
        self.reason = reason
        self.traceback_text = traceback_text
        self.recipe_digest = recipe_digest
        self.attempts = attempts
        recipe = f", recipe={recipe_digest[:12]}" if recipe_digest else ""
        super().__init__(
            f"sweep cell (workload={coords[0]!r}, format={coords[1]!r}, "
            f"p={coords[2]}{recipe}) failed: {reason}"
        )

    def __reduce__(self):  # keep every attribute across process boundaries
        return (
            SweepCellError,
            (
                self.coords,
                self.reason,
                self.traceback_text,
                self.recipe_digest,
                self.attempts,
            ),
        )
