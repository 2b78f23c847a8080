"""Structured fuzzing of the ``.mtx`` parser and the format codecs.

Copernicus decodes 14 formats, each with its own index invariants, and
parses a textual exchange format — a large attack surface for a public
endpoint.  This module generates *hostile* inputs deterministically
from a seed, executes them under a full exception trap, and classifies
every outcome with the same taxonomy the sandbox uses:

* ``ok`` — the input was actually valid and was processed;
* ``rejected`` — the library refused it with a typed
  :class:`~repro.errors.CopernicusError` (the desired outcome);
* ``oom`` — a ``MemoryError`` escaped (a dense-bomb got past the
  header checks; counts as a finding worth fixing but not a crash);
* ``crash`` — **an unhandled non-library exception** — the bug class
  fuzzing exists to find.

Two surfaces are fuzzed (:data:`FUZZ_KINDS`):

* ``mtx-*`` — malformed MatrixMarket bytes: garbage, header lies,
  dimension lies, index overflows, negative/duplicate coordinates,
  pathological aspect ratios, dense-bomb extents, truncations, and
  seeded mutations of valid files;
* ``enc-*`` — semantically-corrupted format encodings: plane
  corruption via :class:`~repro.formats.corrupt.StreamCorruptor`,
  meta/shape/nnz lies, and index overflows, replayed through
  ``validate_encoding`` → ``decode`` → ``spmv``.

Every crash gets a stable *signature* (exception type + deepest
in-library frame), a delta-debugged minimal reproducer
(:func:`minimize_case`), and a slot in the on-disk regression corpus
(``tests/corpus/``) that CI replays forever after.
"""

from __future__ import annotations

import json
import time
import traceback
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from random import Random

from ..errors import CopernicusError, FuzzError
from .sandbox import Sandbox

__all__ = [
    "CORPUS_SCHEMA",
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
]

#: Version tag of on-disk corpus entries.
CORPUS_SCHEMA = "fuzz_case/v1"

#: The fuzzing grammar: every generator kind.
FUZZ_KINDS = (
    "mtx-garbage",
    "mtx-header-lie",
    "mtx-dimension-lie",
    "mtx-index-overflow",
    "mtx-negative",
    "mtx-duplicate",
    "mtx-aspect",
    "mtx-dense-bomb",
    "mtx-truncate",
    "mtx-mutate",
    "enc-plane-corrupt",
    "enc-meta-lie",
    "enc-index-overflow",
)

#: Deep (profile/encode) execution is skipped in-process for matrices
#: larger than this extent (cells); the sandbox runs them instead.
DEEP_EXTENT_CAP = 1 << 22

#: Formats the encoding-surface kinds default to — every registered
#: format (resolved lazily to avoid import cycles).
_BANNER = "%%MatrixMarket matrix coordinate real general"


@dataclass(frozen=True)
class FuzzCase:
    """One deterministic hostile input.

    ``mtx`` carries the literal bytes for the ``mtx-*`` surface; the
    ``enc-*`` surface regenerates its encoding from ``(kind, seed,
    format_name)`` at execution time, so cases stay tiny on disk.
    """

    kind: str
    seed: int
    format_name: str = ""
    mtx: "str | None" = None

    def corpus_name(self) -> str:
        fmt = f"-{self.format_name}" if self.format_name else ""
        return f"{self.kind}{fmt}-{self.seed}.json"


@dataclass(frozen=True)
class CaseOutcome:
    """How one case came back: a verdict, never an exception."""

    case: FuzzCase
    kind: str
    error_type: str = ""
    detail: str = ""
    signature: str = ""
    deep_skipped: bool = False

    @property
    def crashed(self) -> bool:
        return self.kind == "crash"


@dataclass
class FuzzReport:
    """Aggregated results of one fuzzing run."""

    seed: int
    tried: int = 0
    wall_s: float = 0.0
    by_verdict: dict = field(default_factory=dict)
    by_kind: dict = field(default_factory=dict)
    crashes: list = field(default_factory=list)

    def record(self, outcome: CaseOutcome) -> None:
        self.tried += 1
        self.by_verdict[outcome.kind] = (
            self.by_verdict.get(outcome.kind, 0) + 1
        )
        self.by_kind[outcome.case.kind] = (
            self.by_kind.get(outcome.case.kind, 0) + 1
        )
        if outcome.crashed:
            self.crashes.append(outcome)

    @property
    def crash_signatures(self) -> "tuple[str, ...]":
        return tuple(sorted({o.signature for o in self.crashes}))

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "inputs_tried": self.tried,
            "wall_s": self.wall_s,
            "by_verdict": dict(sorted(self.by_verdict.items())),
            "by_kind": dict(sorted(self.by_kind.items())),
            "crashes": [
                {
                    "kind": o.case.kind,
                    "seed": o.case.seed,
                    "format": o.case.format_name,
                    "signature": o.signature,
                    "detail": o.detail[-500:],
                }
                for o in self.crashes
            ],
            "crash_signatures": list(self.crash_signatures),
        }


# ----------------------------------------------------------------------
# Generators (pure functions of the rng)
# ----------------------------------------------------------------------
def _valid_mtx(rng: Random, n_max: int = 12) -> str:
    """A small, valid coordinate file to mutate from."""
    n_rows = rng.randrange(2, n_max)
    n_cols = rng.randrange(2, n_max)
    cells = [(r, c) for r in range(n_rows) for c in range(n_cols)]
    rng.shuffle(cells)
    entries = sorted(cells[: rng.randrange(1, len(cells) // 2 + 2)])
    lines = [_BANNER, f"{n_rows} {n_cols} {len(entries)}"]
    for row, col in entries:
        lines.append(
            f"{row + 1} {col + 1} {rng.uniform(-2, 2):.3f}"
        )
    return "\n".join(lines) + "\n"


def _gen_garbage(rng: Random) -> str:
    choice = rng.randrange(4)
    if choice == 0:
        alphabet = "".join(chr(c) for c in range(32, 127)) + "\n\t"
        return "".join(
            rng.choice(alphabet) for _ in range(rng.randrange(0, 400))
        )
    if choice == 1:  # binary-ish garbage surviving a str round-trip
        return "".join(
            chr(rng.randrange(0, 0x2FF))
            for _ in range(rng.randrange(1, 200))
        )
    if choice == 2:  # a banner followed by nonsense
        return _BANNER + "\n" + "".join(
            rng.choice("0123456789 .-e\n")
            for _ in range(rng.randrange(1, 300))
        )
    return ""  # the empty file


def _gen_header_lie(rng: Random) -> str:
    base = _valid_mtx(rng)
    _, rest = base.split("\n", 1)
    headers = [
        "%%MatrixMarket matrix array real general",
        "%%MatrixMarket tensor coordinate real general",
        "%%MatrixMarket matrix coordinate complex general",
        "%%MatrixMarket matrix coordinate real hermitian",
        "%%MatrixMarket matrix coordinate real",
        "%%MatrixMarket matrix coordinate real general extra",
        "%%matrixmarket matrix coordinate real general",
        "%MatrixMarket matrix coordinate real general",
        "%%MatrixMarket matrix coordinate reäl general",
        "",
    ]
    return rng.choice(headers) + "\n" + rest


def _gen_dimension_lie(rng: Random) -> str:
    base = _valid_mtx(rng)
    lines = base.rstrip("\n").split("\n")
    n_rows, n_cols, n_entries = (int(x) for x in lines[1].split())
    choice = rng.randrange(5)
    if choice == 0:  # declare fewer entries than provided
        lines[1] = f"{n_rows} {n_cols} {max(0, n_entries - 1)}"
    elif choice == 1:  # declare more entries than provided
        lines[1] = f"{n_rows} {n_cols} {n_entries + rng.randrange(1, 5)}"
    elif choice == 2:  # shrink the declared shape under the entries
        lines[1] = f"1 1 {n_entries}"
    elif choice == 3:  # more declared entries than cells
        lines[1] = f"{n_rows} {n_cols} {n_rows * n_cols + 10}"
    else:  # non-numeric size line
        lines[1] = rng.choice(
            ["3 3", "3 3 4 5", "three 3 1", "3.0 3 1", ""]
        )
    return "\n".join(lines) + "\n"


def _gen_index_overflow(rng: Random) -> str:
    base = _valid_mtx(rng)
    lines = base.rstrip("\n").split("\n")
    target = rng.randrange(2, len(lines))
    parts = lines[target].split()
    huge = rng.choice(
        [2**31, 2**62, 2**63, 2**70, 10**30, 10**100]
    )
    parts[rng.randrange(2)] = str(huge + rng.randrange(3))
    lines[target] = " ".join(parts)
    if rng.random() < 0.5:  # also lie the shape up to match
        lines[1] = f"{huge + 9} {huge + 9} {len(lines) - 2}"
    return "\n".join(lines) + "\n"


def _gen_negative(rng: Random) -> str:
    base = _valid_mtx(rng)
    lines = base.rstrip("\n").split("\n")
    choice = rng.randrange(3)
    if choice == 0:  # negative declared dimension or count
        slot = rng.randrange(3)
        parts = lines[1].split()
        parts[slot] = str(-int(parts[slot]) - 1)
        lines[1] = " ".join(parts)
    else:  # negative coordinate (or zero — 1-based format)
        target = rng.randrange(2, len(lines))
        parts = lines[target].split()
        parts[rng.randrange(2)] = rng.choice(["-1", "0", "-999999"])
        lines[target] = " ".join(parts)
    return "\n".join(lines) + "\n"


def _gen_duplicate(rng: Random) -> str:
    base = _valid_mtx(rng)
    lines = base.rstrip("\n").split("\n")
    target = lines[rng.randrange(2, len(lines))]
    repeats = [target] * rng.randrange(1, 4)
    n_rows, n_cols, n_entries = (int(x) for x in lines[1].split())
    lines[1] = f"{n_rows} {n_cols} {n_entries + len(repeats)}"
    return "\n".join(lines + repeats) + "\n"


def _gen_aspect(rng: Random) -> str:
    long_side = rng.choice([10**6, 10**9, 2**31 - 1, 2**31, 2**40])
    flip = rng.random() < 0.5
    n_rows, n_cols = (1, long_side) if flip else (long_side, 1)
    entries = []
    for _ in range(rng.randrange(1, 4)):
        pos = rng.randrange(1, min(long_side, 10**6) + 1)
        entries.append(
            f"1 {pos} 1.0" if flip else f"{pos} 1 1.0"
        )
    return "\n".join(
        [_BANNER, f"{n_rows} {n_cols} {len(entries)}"] + entries
    ) + "\n"


def _gen_dense_bomb(rng: Random) -> str:
    side = rng.choice(
        [10**5, 10**6, 10**8, 2**31 - 1, 2**31, 2**35]
    )
    n_entries = rng.randrange(1, 4)
    entries = [
        f"{rng.randrange(1, min(side, 10**4) + 1)} "
        f"{rng.randrange(1, min(side, 10**4) + 1)} 1.0"
        for _ in range(n_entries)
    ]
    return "\n".join(
        [_BANNER, f"{side} {side} {n_entries}"] + entries
    ) + "\n"


def _gen_truncate(rng: Random) -> str:
    base = _valid_mtx(rng, n_max=16)
    cut = rng.randrange(len(_BANNER) + 1, len(base))
    return base[:cut]


def _gen_mutate(rng: Random) -> str:
    base = list(_valid_mtx(rng, n_max=16))
    for _ in range(rng.randrange(1, 6)):
        pos = rng.randrange(len(base))
        op = rng.randrange(3)
        if op == 0:
            base[pos] = chr(rng.randrange(32, 127))
        elif op == 1:
            base[pos] = ""
        else:
            base[pos] = base[pos] + rng.choice("0123456789 .-\n")
    return "".join(base)


_MTX_GENERATORS = {
    "mtx-garbage": _gen_garbage,
    "mtx-header-lie": _gen_header_lie,
    "mtx-dimension-lie": _gen_dimension_lie,
    "mtx-index-overflow": _gen_index_overflow,
    "mtx-negative": _gen_negative,
    "mtx-duplicate": _gen_duplicate,
    "mtx-aspect": _gen_aspect,
    "mtx-dense-bomb": _gen_dense_bomb,
    "mtx-truncate": _gen_truncate,
    "mtx-mutate": _gen_mutate,
}


def build_case(
    kind: str, seed: int, format_name: str = ""
) -> FuzzCase:
    """Deterministically materialize one case from its coordinates."""
    if kind in _MTX_GENERATORS:
        # zlib.crc32, not hash(): string hashing is randomized per
        # process and corpus cases must reproduce across processes.
        rng = Random(zlib.crc32(kind.encode("ascii")) * 2654435761 + seed)
        return FuzzCase(
            kind=kind,
            seed=seed,
            format_name=format_name,
            mtx=_MTX_GENERATORS[kind](rng),
        )
    if kind in FUZZ_KINDS:  # enc-* surface: rebuilt at execution
        if not format_name:
            raise FuzzError(
                f"{kind} cases require a format_name"
            )
        return FuzzCase(kind=kind, seed=seed, format_name=format_name)
    raise FuzzError(
        f"unknown fuzz kind {kind!r}; known: {', '.join(FUZZ_KINDS)}"
    )


# ----------------------------------------------------------------------
# Execution (in-process with a full trap, or through the sandbox)
# ----------------------------------------------------------------------
def _signature(error: BaseException) -> str:
    """Stable crash identity: type + deepest in-library frame."""
    frames = traceback.extract_tb(error.__traceback__)
    where = "?"
    for frame in reversed(frames):
        if "/repro/" in frame.filename.replace("\\", "/"):
            where = f"{Path(frame.filename).name}:{frame.name}"
            break
    return f"{type(error).__name__}@{where}"


def _hostile_encoding(case: FuzzCase):
    """Build the (deterministically damaged) encoding for an enc-*
    case.  Returns an :class:`~repro.formats.base.EncodedMatrix`;
    may itself raise — the caller traps."""
    import numpy as np

    from ..formats import get_format
    from ..formats.corrupt import CORRUPTION_KINDS, StreamCorruptor
    from ..workloads import random_matrix

    rng = Random(case.seed * 7919 + 13)
    matrix = random_matrix(
        rng.randrange(8, 25),
        round(rng.uniform(0.08, 0.3), 3),
        seed=case.seed % 1000,
    )
    fmt = get_format(case.format_name)
    encoded = fmt.encode(matrix)
    if case.kind == "enc-plane-corrupt":
        from ..formats.corrupt import CorruptionSpec

        spec = CorruptionSpec(
            kind=rng.choice(CORRUPTION_KINDS),
            ber=rng.choice([1e-3, 1e-2, 0.2]),
            fraction=rng.choice([0.1, 0.5, 0.9]),
        )
        corruptor = StreamCorruptor(seed=case.seed)
        return corruptor.corrupt_encoding(
            encoded, spec, key=("fuzz", case.kind, case.seed)
        )
    if case.kind == "enc-meta-lie":
        choice = rng.randrange(4)
        if choice == 0:  # extent lie: the declared shape explodes
            side = rng.choice([10**6, 2**31 - 1, 2**40, 10**18])
            return replace(encoded, shape=(side, side))
        if choice == 1:  # nnz lie
            return replace(
                encoded,
                nnz=rng.choice([-1, 0, 2**40, encoded.nnz + 7]),
            )
        if choice == 2:  # negative extent
            return replace(encoded, shape=(-4, encoded.n_cols))
        lied = {
            key: (value * 3 + 1 if isinstance(value, int) else value)
            for key, value in encoded.meta.items()
        }
        return replace(encoded, meta=lied)
    # enc-index-overflow: push one index plane out of the declared dims
    planes = dict(encoded.arrays)
    index_planes = [
        name
        for name, array in planes.items()
        if array.size
        and np.issubdtype(array.dtype, np.integer)
    ]
    if not index_planes:
        return replace(encoded, nnz=encoded.nnz + 1)
    plane = rng.choice(sorted(index_planes))
    damaged = planes[plane].copy()
    flat = damaged.reshape(-1)
    slot = rng.randrange(flat.size)
    info = np.iinfo(damaged.dtype)
    hostile = rng.choice(
        [2**31 - 1, max(encoded.n_rows, encoded.n_cols) + 7, -1]
    )
    # clamp into the plane's representable range — the goal is an
    # out-of-matrix index, not a numpy assignment error in the harness
    flat[slot] = min(max(hostile, int(info.min)), int(info.max))
    planes[plane] = damaged
    return replace(encoded, arrays=planes)


def _execute_mtx(case: FuzzCase, sandbox: "Sandbox | None") -> CaseOutcome:
    from ..io import loads

    try:
        matrix = loads(case.mtx or "")
    except CopernicusError as error:
        return CaseOutcome(
            case,
            "rejected",
            error_type=type(error).__name__,
            detail=str(error)[:500],
        )
    except MemoryError:
        return CaseOutcome(case, "oom", detail="MemoryError in parse")
    except Exception as error:  # noqa: BLE001 — the finding
        return CaseOutcome(
            case,
            "crash",
            error_type=type(error).__name__,
            detail=traceback.format_exc()[-2000:],
            signature=_signature(error),
        )
    # the parse accepted it: push deeper (profile + one encode)
    extent = matrix.n_rows * matrix.n_cols
    if extent > DEEP_EXTENT_CAP:
        if sandbox is None:
            return CaseOutcome(case, "ok", deep_skipped=True)
        verdict = sandbox.run(
            "profile", mtx=case.mtx, p=8
        )
        return CaseOutcome(
            case,
            verdict.kind,
            error_type=verdict.error_type,
            detail=verdict.detail,
            signature=(
                f"sandbox:{verdict.error_type or verdict.kind}"
                if verdict.kind == "crash"
                else ""
            ),
        )
    try:
        from ..formats import get_format
        from ..formats.validate import validate_encoding
        from ..partition import profile_table

        profile_table(matrix, 8)
        fmt = get_format(
            case.format_name or ("csr", "ell", "dia")[case.seed % 3]
        )
        encoded = fmt.encode(matrix)
        validate_encoding(encoded)
        return CaseOutcome(case, "ok")
    except CopernicusError as error:
        return CaseOutcome(
            case,
            "rejected",
            error_type=type(error).__name__,
            detail=str(error)[:500],
        )
    except MemoryError:
        return CaseOutcome(case, "oom", detail="MemoryError in deep op")
    except Exception as error:  # noqa: BLE001 — the finding
        return CaseOutcome(
            case,
            "crash",
            error_type=type(error).__name__,
            detail=traceback.format_exc()[-2000:],
            signature=_signature(error),
        )


def _execute_encoding(case: FuzzCase) -> CaseOutcome:
    from ..formats import get_format
    from ..formats.validate import validate_encoding

    try:
        encoded = _hostile_encoding(case)
        validate_encoding(encoded)
        # validation accepted the damaged stream: decode and multiply
        # only when the declared extent is honest enough to afford
        if encoded.n_rows * encoded.n_cols <= DEEP_EXTENT_CAP:
            import numpy as np

            fmt = get_format(case.format_name)
            # a corrupted values plane may hold inf/NaN: non-finite
            # arithmetic is the stimulus here, not a finding
            with np.errstate(invalid="ignore", over="ignore"):
                fmt.decode(encoded)
                fmt.spmv(
                    encoded,
                    np.ones(max(encoded.n_cols, 0), dtype=np.float64),
                )
        return CaseOutcome(case, "ok")
    except CopernicusError as error:
        return CaseOutcome(
            case,
            "rejected",
            error_type=type(error).__name__,
            detail=str(error)[:500],
        )
    except MemoryError:
        return CaseOutcome(
            case, "oom", detail="MemoryError in codec path"
        )
    except Exception as error:  # noqa: BLE001 — the finding
        return CaseOutcome(
            case,
            "crash",
            error_type=type(error).__name__,
            detail=traceback.format_exc()[-2000:],
            signature=_signature(error),
        )


def execute_case(
    case: FuzzCase, sandbox: "Sandbox | None" = None
) -> CaseOutcome:
    """Run one case; always returns a typed outcome, never raises.

    With a ``sandbox``, big-extent matrices that pass parsing get
    their deep (profile) stage executed under resource caps; without
    one the deep stage is skipped for them (``deep_skipped``).
    """
    if case.kind.startswith("mtx-"):
        return _execute_mtx(case, sandbox)
    return _execute_encoding(case)


# ----------------------------------------------------------------------
# The fuzzing loop
# ----------------------------------------------------------------------
def _all_formats() -> "tuple[str, ...]":
    from ..formats.registry import ALL_FORMATS

    return ALL_FORMATS


def fuzz_run(
    seed: int,
    *,
    n_cases: "int | None" = None,
    budget_s: "float | None" = None,
    kinds: "tuple[str, ...]" = FUZZ_KINDS,
    formats: "tuple[str, ...] | None" = None,
    sandbox: "Sandbox | None" = None,
) -> FuzzReport:
    """Fuzz until ``n_cases`` inputs or ``budget_s`` seconds are
    spent (whichever comes first; one of the two is required)."""
    if n_cases is None and budget_s is None:
        raise FuzzError("pass n_cases and/or budget_s")
    if n_cases is not None and n_cases < 1:
        raise FuzzError(f"n_cases must be >= 1, got {n_cases}")
    if budget_s is not None and budget_s <= 0:
        raise FuzzError(f"budget_s must be > 0, got {budget_s}")
    unknown = [k for k in kinds if k not in FUZZ_KINDS]
    if unknown:
        raise FuzzError(
            f"unknown fuzz kinds: {', '.join(map(repr, unknown))}"
        )
    formats = tuple(formats) if formats is not None else _all_formats()
    report = FuzzReport(seed=seed)
    started = time.perf_counter()
    index = 0
    while True:
        if n_cases is not None and report.tried >= n_cases:
            break
        if (
            budget_s is not None
            and time.perf_counter() - started >= budget_s
        ):
            break
        kind = kinds[index % len(kinds)]
        case_seed = seed * 1_000_003 + index
        format_name = (
            formats[index % len(formats)]
            if kind.startswith("enc-")
            else ""
        )
        case = build_case(kind, case_seed, format_name)
        report.record(execute_case(case, sandbox=sandbox))
        index += 1
    report.wall_s = time.perf_counter() - started
    return report


# ----------------------------------------------------------------------
# Delta-debugging minimizer
# ----------------------------------------------------------------------
def _outcome_signature(outcome: CaseOutcome) -> str:
    """What the minimizer must preserve."""
    if outcome.crashed:
        return outcome.signature
    return f"{outcome.kind}:{outcome.error_type}"


def minimize_case(
    case: FuzzCase, max_rounds: int = 12
) -> FuzzCase:
    """Shrink an ``mtx-*`` case while preserving its outcome signature.

    Classic ddmin over lines, then characters.  Non-text cases (the
    ``enc-*`` surface) come back unchanged — they are already minimal,
    being coordinates rather than bytes.
    """
    if case.mtx is None:
        return case
    target = _outcome_signature(execute_case(case))

    def still_fails(text: str) -> bool:
        candidate = FuzzCase(
            kind=case.kind,
            seed=case.seed,
            format_name=case.format_name,
            mtx=text,
        )
        return _outcome_signature(execute_case(candidate)) == target

    text = case.mtx
    for split in ("\n", ""):
        chunks = text.split(split) if split else list(text)
        granularity = 2
        rounds = 0
        while len(chunks) >= 2 and rounds < max_rounds:
            rounds += 1
            size = max(1, len(chunks) // granularity)
            shrunk = False
            start = 0
            while start < len(chunks):
                candidate = chunks[:start] + chunks[start + size:]
                joined = split.join(candidate)
                if candidate and still_fails(joined):
                    chunks = candidate
                    shrunk = True
                else:
                    start += size
            if not shrunk:
                if granularity >= len(chunks):
                    break
                granularity = min(len(chunks), granularity * 2)
        text = split.join(chunks)
    return FuzzCase(
        kind=case.kind,
        seed=case.seed,
        format_name=case.format_name,
        mtx=text,
    )


# ----------------------------------------------------------------------
# The on-disk regression corpus
# ----------------------------------------------------------------------
def save_case(corpus_dir: "str | Path", case: FuzzCase) -> Path:
    """Write one case into the corpus (atomic, canonical JSON)."""
    from .. import io_atomic

    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    path = corpus_dir / case.corpus_name()
    payload = {
        "schema": CORPUS_SCHEMA,
        "kind": case.kind,
        "seed": case.seed,
        "format": case.format_name,
        "mtx": case.mtx,
    }
    io_atomic.atomic_write_json(path, payload)
    return path


def load_corpus(corpus_dir: "str | Path") -> "list[FuzzCase]":
    """Every case in the corpus, sorted by file name."""
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        return []
    cases: list[FuzzCase] = []
    for path in sorted(corpus_dir.glob("*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise FuzzError(
                f"corrupt corpus entry {path}: {error}"
            ) from error
        if payload.get("schema") != CORPUS_SCHEMA:
            raise FuzzError(
                f"corpus entry {path} has schema "
                f"{payload.get('schema')!r}, expected {CORPUS_SCHEMA!r}"
            )
        if payload.get("kind") not in FUZZ_KINDS:
            raise FuzzError(
                f"corpus entry {path} has unknown kind "
                f"{payload.get('kind')!r}"
            )
        cases.append(
            FuzzCase(
                kind=payload["kind"],
                seed=int(payload.get("seed", 0)),
                format_name=str(payload.get("format", "")),
                mtx=payload.get("mtx"),
            )
        )
    return cases


def replay_corpus(
    corpus_dir: "str | Path", sandbox: "Sandbox | None" = None
) -> FuzzReport:
    """Re-execute every corpus case; crashes mean a regression."""
    report = FuzzReport(seed=0)
    started = time.perf_counter()
    for case in load_corpus(corpus_dir):
        report.record(execute_case(case, sandbox=sandbox))
    report.wall_s = time.perf_counter() - started
    return report
