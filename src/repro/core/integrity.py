"""Detection-coverage characterization of the stream-integrity layer.

The framing layer (:mod:`repro.formats.integrity`) claims two things:
structural validation catches malformed encodings, and the per-plane
CRC catches payload damage that stays structurally plausible.  This
module *measures* those claims with a seeded corruption campaign:

1. the workload matrix is tiled exactly as the streaming pipeline
   would stream it (:func:`repro.partition.partition_matrix`), and
   every non-zero tile is encoded and framed per format;
2. for every (format, corruption kind) pair, ``injections`` damaged
   copies of those frames are produced by a
   :class:`~repro.formats.corrupt.StreamCorruptor` — bit flips at a
   target BER, truncated bursts, tampered header/plane words;
3. each damaged frame runs through the strict decode path and is
   classified into exactly one outcome:

   ``structural``
       :func:`~repro.formats.integrity.unframe` (CRC off) or strict
       :func:`~repro.formats.integrity.safe_decode` raised a
       :class:`~repro.errors.CopernicusError` — the damage broke the
       container or the encoding invariants.
   ``crc``
       The stream parsed and validated, but a frame checksum
       mismatched — the payload damage only the CRC could see.
   ``silent``
       Every check passed yet the decoded matrix differs from the
       pristine tile: undetected corruption, the number the
       experiment exists to expose.
   ``harmless``
       Every check passed and the decode is bit-identical (the
       injection hit padding or was masked by the encoding).

   Any exception that is *not* a :class:`~repro.errors.CopernicusError`
   counts as ``uncaught`` — a hardening bug, asserted zero by the
   test suite.

4. per partition size, the campaign also prices the detection: the
   streaming pipeline's cycle count with and without the
   :class:`~repro.hardware.IntegrityCheckModel` in the memory-read
   stage, plus the raw-vs-framed transfer byte overhead.

Everything derives from ``(seed, injection index)``, so a campaign is
a pure function of its arguments: same seed, same report, bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import CopernicusError
from ..formats.base import EncodedMatrix
from ..formats.corrupt import (
    CORRUPTION_KINDS,
    CorruptionSpec,
    StreamCorruptor,
)
from ..formats.integrity import frame, safe_decode, unframe
from ..formats.registry import ALL_FORMATS, get_format
from ..hardware.config import DEFAULT_CONFIG, HardwareConfig
from ..hardware.decompressors import MODELED_FORMATS, VARIANT_FORMATS
from ..hardware.pipeline import StreamingPipeline
from ..matrix import SparseMatrix
from ..partition import partition_matrix, profile_table

__all__ = [
    "CLASSIFICATIONS",
    "KindCoverage",
    "CheckOverhead",
    "FormatIntegritySummary",
    "IntegrityReport",
    "classify_damaged_frame",
    "run_integrity_campaign",
]

#: Mutually exclusive outcomes of one injection, in report order.
CLASSIFICATIONS = ("structural", "crc", "harmless", "silent", "uncaught")

#: Per-kind corruption rules the campaign injects.  Bit flips target
#: the payload (the span the CRC guards); truncation and tampering hit
#: the whole frame, so header damage is exercised too.
_CAMPAIGN_SPECS = {
    "bitflip": CorruptionSpec("bitflip", plane="payload", ber=1e-3),
    "truncate": CorruptionSpec("truncate", plane="*", fraction=0.25),
    "tamper": CorruptionSpec("tamper", plane="*"),
}


@dataclass(frozen=True)
class KindCoverage:
    """Classification counts for one (format, corruption kind)."""

    kind: str
    injections: int
    structural: int = 0
    crc: int = 0
    harmless: int = 0
    silent: int = 0
    uncaught: int = 0

    @property
    def detected(self) -> int:
        return self.structural + self.crc

    @property
    def detected_fraction(self) -> float:
        if self.injections == 0:
            return 0.0
        return self.detected / self.injections

    @property
    def silent_fraction(self) -> float:
        if self.injections == 0:
            return 0.0
        return self.silent / self.injections

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "injections": self.injections,
            "structural": self.structural,
            "crc": self.crc,
            "harmless": self.harmless,
            "silent": self.silent,
            "uncaught": self.uncaught,
            "detected_fraction": self.detected_fraction,
        }


@dataclass(frozen=True)
class CheckOverhead:
    """Pipeline cycle cost of in-line integrity checking at one ``p``."""

    partition_size: int
    base_cycles: int
    checked_cycles: int

    @property
    def overhead_cycles(self) -> int:
        return self.checked_cycles - self.base_cycles

    @property
    def overhead_fraction(self) -> float:
        if self.base_cycles == 0:
            return 0.0
        return self.overhead_cycles / self.base_cycles

    def to_dict(self) -> dict:
        return {
            "partition_size": self.partition_size,
            "base_cycles": self.base_cycles,
            "checked_cycles": self.checked_cycles,
            "overhead_fraction": self.overhead_fraction,
        }


@dataclass(frozen=True)
class FormatIntegritySummary:
    """One format's detection coverage and integrity cost."""

    format_name: str
    n_tiles: int
    coverage: tuple[KindCoverage, ...]
    raw_bytes: int
    framed_bytes: int
    check_overheads: tuple[CheckOverhead, ...] = ()

    @property
    def injections(self) -> int:
        return sum(kc.injections for kc in self.coverage)

    @property
    def uncaught(self) -> int:
        return sum(kc.uncaught for kc in self.coverage)

    @property
    def silent(self) -> int:
        return sum(kc.silent for kc in self.coverage)

    @property
    def detected_fraction(self) -> float:
        total = self.injections
        if total == 0:
            return 0.0
        return sum(kc.detected for kc in self.coverage) / total

    @property
    def framing_overhead_fraction(self) -> float:
        if self.raw_bytes == 0:
            return 0.0
        return (self.framed_bytes - self.raw_bytes) / self.raw_bytes

    def kind(self, name: str) -> KindCoverage:
        for kc in self.coverage:
            if kc.kind == name:
                return kc
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "format": self.format_name,
            "n_tiles": self.n_tiles,
            "raw_bytes": self.raw_bytes,
            "framed_bytes": self.framed_bytes,
            "framing_overhead_fraction": self.framing_overhead_fraction,
            "coverage": [kc.to_dict() for kc in self.coverage],
            "check_overheads": [
                co.to_dict() for co in self.check_overheads
            ],
        }


@dataclass(frozen=True)
class IntegrityReport:
    """The full campaign output: one summary per format."""

    shape: tuple[int, int]
    nnz: int
    seed: int
    injections_per_kind: int
    kinds: tuple[str, ...]
    partition_sizes: tuple[int, ...]
    summaries: tuple[FormatIntegritySummary, ...] = field(default=())

    @property
    def total_injections(self) -> int:
        return sum(s.injections for s in self.summaries)

    @property
    def total_uncaught(self) -> int:
        return sum(s.uncaught for s in self.summaries)

    def summary_for(self, format_name: str) -> FormatIntegritySummary:
        for summary in self.summaries:
            if summary.format_name == format_name:
                return summary
        raise KeyError(format_name)

    def to_dict(self) -> dict:
        return {
            "shape": list(self.shape),
            "nnz": self.nnz,
            "seed": self.seed,
            "injections_per_kind": self.injections_per_kind,
            "kinds": list(self.kinds),
            "partition_sizes": list(self.partition_sizes),
            "total_injections": self.total_injections,
            "total_uncaught": self.total_uncaught,
            "formats": [s.to_dict() for s in self.summaries],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)


# ----------------------------------------------------------------------
# Classification of one damaged frame
# ----------------------------------------------------------------------
def classify_damaged_frame(damaged: bytes, truth: SparseMatrix) -> str:
    """Strict-mode fate of one damaged frame (one of CLASSIFICATIONS).

    The CRC surface is separated from the structural surface by
    parsing twice: once with checksums off (isolating container and
    encoding invariants) and once with them on.  A checksum mismatch
    on an otherwise valid stream is what the CRC — and only the
    CRC — bought.
    """
    # bit-flipped float payloads legitimately decode to inf/nan;
    # canonicalization sums them, which is not an FP error here
    with np.errstate(all="ignore"):
        return _classify(damaged, truth)


def _classify(damaged: bytes, truth: SparseMatrix) -> str:
    try:
        try:
            encoded = unframe(damaged, verify_crc=False)
        except CopernicusError:
            return "structural"
        crc_hit = False
        try:
            unframe(damaged, verify_crc=True)
        except CopernicusError:
            crc_hit = True
        try:
            decoded = safe_decode(encoded)
        except CopernicusError:
            return "crc" if crc_hit else "structural"
        if crc_hit:
            return "crc"
        return "harmless" if decoded == truth else "silent"
    except Exception:  # noqa: BLE001 — a non-taxonomy escape is the finding
        return "uncaught"


def _campaign_spec(kind: str) -> CorruptionSpec:
    if kind in _CAMPAIGN_SPECS:
        return _CAMPAIGN_SPECS[kind]
    return CorruptionSpec(kind)


def _format_tiles(
    matrix: SparseMatrix,
    format_name: str,
    partition_sizes: tuple[int, ...],
) -> tuple[list[SparseMatrix], list[EncodedMatrix], list[bytes]]:
    """Every non-zero tile of ``matrix``, encoded and framed."""
    codec = get_format(format_name)
    truths: list[SparseMatrix] = []
    encodings: list[EncodedMatrix] = []
    frames: list[bytes] = []
    for p in partition_sizes:
        for partition in partition_matrix(matrix, p):
            encoded = codec.encode(partition.block)
            truths.append(codec.decode(encoded))
            encodings.append(encoded)
            frames.append(frame(encoded))
    return truths, encodings, frames


def _check_overheads(
    matrix: SparseMatrix,
    format_name: str,
    partition_sizes: tuple[int, ...],
    config: HardwareConfig,
) -> tuple[CheckOverhead, ...]:
    """Checked-vs-unchecked pipeline cycles per partition size."""
    if (
        format_name not in MODELED_FORMATS
        and format_name not in VARIANT_FORMATS
    ):
        return ()
    overheads = []
    for p in partition_sizes:
        base_config = replace(
            config.with_partition_size(p), integrity_check=False
        )
        checked_config = replace(base_config, integrity_check=True)
        table = profile_table(
            matrix, p, block_size=base_config.block_size
        )
        base = StreamingPipeline(base_config, format_name).run(table)
        checked = StreamingPipeline(checked_config, format_name).run(table)
        overheads.append(
            CheckOverhead(
                partition_size=p,
                base_cycles=base.total_cycles,
                checked_cycles=checked.total_cycles,
            )
        )
    return tuple(overheads)


def run_integrity_campaign(
    matrix: SparseMatrix,
    format_names: tuple[str, ...] = ALL_FORMATS,
    partition_sizes: tuple[int, ...] = (8,),
    kinds: tuple[str, ...] = CORRUPTION_KINDS,
    injections: int = 60,
    seed: int = 0,
    config: HardwareConfig = DEFAULT_CONFIG,
) -> IntegrityReport:
    """Measure detection coverage of the framed decode path.

    ``injections`` is per (format, kind); the report therefore holds
    ``len(kinds) * injections`` classified injections per format.
    Injection ``i`` of a kind targets tile ``i mod n_tiles``, cycling
    through every framed tile of every requested partition size.
    """
    corruptor = StreamCorruptor(seed=seed)
    summaries = []
    for format_name in format_names:
        truths, encodings, frames = _format_tiles(
            matrix, format_name, partition_sizes
        )
        raw_bytes = sum(
            sum(array.nbytes for array in encoded.arrays.values())
            for encoded in encodings
        )
        framed_bytes = sum(len(data) for data in frames)
        coverage = []
        for kind in kinds:
            spec = _campaign_spec(kind)
            counts = dict.fromkeys(CLASSIFICATIONS, 0)
            n_injections = injections if frames else 0
            for index in range(n_injections):
                tile = index % len(frames)
                damaged = corruptor.corrupt_frame(
                    frames[tile], spec, key=(format_name, kind, index)
                )
                counts[classify_damaged_frame(damaged, truths[tile])] += 1
            coverage.append(
                KindCoverage(kind=kind, injections=n_injections, **counts)
            )
        summaries.append(
            FormatIntegritySummary(
                format_name=format_name,
                n_tiles=len(frames),
                coverage=tuple(coverage),
                raw_bytes=raw_bytes,
                framed_bytes=framed_bytes,
                check_overheads=_check_overheads(
                    matrix, format_name, partition_sizes, config
                ),
            )
        )
    return IntegrityReport(
        shape=matrix.shape,
        nnz=matrix.nnz,
        seed=seed,
        injections_per_kind=injections,
        kinds=tuple(kinds),
        partition_sizes=tuple(partition_sizes),
        summaries=tuple(summaries),
    )
