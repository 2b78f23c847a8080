"""Deterministic, seeded corruption of encoded sparse streams.

The counterpart of :mod:`repro.formats.integrity`: where that module
*detects* damage, this one *injects* it — reproducibly, so a detection
coverage experiment is a pure function of its seed.  Corruption specs
reuse the compact selector grammar of :mod:`repro.engine.faults`
(``kind@target#key=value``)::

    bitflip@payload#ber=0.001     # payload bit flips at a target BER
    bitflip@values                # flips confined to one plane
    truncate@*#fraction=0.25      # drop a tail chunk of the frame
    truncate@indices              # splice bytes out of one plane
    tamper@header                 # overwrite a header word
    tamper@offsets                # overwrite one word of a plane

Two injection surfaces are supported: :meth:`StreamCorruptor.
corrupt_frame` mutates the *serialized* container (what DDR bit flips
and truncated bursts do), and :meth:`StreamCorruptor.corrupt_encoding`
mutates the in-memory planes directly (what the hypothesis property
suite and the sweep-engine ``corrupt`` fault use, where no frame
exists).  Both derive their randomness from ``(seed, injection key)``
alone — same seed, same damage, every run.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from ..errors import FormatError, SweepConfigError
from .base import EncodedMatrix
from .integrity import FrameLayout, frame_layout

__all__ = [
    "CORRUPTION_KINDS",
    "CorruptionSpec",
    "StreamCorruptor",
    "parse_corruption",
]

#: Supported corruption kinds.
CORRUPTION_KINDS: tuple[str, ...] = ("bitflip", "truncate", "tamper")

#: Selector targeting the whole frame / any plane.
ANY_PLANE = "*"


@dataclass(frozen=True)
class CorruptionSpec:
    """One reproducible corruption rule.

    Attributes
    ----------
    kind:
        ``bitflip`` (random bit flips at ``ber``), ``truncate`` (drop
        a ``fraction``-sized tail), or ``tamper`` (overwrite one
        word/field with an adversarial value).
    plane:
        Target selector: a plane name, ``"header"`` / ``"payload"``
        (frame surface only), or ``"*"`` for the whole stream.
    ber:
        Bit-error rate for ``bitflip``; at least one bit always flips.
    fraction:
        Tail fraction removed by ``truncate`` (upper bound; the exact
        cut length is drawn per injection).
    """

    kind: str
    plane: str = ANY_PLANE
    ber: float = 1e-3
    fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.kind not in CORRUPTION_KINDS:
            raise SweepConfigError(
                f"unknown corruption kind {self.kind!r}; "
                f"known: {', '.join(CORRUPTION_KINDS)}"
            )
        if not self.plane:
            raise SweepConfigError(
                "corruption plane selector must be non-empty "
                "(use '*' to target any plane)"
            )
        if not 0.0 < self.ber <= 1.0:
            raise SweepConfigError(
                f"ber must be in (0, 1], got {self.ber}"
            )
        if not 0.0 < self.fraction <= 1.0:
            raise SweepConfigError(
                f"fraction must be in (0, 1], got {self.fraction}"
            )

    def describe(self) -> str:
        options = []
        if self.kind == "bitflip" and self.ber != 1e-3:
            options.append(f"ber={self.ber:g}")
        if self.kind == "truncate" and self.fraction != 0.25:
            options.append(f"fraction={self.fraction:g}")
        tail = "#" + "#".join(options) if options else ""
        return f"{self.kind}@{self.plane}{tail}"

    @classmethod
    def parse(cls, text: str) -> "CorruptionSpec":
        """Parse one ``kind@target#key=value`` selector."""
        head, *option_chunks = text.strip().split("#")
        kind, sep, plane = head.partition("@")
        if not sep or not plane:
            raise SweepConfigError(
                f"corruption spec {text!r} must look like kind@target "
                f"(e.g. bitflip@payload#ber=0.001, truncate@*)"
            )
        options: dict = {}
        for chunk in option_chunks:
            key, eq, value = chunk.partition("=")
            if not eq:
                raise SweepConfigError(
                    f"corruption option {chunk!r} is not key=value"
                )
            if key in ("ber", "fraction"):
                try:
                    options[key] = float(value)
                except ValueError:
                    raise SweepConfigError(
                        f"corruption option {key}={value!r} is not "
                        f"a number"
                    ) from None
            else:
                raise SweepConfigError(
                    f"unknown corruption option {key!r}; "
                    f"known: ber, fraction"
                )
        return cls(kind=kind, plane=plane, **options)


def parse_corruption(text: str) -> CorruptionSpec:
    """Module-level alias of :meth:`CorruptionSpec.parse`."""
    return CorruptionSpec.parse(text)


def _salt(key: tuple) -> int:
    """Stable 32-bit salt from an arbitrary injection key tuple."""
    return zlib.crc32(repr(key).encode("utf-8"))


class StreamCorruptor:
    """Seeded injector applying :class:`CorruptionSpec` rules.

    Every injection is keyed: the random stream is derived from
    ``(seed, key)``, never from global state, so campaigns are
    bit-reproducible and individual injections can be replayed in
    isolation.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def _rng(self, key: tuple) -> np.random.Generator:
        return np.random.default_rng((self.seed, _salt(key)))

    # ------------------------------------------------------------------
    # Frame surface
    # ------------------------------------------------------------------
    def _frame_span(
        self, layout: FrameLayout, data_len: int, plane: str
    ) -> tuple[int, int]:
        if plane == "header":
            return (0, layout.header_bytes)
        if plane == "payload":
            return (layout.header_bytes, data_len)
        if plane != ANY_PLANE:
            span = layout.plane(plane)
            if span.nbytes > 0:
                return (span.start, min(span.stop, data_len))
            # empty plane: nothing to hit — fall through to whole frame
        return (0, data_len)

    def corrupt_frame(
        self, data: bytes, spec: CorruptionSpec, key: tuple = ()
    ) -> bytes:
        """Return a damaged copy of a serialized frame.

        The pristine frame's own layout chooses the target span, so a
        ``plane`` selector lands exactly on that plane's payload
        bytes.  The input is never modified.
        """
        if not data:
            raise FormatError("cannot corrupt an empty stream")
        rng = self._rng(("frame", spec.kind, spec.plane) + key)
        layout = frame_layout(data)
        start, stop = self._frame_span(layout, len(data), spec.plane)
        if stop <= start:
            start, stop = 0, len(data)
        if spec.kind == "bitflip":
            return self._flip_bits(data, start, stop, spec.ber, rng)
        if spec.kind == "truncate":
            return self._truncate(data, start, stop, spec.fraction, rng)
        return self._tamper_frame(data, start, stop, rng)

    def _flip_bits(
        self,
        data: bytes,
        start: int,
        stop: int,
        ber: float,
        rng: np.random.Generator,
    ) -> bytes:
        span_bits = (stop - start) * 8
        n_flips = max(1, int(round(ber * span_bits)))
        n_flips = min(n_flips, span_bits)
        positions = rng.choice(span_bits, size=n_flips, replace=False)
        out = bytearray(data)
        for bit in positions:
            out[start + int(bit) // 8] ^= 1 << (int(bit) % 8)
        return bytes(out)

    def _truncate(
        self,
        data: bytes,
        start: int,
        stop: int,
        fraction: float,
        rng: np.random.Generator,
    ) -> bytes:
        span = stop - start
        limit = max(1, int(span * fraction))
        cut = int(rng.integers(1, limit + 1))
        if stop == len(data):
            return data[: len(data) - cut]
        # mid-stream plane: splice its tail out (a lost burst)
        return data[: stop - cut] + data[stop:]

    def _tamper_frame(
        self,
        data: bytes,
        start: int,
        stop: int,
        rng: np.random.Generator,
    ) -> bytes:
        width = min(4, stop - start)
        offset = start + int(
            rng.integers(0, max(1, (stop - start) - width + 1))
        )
        out = bytearray(data)
        replacement = bytes(rng.integers(0, 256, size=width, dtype=np.uint8))
        if bytes(out[offset : offset + width]) == replacement:
            replacement = bytes(b ^ 0xFF for b in replacement)
        out[offset : offset + width] = replacement
        return bytes(out)

    # ------------------------------------------------------------------
    # Array surface
    # ------------------------------------------------------------------
    def _pick_plane(
        self,
        encoded: EncodedMatrix,
        spec: CorruptionSpec,
        rng: np.random.Generator,
    ) -> str:
        if spec.plane not in (ANY_PLANE, "header", "payload"):
            target = encoded.array(spec.plane)
            if target.size:
                return spec.plane
        candidates = sorted(
            name
            for name, array in encoded.arrays.items()
            if np.asarray(array).size
        )
        if not candidates:
            raise FormatError(
                f"encoding for {encoded.format_name!r} has no "
                f"non-empty plane to corrupt"
            )
        return candidates[int(rng.integers(0, len(candidates)))]

    def corrupt_encoding(
        self,
        encoded: EncodedMatrix,
        spec: CorruptionSpec,
        key: tuple = (),
    ) -> EncodedMatrix:
        """Return a damaged copy of an in-memory encoding.

        Exactly one plane is hit per injection; the original encoding
        (and its arrays) are never modified.
        """
        rng = self._rng(("arrays", spec.kind, spec.plane) + key)
        plane = self._pick_plane(encoded, spec, rng)
        arrays = {
            name: np.asarray(array) for name, array in encoded.arrays.items()
        }
        target = arrays[plane].copy()
        if spec.kind == "bitflip":
            flat = target.reshape(-1).view(np.uint8)
            n_bits = flat.size * 8
            n_flips = min(
                n_bits, max(1, int(round(spec.ber * n_bits)))
            )
            bits = rng.choice(n_bits, size=n_flips, replace=False)
            for bit in bits:
                flat[int(bit) // 8] ^= 1 << (int(bit) % 8)
            arrays[plane] = target
        elif spec.kind == "truncate":
            # drop trailing elements (2-D planes lose whole rows)
            count = target.shape[0]
            limit = max(1, int(count * spec.fraction))
            cut = int(rng.integers(1, limit + 1))
            arrays[plane] = target[: count - cut].copy()
        else:  # tamper: one element becomes an adversarial extreme
            flat = target.reshape(-1)
            index = int(rng.integers(0, flat.size))
            if flat.dtype.kind == "f":
                extremes = (1e300, -1e300, float(2**31))
            else:
                info = np.iinfo(flat.dtype)
                extremes = (info.max, info.min, max(1, info.max // 3))
            flat[index] = extremes[int(rng.integers(0, len(extremes)))]
            arrays[plane] = target
        return EncodedMatrix(
            format_name=encoded.format_name,
            shape=encoded.shape,
            arrays=arrays,
            nnz=encoded.nnz,
            meta=dict(encoded.meta),
        )

    def __repr__(self) -> str:
        return f"StreamCorruptor(seed={self.seed})"

