"""Checksummed container framing and strict decoding.

An :class:`~repro.formats.base.EncodedMatrix` is a set of in-memory
numpy planes; on a real accelerator those planes travel over DDR/AXI as
one byte stream per tile.  This module supplies the missing container
layer and the one decode path that makes a corrupted stream a
first-class, *measurable* event instead of an interpreter crash:

``frame()`` / ``unframe()``
    A little-endian, CRC32-protected container: magic, format id,
    shape, nnz, the format's scalar meta, a plane table (name, dtype
    tag, dims, byte length, payload CRC32), a header CRC32, then the
    raw plane payloads.  Byte accounting is exact and
    :func:`frame_overhead_bytes` is a per-format constant, so framing
    cost composes with the existing :class:`SizeBreakdown` model.

``safe_decode()`` / ``decode_framed()``
    Like a hardware decompressor, decoding takes a well-formed stream
    or flags it; it never rewrites one.
    :func:`~repro.formats.validate.validate_encoding` and decode-time
    failures surface as the structured
    :class:`~repro.errors.FormatIntegrityError` taxonomy, never as a
    bare numpy exception.

Wire layout (all integers little-endian)::

    magic      4s   = b"CTF1"
    format     u16 length + ASCII name
    rows,cols  u32, u32
    nnz        u64
    meta       u16 count, then per entry: u16 key length + key, i64
    planes     u16 count, then per plane:
                 u16 name length + name
                 u16 dtype-tag length + numpy dtype.str (e.g. "<f8")
                 u8 ndim, u32 per dimension
                 u64 payload bytes
                 u32 CRC32(payload)
    header CRC u32  (CRC32 of every byte above)
    payloads   concatenated in plane-table order, C-contiguous
"""

from __future__ import annotations

import re
import struct
import zlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import FormatIntegrityError
from ..matrix import SparseMatrix
from .base import EncodedMatrix, SparseFormat
from .registry import get_format
from .validate import validate_encoding

__all__ = [
    "FRAME_MAGIC",
    "FrameLayout",
    "PlaneSpan",
    "frame",
    "unframe",
    "frame_layout",
    "frame_overhead_bytes",
    "format_for",
    "safe_decode",
    "decode_framed",
]

#: Container magic: "Copernicus Tile Frame", layout version 1.
FRAME_MAGIC = b"CTF1"

# Header sanity bounds — a parsed count beyond these is corruption, not
# a large matrix (no built-in format exceeds 5 planes or 2 meta keys).
_MAX_PLANES = 64
_MAX_META = 32
_MAX_NAME = 256
_MAX_NDIM = 4


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlaneSpan:
    """One plane's entry in the frame table, with its payload span."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    start: int
    stop: int
    crc: int

    @property
    def nbytes(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class FrameLayout:
    """Parsed frame header: where every byte of the stream lives.

    ``header_crc_ok`` records whether the stored header CRC matches the
    header bytes; :func:`unframe` decides what a mismatch means.
    """

    format_name: str
    shape: tuple[int, int]
    nnz: int
    meta: dict
    header_bytes: int
    header_crc: int
    header_crc_ok: bool
    planes: tuple[PlaneSpan, ...]

    @property
    def declared_bytes(self) -> int:
        """Total frame length the header claims (header + payloads)."""
        return self.header_bytes + sum(p.nbytes for p in self.planes)

    def plane(self, name: str) -> PlaneSpan:
        for span in self.planes:
            if span.name == name:
                return span
        raise FormatIntegrityError(
            f"frame has no plane {name!r}; available: "
            f"{[p.name for p in self.planes]}",
            format_name=self.format_name,
            plane=name,
            check="plane-missing",
            kind="structure",
        )


def frame(encoded: EncodedMatrix) -> bytes:
    """Serialize an encoding into the checksummed container format."""
    out = bytearray()
    out += FRAME_MAGIC
    name = encoded.format_name.encode("ascii")
    out += struct.pack("<H", len(name)) + name
    out += struct.pack(
        "<IIQ", encoded.n_rows, encoded.n_cols, encoded.nnz
    )
    out += struct.pack("<H", len(encoded.meta))
    for key, value in encoded.meta.items():
        key_bytes = key.encode("ascii")
        out += struct.pack("<H", len(key_bytes)) + key_bytes
        out += struct.pack("<q", int(value))
    payloads: list[bytes] = []
    out += struct.pack("<H", len(encoded.arrays))
    for plane_name, array in encoded.arrays.items():
        payload = np.ascontiguousarray(array).tobytes()
        payloads.append(payload)
        plane_bytes = plane_name.encode("ascii")
        out += struct.pack("<H", len(plane_bytes)) + plane_bytes
        tag = np.asarray(array).dtype.str.encode("ascii")
        out += struct.pack("<H", len(tag)) + tag
        out += struct.pack("<B", np.asarray(array).ndim)
        for dim in np.asarray(array).shape:
            out += struct.pack("<I", dim)
        out += struct.pack("<QI", len(payload), zlib.crc32(payload))
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    for payload in payloads:
        out += payload
    return bytes(out)


class _Reader:
    """Bounds-checked little-endian cursor over untrusted bytes."""

    def __init__(self, data: bytes, format_name: str = "") -> None:
        self.data = data
        self.cursor = 0
        self.format_name = format_name

    def _fail(self, what: str) -> FormatIntegrityError:
        return FormatIntegrityError(
            f"frame ends inside {what} "
            f"(offset {self.cursor} of {len(self.data)})",
            format_name=self.format_name,
            check="header-truncated",
            offset=self.cursor,
            kind="truncation",
        )

    def take(self, count: int, what: str) -> bytes:
        if self.cursor + count > len(self.data):
            raise self._fail(what)
        chunk = self.data[self.cursor : self.cursor + count]
        self.cursor += count
        return chunk

    def unpack(self, fmt: str, what: str):
        size = struct.calcsize(fmt)
        return struct.unpack(fmt, self.take(size, what))

    def ascii(self, length: int, what: str) -> str:
        raw = self.take(length, what)
        try:
            return raw.decode("ascii")
        except UnicodeDecodeError as exc:
            raise FormatIntegrityError(
                f"non-ASCII bytes in {what}",
                format_name=self.format_name,
                check="header-encoding",
                offset=self.cursor - length,
                kind="structure",
            ) from exc


def _header_fail(
    message: str,
    *,
    format_name: str = "",
    plane: str = "",
    check: str,
    offset: int | None = None,
    kind: str = "structure",
) -> FormatIntegrityError:
    return FormatIntegrityError(
        message,
        format_name=format_name,
        plane=plane,
        check=check,
        offset=offset,
        kind=kind,
    )


def _parse_dtype(tag: str, format_name: str, plane: str) -> np.dtype:
    # only byte-order + numeric-kind + width tags are legal on the
    # wire; anything else (including numpy's deprecated aliases, which
    # np.dtype would warn about rather than reject) is header damage
    if not re.fullmatch(r"[<>|=]?[fiu][0-9]{1,2}", tag):
        raise _header_fail(
            f"unparseable dtype tag {tag!r}",
            format_name=format_name,
            plane=plane,
            check="dtype-tag",
        )
    try:
        dtype = np.dtype(tag)
    except (TypeError, ValueError) as exc:
        raise _header_fail(
            f"unparseable dtype tag {tag!r}",
            format_name=format_name,
            plane=plane,
            check="dtype-tag",
        ) from exc
    if dtype.kind not in "fiu" or dtype.itemsize > 16:
        raise _header_fail(
            f"dtype {tag!r} is not a plain numeric scalar type",
            format_name=format_name,
            plane=plane,
            check="dtype-kind",
        )
    return dtype


def frame_layout(data: bytes) -> FrameLayout:
    """Parse a frame header into spans, without touching payloads.

    A header whose structure cannot be established raises
    :class:`FormatIntegrityError`.  CRC values are reported, not
    enforced; :func:`unframe` decides what to do with them.
    """
    reader = _Reader(data)
    magic = reader.take(4, "magic")
    if magic != FRAME_MAGIC:
        raise _header_fail(
            f"bad magic {magic!r} (expected {FRAME_MAGIC!r})",
            check="magic",
            offset=0,
        )
    (name_len,) = reader.unpack("<H", "format name length")
    if name_len > _MAX_NAME:
        raise _header_fail(
            f"format name length {name_len} too large",
            check="name-length",
        )
    format_name = reader.ascii(name_len, "format name")
    reader.format_name = format_name
    rows, cols, nnz = reader.unpack("<IIQ", "shape header")
    (n_meta,) = reader.unpack("<H", "meta count")
    if n_meta > _MAX_META:
        raise _header_fail(
            f"meta count {n_meta} too large",
            format_name=format_name,
            check="meta-count",
        )
    meta: dict = {}
    for _ in range(n_meta):
        (key_len,) = reader.unpack("<H", "meta key length")
        if key_len > _MAX_NAME:
            raise _header_fail(
                f"meta key length {key_len} too large",
                format_name=format_name,
                check="meta-key-length",
            )
        key = reader.ascii(key_len, "meta key")
        (value,) = reader.unpack("<q", "meta value")
        meta[key] = int(value)
    (n_planes,) = reader.unpack("<H", "plane count")
    if n_planes > _MAX_PLANES:
        raise _header_fail(
            f"plane count {n_planes} too large",
            format_name=format_name,
            check="plane-count",
        )
    table = []
    for _ in range(n_planes):
        (plane_len,) = reader.unpack("<H", "plane name length")
        if plane_len > _MAX_NAME:
            raise _header_fail(
                f"plane name length {plane_len} too large",
                format_name=format_name,
                check="plane-name-length",
            )
        plane_name = reader.ascii(plane_len, "plane name")
        (tag_len,) = reader.unpack("<H", "dtype tag length")
        if tag_len > _MAX_NAME:
            raise _header_fail(
                f"dtype tag length {tag_len} too large",
                format_name=format_name,
                plane=plane_name,
                check="dtype-tag-length",
            )
        tag = reader.ascii(tag_len, "dtype tag")
        dtype = _parse_dtype(tag, format_name, plane_name)
        (ndim,) = reader.unpack("<B", "plane rank")
        if ndim > _MAX_NDIM:
            raise _header_fail(
                f"plane rank {ndim} too large",
                format_name=format_name,
                plane=plane_name,
                check="plane-rank",
            )
        dims = tuple(
            reader.unpack("<I", "plane dimension")[0]
            for _ in range(ndim)
        )
        nbytes, crc = reader.unpack("<QI", "plane size")
        elements = 1
        for dim in dims:
            elements *= dim
        if elements * dtype.itemsize != nbytes:
            raise _header_fail(
                f"dims {dims} x {dtype.str} = "
                f"{elements * dtype.itemsize} bytes, header says "
                f"{nbytes}",
                format_name=format_name,
                plane=plane_name,
                check="plane-size-consistency",
            )
        table.append((plane_name, tag, dims, nbytes, crc))
    header_stop = reader.cursor
    (header_crc,) = reader.unpack("<I", "header CRC")
    planes = []
    cursor = reader.cursor
    for plane_name, tag, dims, nbytes, crc in table:
        planes.append(
            PlaneSpan(
                name=plane_name,
                dtype=tag,
                shape=dims,
                start=cursor,
                stop=cursor + nbytes,
                crc=crc,
            )
        )
        cursor += nbytes
    return FrameLayout(
        format_name=format_name,
        shape=(int(rows), int(cols)),
        nnz=int(nnz),
        meta=meta,
        header_bytes=reader.cursor,
        header_crc=int(header_crc),
        header_crc_ok=zlib.crc32(data[:header_stop]) == header_crc,
        planes=tuple(planes),
    )


def unframe(data: bytes, *, verify_crc: bool = True) -> EncodedMatrix:
    """Parse a frame back into an :class:`EncodedMatrix`.

    Raises :class:`FormatIntegrityError` on any deviation: CRC mismatch
    (header or plane, unless ``verify_crc=False``), truncated payloads,
    trailing garbage.  A short payload is refused before any array is
    built, so no allocation exceeds ``len(data)``.
    """
    layout = frame_layout(data)
    if verify_crc and not layout.header_crc_ok:
        raise FormatIntegrityError(
            "header CRC mismatch",
            format_name=layout.format_name,
            check="header-crc",
            kind="crc",
        )
    arrays: dict[str, np.ndarray] = {}
    for span in layout.planes:
        payload = data[span.start : span.stop]
        if len(payload) < span.nbytes:
            raise FormatIntegrityError(
                f"payload truncated to {len(payload)} of "
                f"{span.nbytes} bytes",
                format_name=layout.format_name,
                plane=span.name,
                check="payload-truncated",
                offset=len(payload),
                kind="truncation",
            )
        if verify_crc and zlib.crc32(payload) != span.crc:
            raise FormatIntegrityError(
                "payload CRC mismatch",
                format_name=layout.format_name,
                plane=span.name,
                check="plane-crc",
                kind="crc",
            )
        arrays[span.name] = (
            np.frombuffer(payload, dtype=np.dtype(span.dtype))
            .reshape(span.shape)
            .copy()
        )
    if len(data) > layout.declared_bytes:
        raise FormatIntegrityError(
            f"{len(data) - layout.declared_bytes} trailing bytes after "
            f"the last payload",
            format_name=layout.format_name,
            check="trailing-bytes",
            offset=layout.declared_bytes,
            kind="truncation",
        )
    return EncodedMatrix(
        format_name=layout.format_name,
        shape=layout.shape,
        arrays=arrays,
        nnz=layout.nnz,
        meta=layout.meta,
    )


@lru_cache(maxsize=None)
def frame_overhead_bytes(format_name: str, **format_kwargs: int) -> int:
    """Exact framing overhead of one tile of ``format_name``.

    The header's size depends only on the format (plane names, ranks,
    dtype tags and meta keys are fixed per codec), never on the matrix,
    so the overhead is a per-format constant: computed once by framing
    a small sample encoding and subtracting its payload bytes.
    """
    sample = SparseMatrix.from_triplets(
        (4, 4), [(0, 0, 1.0), (1, 2, 2.0), (3, 3, 3.0)]
    )
    encoded = get_format(format_name, **format_kwargs).encode(sample)
    payload_bytes = sum(
        np.ascontiguousarray(a).nbytes for a in encoded.arrays.values()
    )
    return len(frame(encoded)) - payload_bytes


# ----------------------------------------------------------------------
# Hardened decoding
# ----------------------------------------------------------------------
def format_for(encoded: EncodedMatrix) -> SparseFormat:
    """Instantiate the codec with the parameters the encoding declares.

    ``get_format(name)`` alone silently uses constructor defaults,
    which is wrong for e.g. a SELL-C-sigma stream encoded with a
    non-default slice height (its ``_inner`` view trusts
    ``self.slice_height``, not the meta).  This helper closes that gap
    for every parameterized codec.
    """
    meta = encoded.meta
    name = encoded.format_name
    if name == "sell":
        return get_format(name, slice_height=int(meta["slice_height"]))
    if name == "sell-c-sigma":
        return get_format(
            name,
            slice_height=int(meta["slice_height"]),
            sigma=int(meta["sigma"]),
        )
    if name == "bcsr":
        return get_format(name, block_size=int(meta["block_size"]))
    if name == "ell+coo":
        return get_format(name, width=int(meta["width"]))
    return get_format(name)


def safe_decode(encoded: EncodedMatrix) -> SparseMatrix:
    """Validate and decode, or raise :class:`FormatIntegrityError`.

    Never lets a bare numpy/``IndexError`` escape: a failure outside
    the taxonomy is wrapped as an ``undecodable`` verdict.
    """
    try:
        validate_encoding(encoded)
        return format_for(encoded).decode(encoded)
    except FormatIntegrityError:
        raise
    except Exception as exc:
        reason = str(exc) or type(exc).__name__
        raise FormatIntegrityError(
            f"decode failed ({type(exc).__name__}): {reason}",
            format_name=encoded.format_name,
            check="decode-failure",
            kind="undecodable",
        ) from exc


def decode_framed(data: bytes, *, verify_crc: bool = True) -> SparseMatrix:
    """Unframe then decode: :func:`unframe` plus :func:`safe_decode`."""
    return safe_decode(unframe(data, verify_crc=verify_crc))
