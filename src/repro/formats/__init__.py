"""Sparse compression formats characterized by Copernicus.

The package provides the dense baseline, the paper's seven formats
(CSR, CSC, BCSR, COO, LIL, ELL, DIA), and the DOK/SELL variants the
paper describes alongside them.
"""

from .base import (
    INDEX_BYTES,
    VALUE_BYTES,
    EncodedMatrix,
    SizeBreakdown,
    SparseFormat,
)
from .bcsr import DEFAULT_BLOCK_SIZE, BcsrFormat
from .bitmap import BitmapFormat
from .convert import convert, decode_any, encode_as
from .coo import CooFormat
from .csc import CscFormat
from .csr import CsrFormat
from .dense import DenseFormat
from .dia import DiaFormat, diagonal_length, diagonal_slot
from .dok import DokFormat, dok_table
from .ell import EllFormat
from .hybrid import DEFAULT_HYBRID_WIDTH, EllCooFormat
from .jds import JdsFormat
from .lil import LilFormat
from .sell_c_sigma import SellCSigmaFormat
from .registry import (
    ALL_FORMATS,
    PAPER_FORMATS,
    SPARSE_FORMATS,
    available_formats,
    get_format,
    register_format,
)
from .corrupt import (
    CORRUPTION_KINDS,
    CorruptionSpec,
    StreamCorruptor,
    parse_corruption,
)
from .integrity import (
    FRAME_MAGIC,
    FrameLayout,
    PlaneSpan,
    decode_framed,
    format_for,
    frame,
    frame_layout,
    frame_overhead_bytes,
    safe_decode,
    unframe,
)
from .sell import DEFAULT_SLICE_HEIGHT, SellFormat
from .validate import VALIDATED_FORMATS, validate_encoding

__all__ = [
    "INDEX_BYTES",
    "VALUE_BYTES",
    "EncodedMatrix",
    "SizeBreakdown",
    "SparseFormat",
    "DenseFormat",
    "CsrFormat",
    "CscFormat",
    "BcsrFormat",
    "BitmapFormat",
    "CooFormat",
    "DokFormat",
    "LilFormat",
    "EllFormat",
    "EllCooFormat",
    "JdsFormat",
    "SellFormat",
    "SellCSigmaFormat",
    "DiaFormat",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_HYBRID_WIDTH",
    "DEFAULT_SLICE_HEIGHT",
    "ALL_FORMATS",
    "PAPER_FORMATS",
    "SPARSE_FORMATS",
    "available_formats",
    "get_format",
    "register_format",
    "convert",
    "encode_as",
    "decode_any",
    "dok_table",
    "diagonal_length",
    "diagonal_slot",
    "validate_encoding",
    "VALIDATED_FORMATS",
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
    "CORRUPTION_KINDS",
    "CorruptionSpec",
    "StreamCorruptor",
    "parse_corruption",
]
