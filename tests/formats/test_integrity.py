"""Checksummed tile framing and hardened decoding."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FormatIntegrityError
from repro.formats import ALL_FORMATS, EncodedMatrix, get_format
from repro.formats.integrity import (
    FRAME_MAGIC,
    decode_framed,
    format_for,
    frame,
    frame_layout,
    frame_overhead_bytes,
    safe_decode,
    unframe,
)
from repro.matrix import SparseMatrix
from repro.workloads import band_matrix, random_matrix


@pytest.fixture(scope="module")
def matrix() -> SparseMatrix:
    return random_matrix(24, 0.15, seed=5)


# ----------------------------------------------------------------------
# Framing round-trip
# ----------------------------------------------------------------------
class TestFrameRoundTrip:
    def test_every_format(self, any_format, corpus_matrix):
        encoded = any_format.encode(corpus_matrix)
        data = frame(encoded)
        assert data.startswith(FRAME_MAGIC)
        restored = unframe(data)
        assert restored.format_name == encoded.format_name
        assert restored.shape == encoded.shape
        assert restored.nnz == encoded.nnz
        assert dict(restored.meta) == dict(encoded.meta)
        for name, array in encoded.arrays.items():
            np.testing.assert_array_equal(
                restored.array(name), np.asarray(array)
            )

    def test_decode_framed_recovers_matrix(self, any_format, matrix):
        encoded = any_format.encode(matrix)
        assert decode_framed(frame(encoded)) == any_format.decode(encoded)

    def test_layout_accounts_every_byte(self, matrix):
        encoded = get_format("csr").encode(matrix)
        data = frame(encoded)
        layout = frame_layout(data)
        assert layout.header_crc_ok
        assert layout.declared_bytes == len(data)
        assert layout.header_bytes + sum(
            span.nbytes for span in layout.planes
        ) == len(data)
        assert {span.name for span in layout.planes} == set(
            encoded.arrays
        )

    def test_overhead_is_constant_per_format(self, matrix):
        for name in ALL_FORMATS:
            codec = get_format(name)
            overhead = frame_overhead_bytes(name)
            assert overhead > 0
            encoded = codec.encode(matrix)
            payload = sum(
                np.asarray(a).nbytes for a in encoded.arrays.values()
            )
            assert len(frame(encoded)) == payload + overhead


# ----------------------------------------------------------------------
# Detection
# ----------------------------------------------------------------------
class TestStrictDetection:
    def test_payload_bitflip_caught_by_crc(self, any_format, matrix):
        encoded = any_format.encode(matrix)
        data = bytearray(frame(encoded))
        layout = frame_layout(bytes(data))
        data[layout.header_bytes] ^= 0x10  # first payload byte
        with pytest.raises(FormatIntegrityError) as excinfo:
            unframe(bytes(data))
        assert excinfo.value.kind == "crc"

    def test_header_bitflip_caught(self, matrix):
        data = bytearray(frame(get_format("coo").encode(matrix)))
        data[6] ^= 0x01  # inside the format-name field
        assert not frame_layout(bytes(data)).header_crc_ok
        with pytest.raises(FormatIntegrityError) as excinfo:
            unframe(bytes(data))
        assert excinfo.value.check == "header-crc"

    def test_truncation_caught_without_crc(self, matrix):
        data = frame(get_format("csr").encode(matrix))
        with pytest.raises(FormatIntegrityError) as excinfo:
            unframe(data[:-3], verify_crc=False)
        assert excinfo.value.kind == "truncation"

    def test_trailing_garbage_caught(self, matrix):
        data = frame(get_format("csr").encode(matrix))
        with pytest.raises(FormatIntegrityError):
            unframe(data + b"\x00\x01", verify_crc=False)

    def test_not_a_frame(self):
        with pytest.raises(FormatIntegrityError):
            unframe(b"XXXX not a frame at all")

    def test_out_of_bounds_index_refused(self, matrix):
        encoded = get_format("coo").encode(matrix)
        cols = encoded.array("cols").copy()
        cols[0] = 9999
        damaged = EncodedMatrix(
            format_name="coo",
            shape=encoded.shape,
            arrays={**dict(encoded.arrays), "cols": cols},
            nnz=encoded.nnz,
        )
        with pytest.raises(FormatIntegrityError):
            safe_decode(damaged)

    def test_unknown_format_is_undecodable(self, matrix):
        encoded = get_format("coo").encode(matrix)
        alien = EncodedMatrix(
            format_name="alien",
            shape=encoded.shape,
            arrays=dict(encoded.arrays),
            nnz=encoded.nnz,
        )
        with pytest.raises(FormatIntegrityError) as excinfo:
            safe_decode(alien)
        assert excinfo.value.kind == "undecodable"


# ----------------------------------------------------------------------
# Meta-aware codec resolution
# ----------------------------------------------------------------------
class TestFormatFor:
    def test_non_default_parameters_round_trip(self):
        matrix = band_matrix(20, 6, seed=2)
        for name, kwargs in (
            ("bcsr", {"block_size": 2}),
            ("sell", {"slice_height": 2}),
            ("sell-c-sigma", {"slice_height": 2, "sigma": 4}),
            ("ell+coo", {"width": 1}),
        ):
            codec = get_format(name, **kwargs)
            encoded = codec.encode(matrix)
            resolved = format_for(encoded)
            assert resolved.decode(encoded) == matrix

    def test_framed_non_default_parameters_round_trip(self):
        matrix = band_matrix(20, 6, seed=2)
        codec = get_format("sell-c-sigma", slice_height=2, sigma=4)
        encoded = codec.encode(matrix)
        assert decode_framed(frame(encoded)) == matrix

