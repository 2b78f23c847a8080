"""Hypothesis property: hardened decoding never escapes the taxonomy.

For every registered format and every corruption kind, strict-mode
decoding of ``corrupt(encode(m))`` must either

* raise a :class:`~repro.errors.FormatIntegrityError` (detected), or
* return a matrix (possibly different from ``m`` — silent corruption
  is a measured quantity, not a crash).

What it must *never* do is leak a bare ``IndexError`` / ``ValueError``
/ numpy exception: that is exactly the hardening the strict decode
path exists to provide.  Failures shrink to a minimal (matrix, format,
kind, seed) quadruple.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import FormatIntegrityError
from repro.formats import ALL_FORMATS, get_format
from repro.formats.corrupt import (
    CORRUPTION_KINDS,
    CorruptionSpec,
    StreamCorruptor,
)
from repro.formats.integrity import decode_framed, frame, safe_decode
from repro.matrix import SparseMatrix


@st.composite
def sparse_matrices(draw) -> SparseMatrix:
    n_rows = draw(st.integers(1, 12))
    n_cols = draw(st.integers(1, 12))
    n_entries = draw(st.integers(0, 24))
    rows = draw(
        st.lists(
            st.integers(0, n_rows - 1),
            min_size=n_entries, max_size=n_entries,
        )
    )
    cols = draw(
        st.lists(
            st.integers(0, n_cols - 1),
            min_size=n_entries, max_size=n_entries,
        )
    )
    values = draw(
        st.lists(
            st.floats(-8.0, 8.0).filter(lambda x: x != 0.0),
            min_size=n_entries, max_size=n_entries,
        )
    )
    return SparseMatrix((n_rows, n_cols), rows, cols, values)


@pytest.mark.parametrize("format_name", sorted(ALL_FORMATS))
@pytest.mark.parametrize("kind", CORRUPTION_KINDS)
class TestStrictDecodeNeverCrashes:
    @settings(max_examples=12, deadline=None)
    @given(matrix=sparse_matrices(), seed=st.integers(0, 2**16))
    def test_corrupt_encoding(self, format_name, kind, matrix, seed):
        assume(matrix.nnz > 0)  # all-empty planes leave nothing to hit
        codec = get_format(format_name)
        encoded = codec.encode(matrix)
        damaged = StreamCorruptor(seed=seed).corrupt_encoding(
            encoded, CorruptionSpec(kind)
        )
        try:
            decoded = safe_decode(damaged)
        except FormatIntegrityError:
            return  # detected — the taxonomy worked
        assert isinstance(decoded, SparseMatrix)

    @settings(max_examples=12, deadline=None)
    @given(matrix=sparse_matrices(), seed=st.integers(0, 2**16))
    def test_corrupt_frame(self, format_name, kind, matrix, seed):
        codec = get_format(format_name)
        data = frame(codec.encode(matrix))
        damaged = StreamCorruptor(seed=seed).corrupt_frame(
            data, CorruptionSpec(kind)
        )
        try:
            decoded = decode_framed(damaged)
        except FormatIntegrityError:
            return
        assert isinstance(decoded, SparseMatrix)

