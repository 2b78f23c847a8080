"""Seeded stream corruption: spec grammar, determinism, surfaces."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FormatError, SweepConfigError
from repro.formats import get_format
from repro.formats.corrupt import (
    CORRUPTION_KINDS,
    CorruptionSpec,
    StreamCorruptor,
    parse_corruption,
)
from repro.formats.integrity import frame, frame_layout
from repro.workloads import random_matrix


@pytest.fixture(scope="module")
def encoded():
    return get_format("csr").encode(random_matrix(16, 0.2, seed=1))


@pytest.fixture(scope="module")
def framed(encoded):
    return frame(encoded)


class TestSpecGrammar:
    def test_parse_full_selector(self):
        spec = parse_corruption("bitflip@values#ber=0.01")
        assert spec.kind == "bitflip"
        assert spec.plane == "values"
        assert spec.ber == 0.01

    def test_parse_round_trips_describe(self):
        for text in (
            "bitflip@payload#ber=0.001",
            "truncate@*#fraction=0.5",
            "tamper@offsets",
        ):
            spec = parse_corruption(text)
            assert parse_corruption(spec.describe()) == spec

    @pytest.mark.parametrize(
        "text",
        [
            "bitflip",  # no target
            "melt@*",  # unknown kind
            "bitflip@*#ber=2.0",  # ber out of range
            "truncate@*#fraction=0",  # fraction out of range
            "bitflip@*#mode=hope",  # unknown option
            "bitflip@values#mode=repair",  # decoding is always strict
            "bitflip@*#ber",  # not key=value
            "bitflip@*#color=red",  # unknown key
        ],
    )
    def test_invalid_specs_rejected(self, text):
        with pytest.raises(SweepConfigError):
            parse_corruption(text)

    def test_known_kinds(self):
        assert CORRUPTION_KINDS == ("bitflip", "truncate", "tamper")


class TestDeterminism:
    def test_same_seed_same_damage(self, framed):
        spec = CorruptionSpec("bitflip", plane="payload")
        a = StreamCorruptor(seed=9).corrupt_frame(framed, spec, key=(1,))
        b = StreamCorruptor(seed=9).corrupt_frame(framed, spec, key=(1,))
        assert a == b

    def test_different_seed_or_key_differs(self, framed):
        spec = CorruptionSpec("bitflip", plane="payload")
        base = StreamCorruptor(seed=9).corrupt_frame(framed, spec, key=(1,))
        other_seed = StreamCorruptor(seed=10).corrupt_frame(
            framed, spec, key=(1,)
        )
        other_key = StreamCorruptor(seed=9).corrupt_frame(
            framed, spec, key=(2,)
        )
        assert base != other_seed or base != other_key

    def test_encoding_surface_deterministic(self, encoded):
        spec = CorruptionSpec("tamper")
        a = StreamCorruptor(seed=3).corrupt_encoding(encoded, spec, key=(7,))
        b = StreamCorruptor(seed=3).corrupt_encoding(encoded, spec, key=(7,))
        for name in a.arrays:
            np.testing.assert_array_equal(a.array(name), b.array(name))


class TestFrameSurface:
    def test_input_never_modified(self, framed):
        snapshot = bytes(framed)
        for kind in CORRUPTION_KINDS:
            StreamCorruptor(seed=0).corrupt_frame(
                framed, CorruptionSpec(kind)
            )
        assert framed == snapshot

    def test_plane_selector_confines_damage(self, framed):
        layout = frame_layout(framed)
        span = layout.plane("values")
        spec = CorruptionSpec("bitflip", plane="values")
        damaged = StreamCorruptor(seed=4).corrupt_frame(framed, spec)
        assert len(damaged) == len(framed)
        diff = [
            i for i, (x, y) in enumerate(zip(framed, damaged)) if x != y
        ]
        assert diff
        assert all(span.start <= i < span.stop for i in diff)

    def test_header_selector_confines_damage(self, framed):
        layout = frame_layout(framed)
        spec = CorruptionSpec("tamper", plane="header")
        damaged = StreamCorruptor(seed=4).corrupt_frame(framed, spec)
        diff = [
            i for i, (x, y) in enumerate(zip(framed, damaged)) if x != y
        ]
        assert diff
        assert all(i < layout.header_bytes for i in diff)

    def test_truncate_shortens(self, framed):
        spec = CorruptionSpec("truncate", fraction=0.5)
        damaged = StreamCorruptor(seed=2).corrupt_frame(framed, spec)
        assert len(damaged) < len(framed)

    def test_empty_stream_rejected(self):
        with pytest.raises(FormatError):
            StreamCorruptor().corrupt_frame(b"", CorruptionSpec("bitflip"))


class TestEncodingSurface:
    def test_exactly_one_plane_hit(self, encoded):
        damaged = StreamCorruptor(seed=5).corrupt_encoding(
            encoded, CorruptionSpec("bitflip", ber=0.01)
        )
        touched = [
            name
            for name in encoded.arrays
            if not np.array_equal(
                encoded.array(name), damaged.array(name)
            )
        ]
        assert len(touched) == 1

    def test_original_arrays_untouched(self, encoded):
        snapshots = {
            name: encoded.array(name).copy() for name in encoded.arrays
        }
        for kind in CORRUPTION_KINDS:
            StreamCorruptor(seed=6).corrupt_encoding(
                encoded, CorruptionSpec(kind)
            )
        for name, snapshot in snapshots.items():
            np.testing.assert_array_equal(encoded.array(name), snapshot)

    def test_truncate_drops_elements(self, encoded):
        spec = CorruptionSpec("truncate", plane="indices", fraction=0.5)
        damaged = StreamCorruptor(seed=1).corrupt_encoding(encoded, spec)
        assert (
            damaged.array("indices").shape[0]
            < encoded.array("indices").shape[0]
        )

    def test_tamper_plants_extreme_value(self, encoded):
        spec = CorruptionSpec("tamper", plane="values")
        damaged = StreamCorruptor(seed=8).corrupt_encoding(encoded, spec)
        delta = damaged.array("values") != encoded.array("values")
        assert delta.sum() == 1
