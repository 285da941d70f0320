"""Tests for bit-level interchange: the packed patterns the platform stores.

``encode``/``encode_array`` give a value's IEEE bit pattern in its
format and ``decode``/``decode_array`` read one back; they are the
reference functions of :mod:`repro.core.quantize`, the same under every
backend.  binary16 patterns are ``numpy.float16``'s and binary16alt
patterns are bfloat16's (the top half of a binary32 word), and each
format occupies ``storage_bytes`` of data memory, which is what the
platform's loads and stores move.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BINARY8,
    BINARY16,
    BINARY16ALT,
    BINARY32,
    BINARY64,
    decode,
    encode,
    quantize,
    quantize_array,
    use_backend,
)
from repro.core.quantize import decode_array, encode_array
from repro.hardware import KernelBuilder, VirtualPlatform

floats = st.lists(
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    min_size=1,
    max_size=32,
)

BACKENDS = ("reference", "fast")

#: numpy's unsigned integer of each storage width, in bytes.
STORAGE_DTYPE = {1: np.uint8, 2: np.uint16, 4: np.uint32}


def pack(values, fmt) -> bytes:
    """The data-memory image of ``values`` stored in ``fmt``."""
    patterns = encode_array(np.asarray(values, dtype=np.float64), fmt)
    return patterns.astype(STORAGE_DTYPE[fmt.storage_bytes]).tobytes()


def unpack(buffer: bytes, fmt) -> np.ndarray:
    """Inverse of :func:`pack`."""
    patterns = np.frombuffer(buffer, dtype=STORAGE_DTYPE[fmt.storage_bytes])
    return decode_array(patterns.astype(np.uint64), fmt)


class TestFloat16Bridge:
    @given(floats)
    @settings(max_examples=150)
    def test_roundtrip_bit_exact(self, xs):
        native = np.array(xs, dtype=np.float16)
        for name in BACKENDS:
            with use_backend(name):
                values = quantize_array(np.array(xs), BINARY16)
                bits = encode_array(values, BINARY16)
                np.testing.assert_array_equal(bits, native.view(np.uint16))
                np.testing.assert_array_equal(
                    decode_array(bits, BINARY16), values
                )

    def test_wrong_format_rejected(self):
        # 0x3C00 is binary16's 1.0: nine bits too wide for binary8.
        with pytest.raises(ValueError, match="does not fit in 8 bits"):
            decode(0x3C00, BINARY8)

    @pytest.mark.parametrize(
        "patterns",
        [[0x3C00], [-1], [0, 255, 256], np.array([1 << 8], dtype=np.uint64)],
        ids=["too-wide", "negative", "one-past-the-top", "uint64"],
    )
    def test_wrong_format_rejected_by_array_path(self, patterns):
        # The array path rejects what the scalar one does, rather than
        # masking the pattern to the format's width or wrapping it.
        bad = next(p for p in map(int, patterns) if not 0 <= p < 256)
        with pytest.raises(
            ValueError, match=f"pattern {bad:#x} does not fit in 8 bits"
        ):
            decode_array(patterns, BINARY8)

    def test_array_path_accepts_binary64_sign_bit(self):
        # The range check must keep every 64-bit pattern, including those
        # with the sign bit set, which only a uint64 holds.
        patterns = np.array([0xFFEFFFFFFFFFFFFF], dtype=np.uint64)
        assert decode_array(patterns, BINARY64).tolist() == [
            -np.finfo(np.float64).max
        ]

    def test_values_match_numpy_cast(self):
        xs = [3.14159, -2.71828]
        np.testing.assert_array_equal(
            quantize_array(np.array(xs), BINARY16),
            np.array(xs, dtype=np.float16).astype(np.float64),
        )


class TestBfloat16Bridge:
    @given(floats)
    @settings(max_examples=150)
    def test_roundtrip_bit_exact(self, xs):
        for name in BACKENDS:
            with use_backend(name):
                values = quantize_array(np.array(xs), BINARY16ALT)
                bits = encode_array(values, BINARY16ALT)
                upper = values.astype(np.float32).view(np.uint32) >> 16
                np.testing.assert_array_equal(bits, upper)
                np.testing.assert_array_equal(
                    decode_array(bits, BINARY16ALT), values
                )

    def test_known_pattern(self):
        # 1.0 in bfloat16 = 0x3F80 (top half of binary32's 0x3F800000).
        assert encode(1.0, BINARY16ALT) == 0x3F80
        assert decode(0x3F80, BINARY16ALT) == 1.0

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError, match="does not fit in 16 bits"):
            decode(0x3F800000, BINARY16ALT)


class TestPackedBuffers:
    @pytest.mark.parametrize("fmt", [BINARY8, BINARY16, BINARY16ALT,
                                     BINARY32])
    def test_roundtrip(self, fmt):
        values = np.array([0.0, 1.0, -1.5, 100.0, -0.125])
        buffer = pack(values, fmt)
        assert len(buffer) == len(values) * fmt.storage_bytes
        back = unpack(buffer, fmt)
        expected = [quantize(v, fmt) for v in values]
        np.testing.assert_array_equal(back, expected)

    def test_binary8_buffer_is_one_byte_per_element(self):
        assert len(pack(np.zeros(10), BINARY8)) == 10
        # A packed load and store move one byte per binary8 lane.
        builder = KernelBuilder("copy")
        arr = builder.alloc("a", [0.0] * 8, BINARY8)
        builder.store(arr, 4, builder.load(arr, 0, lanes=4))
        memory = VirtualPlatform().run(builder.program()).memory
        assert memory.bytes_moved == 8
        assert memory.by_element_bits == {8: 2}

    def test_unpack_rejects_misaligned_buffer(self):
        # A packed access must find all its lanes inside the array.
        builder = KernelBuilder("tail")
        arr = builder.alloc("a", [0.0] * 8, BINARY8)
        with pytest.raises(IndexError, match="out of bounds"):
            builder.load(arr, 6, lanes=4)

    @given(floats)
    @settings(max_examples=100)
    def test_pack_quantizes_like_the_library(self, xs):
        for name in BACKENDS:
            with use_backend(name):
                back = unpack(pack(np.array(xs), BINARY8), BINARY8)
            for x, got in zip(xs, back):
                want = quantize(x, BINARY8)
                if math.isnan(want):
                    assert math.isnan(got)
                else:
                    assert got == want

    def test_storage_bytes(self):
        assert BINARY8.storage_bytes == 1
        assert BINARY16.storage_bytes == 2
        assert BINARY16ALT.storage_bytes == 2
        assert BINARY32.storage_bytes == 4
        # The 4x/2x footprint ratio is the paper's memory argument.
        assert len(pack(np.ones(64), BINARY32)) == 4 * len(
            pack(np.ones(64), BINARY8)
        )


class TestEveryPattern:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_binary8_patterns_roundtrip(self, backend):
        # All 256 patterns: the array paths agree with the scalar ones,
        # and encoding inverts decoding except for NaN payloads.
        patterns = np.arange(1 << BINARY8.bits, dtype=np.uint64)
        with use_backend(backend):
            values = decode_array(patterns, BINARY8)
            scalar = [decode(int(p), BINARY8) for p in patterns]
            np.testing.assert_array_equal(values, scalar)
            nan = np.isnan(values)
            bits = encode_array(values, BINARY8)
            np.testing.assert_array_equal(bits[~nan], patterns[~nan])
            assert [encode(float(v), BINARY8) for v in values[~nan]] == (
                patterns[~nan].tolist()
            )
