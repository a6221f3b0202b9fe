"""Tests for the quantizers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.quant.quantizer import (
    ClippedSoftmaxInputQuantizer,
    QuantizedTensor,
    SymmetricQuantizer,
    default_clipping_threshold,
)


class TestDefaultClippingThreshold:
    def test_paper_values(self):
        assert default_clipping_threshold(4) == -4.0
        assert default_clipping_threshold(6) == -7.0
        assert default_clipping_threshold(8) == -7.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            default_clipping_threshold(0)


class TestQuantizedTensor:
    def test_dequantize(self):
        q = QuantizedTensor(values=np.array([1, 2]), scale=0.5, bits=8)
        assert np.allclose(q.dequantize(), [0.5, 1.0])
        assert q.shape == (2,)

    def test_rejects_float_values(self):
        with pytest.raises(TypeError):
            QuantizedTensor(values=np.array([1.0]), scale=1.0, bits=8)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            QuantizedTensor(values=np.array([1]), scale=0.0, bits=8)


class TestSymmetricQuantizer:
    def test_roundtrip_error_bounded(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 3, 100)
        quantizer = SymmetricQuantizer(8)
        q = quantizer.quantize(x)
        error = np.max(np.abs(quantizer.dequantize(q) - x))
        assert error <= q.scale / 2 + 1e-12

    def test_zero_tensor(self):
        quantizer = SymmetricQuantizer(8)
        q = quantizer.quantize(np.zeros(4))
        assert np.all(q.values == 0)

    def test_needs_two_bits(self):
        with pytest.raises(ValueError):
            SymmetricQuantizer(1)

    @given(st.integers(min_value=2, max_value=12))
    def test_values_in_signed_range(self, bits):
        rng = np.random.default_rng(bits)
        x = rng.normal(0, 10, 50)
        q = SymmetricQuantizer(bits).quantize(x)
        assert np.all(q.values <= 2 ** (bits - 1) - 1)
        assert np.all(q.values >= -(2 ** (bits - 1)))


class TestClippedSoftmaxInputQuantizer:
    def test_scale_matches_clip_range(self):
        quantizer = ClippedSoftmaxInputQuantizer(6)
        assert quantizer.scale == pytest.approx(7.0 / 63.0)

    def test_values_non_positive_and_in_range(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 3, (4, 32))
        q = ClippedSoftmaxInputQuantizer(6).quantize(x)
        assert np.all(q.values <= 0)
        assert np.all(q.values >= -63)

    def test_stabilisation_makes_max_zero(self):
        x = np.array([[1.0, 3.0, 2.0]])
        q = ClippedSoftmaxInputQuantizer(8).quantize(x)
        assert q.values.max() == 0

    def test_rejects_positive_without_stabilise(self):
        with pytest.raises(ValueError):
            ClippedSoftmaxInputQuantizer(8).quantize(np.array([1.0]), stabilise=False)

    def test_accepts_non_positive_without_stabilise(self):
        q = ClippedSoftmaxInputQuantizer(8).quantize(np.array([-1.0, 0.0]), stabilise=False)
        assert q.values[1] == 0

    def test_clipping_below_threshold(self):
        quantizer = ClippedSoftmaxInputQuantizer(6)
        q = quantizer.quantize(np.array([-100.0, 0.0]), stabilise=False)
        assert q.values[0] == -63

    @pytest.mark.parametrize("stabilise", [False, True])
    def test_quantize_leaves_its_input_unchanged(self, stabilise):
        """The in-place clip, divide, round and clip write only buffers the
        call owns, and give the bits of the out-of-place formula."""
        rng = np.random.default_rng(2)
        x = -np.abs(rng.normal(0, 4, (3, 17)))
        before = x.copy()
        quantizer = ClippedSoftmaxInputQuantizer(6)
        values = quantizer.quantize(x, stabilise=stabilise).values
        assert np.array_equal(x, before)
        stable = x - x.max(axis=-1, keepdims=True) if stabilise else x
        clipped = np.clip(stable, quantizer.clip_threshold, 0.0)
        expected = np.clip(np.round(clipped / quantizer.scale), -63, 0)
        assert np.array_equal(values, expected.astype(np.int64))

    def test_rejects_positive_threshold(self):
        with pytest.raises(ValueError):
            ClippedSoftmaxInputQuantizer(6, clip_threshold=1.0)

    @given(st.sampled_from([4, 5, 6, 7, 8]), st.integers(0, 1000))
    def test_dequantized_values_within_clip_range(self, bits, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 4, 16)
        quantizer = ClippedSoftmaxInputQuantizer(bits)
        values = quantizer.dequantize(quantizer.quantize(x))
        assert np.all(values <= 1e-12)
        assert np.all(values >= quantizer.clip_threshold - 1e-12)
