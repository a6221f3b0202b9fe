"""Quantizers used by the integer-only softmax.

Two quantizers are provided:

* :class:`SymmetricQuantizer` — standard symmetric (zero-point free)
  quantization, used for generic activations/weights and in tests as a
  reference behaviour.
* :class:`ClippedSoftmaxInputQuantizer` — the quantizer the SoftmAP paper
  applies to softmax inputs.  Softmax is shift invariant, so the input is
  first stabilised by subtracting its maximum; the resulting values are
  non-positive and are clipped to ``[TC, 0]`` before being quantized with a
  fixed scaling factor ``S = |TC| / (2**M - 1)``.  The clipping threshold is
  chosen per bit width exactly as in Section V-A of the paper: ``TC = -7``
  for ``M`` in {6, 8} and ``TC = -4`` for ``M = 4``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.utils.bitwidth import signed_max, signed_min, unsigned_max
from repro.utils.validation import check_positive_int

__all__ = [
    "QuantizedTensor",
    "SymmetricQuantizer",
    "ClippedSoftmaxInputQuantizer",
    "default_clipping_threshold",
]


def default_clipping_threshold(bits: int) -> float:
    """Clipping threshold ``TC`` used by the paper for a given bit width.

    The paper selects ``TC = -7`` for 6/8-bit inputs and ``TC = -4`` for
    4-bit inputs (coarser quantization needs a tighter range to keep the
    resolution usable).  Bit widths not studied in the paper fall back to
    ``-7`` which covers ``exp(x) > 1e-3``.
    """
    check_positive_int(bits, "bits")
    if bits <= 4:
        return -4.0
    return -7.0


@dataclass(frozen=True)
class QuantizedTensor:
    """An integer tensor together with its scaling factor.

    The represented real value is ``values * scale``.  ``bits`` records the
    storage width of the integer values (including sign when ``signed``).
    """

    values: np.ndarray
    scale: float
    bits: int
    signed: bool = True

    def dequantize(self) -> np.ndarray:
        """Return the real-valued tensor ``values * scale``."""
        return self.values.astype(np.float64) * self.scale

    @property
    def shape(self):
        """Shape of the underlying integer array."""
        return self.values.shape

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError(f"scale must be > 0, got {self.scale}")
        if self.bits < 1:
            raise ValueError(f"bits must be >= 1, got {self.bits}")
        values = np.asarray(self.values)
        if not np.issubdtype(values.dtype, np.integer):
            raise TypeError("QuantizedTensor values must have an integer dtype")
        object.__setattr__(self, "values", values)


class SymmetricQuantizer:
    """Symmetric (zero-point free) quantizer.

    The scale is derived from the maximum absolute value of the calibrated
    tensor: ``scale = max(|x|) / (2**(bits-1) - 1)``.  Quantized values are
    clamped to the signed ``bits``-wide range.
    """

    def __init__(self, bits: int) -> None:
        self.bits = check_positive_int(bits, "bits")
        if bits < 2:
            raise ValueError("symmetric quantization needs at least 2 bits")

    def calibrate(self, x: np.ndarray) -> float:
        """Compute the scaling factor for tensor ``x``."""
        x = np.asarray(x, dtype=np.float64)
        max_abs = float(np.max(np.abs(x))) if x.size else 0.0
        if max_abs == 0.0:
            return 1.0
        return max_abs / signed_max(self.bits)

    def quantize(self, x: np.ndarray, scale: Optional[float] = None) -> QuantizedTensor:
        """Quantize ``x`` with the provided (or freshly calibrated) scale."""
        x = np.asarray(x, dtype=np.float64)
        if scale is None:
            scale = self.calibrate(x)
        if scale <= 0:
            raise ValueError(f"scale must be > 0, got {scale}")
        q = np.round(x / scale)
        q = np.clip(q, signed_min(self.bits), signed_max(self.bits))
        return QuantizedTensor(values=q.astype(np.int64), scale=scale, bits=self.bits)

    def dequantize(self, q: QuantizedTensor) -> np.ndarray:
        """Recover the real values of ``q``."""
        return q.dequantize()


class ClippedSoftmaxInputQuantizer:
    """Quantizer for (stabilised) softmax inputs, as used by SoftmAP.

    Inputs are expected after max-subtraction, i.e. non-positive.  Values
    below the clipping threshold ``TC`` are clipped (they contribute
    ``exp(x) < exp(TC)``, which is negligible for the chosen thresholds) and
    the range ``[TC, 0]`` is quantized uniformly with

    ``S = |TC| / (2**bits - 1)``

    so quantized values lie in ``{-(2**bits - 1), ..., 0}``.  Because the
    values are known to be non-positive, the full ``bits`` bits are spent on
    magnitude (the sign is implicit), which matches the Table I entry that
    stores ``v`` in ``M`` bits and keeps the polynomial constants ``vb`` and
    ``vc`` finely quantized.  Note: with this scale ``vln2 = floor(ln2/S)``
    needs 5 bits for ``M = 8`` (Table I lists 4); EXPERIMENTS.md records the
    discrepancy.

    Parameters
    ----------
    bits:
        Number of bits ``M`` for the quantized input.
    clip_threshold:
        Negative clipping threshold ``TC``; defaults to the paper's choice
        for the given bit width (see :func:`default_clipping_threshold`).
    """

    def __init__(self, bits: int, clip_threshold: Optional[float] = None) -> None:
        self.bits = check_positive_int(bits, "bits")
        if clip_threshold is None:
            clip_threshold = default_clipping_threshold(bits)
        if clip_threshold >= 0:
            raise ValueError(
                f"clip_threshold must be negative, got {clip_threshold}"
            )
        self.clip_threshold = float(clip_threshold)
        if bits < 2:
            raise ValueError("softmax input quantization needs at least 2 bits")
        self.scale = abs(self.clip_threshold) / unsigned_max(self.bits)

    def quantize(self, x: np.ndarray, stabilise: bool = True) -> QuantizedTensor:
        """Quantize softmax inputs ``x``.

        Parameters
        ----------
        x:
            Real-valued logits.  If ``stabilise`` is true (default) the
            per-row maximum (last axis) is subtracted first, which mirrors
            line 4 of Algorithm 1 being performed in floating point before
            quantization; the quantized values are then guaranteed to be
            non-positive.
        stabilise:
            Whether to subtract the row-wise maximum before clipping.
        """
        x = np.asarray(x, dtype=np.float64)
        owned = stabilise and x.size
        if owned:
            x = x - np.max(x, axis=-1, keepdims=True)
        if np.any(x > 1e-9):
            raise ValueError(
                "softmax input quantizer expects non-positive values; "
                "pass stabilise=True or pre-subtract the maximum"
            )
        # One float buffer the call owns (the stabilised copy, else the
        # first clip's output) carries clip, divide, round and clip in
        # place; the caller's array is never written.
        q = x if owned else np.empty_like(x)
        np.clip(x, self.clip_threshold, 0.0, out=q)
        np.divide(q, self.scale, out=q)
        np.round(q, out=q)
        np.clip(q, -unsigned_max(self.bits), 0, out=q)
        return QuantizedTensor(
            values=q.astype(np.int64), scale=self.scale, bits=self.bits
        )

    def dequantize(self, q: QuantizedTensor) -> np.ndarray:
        """Recover the real (clipped) values of ``q``."""
        return q.dequantize()
