"""Graph-free batched inference for :class:`~repro.llm.model.TinyLlamaModel`.

:meth:`TinyLlamaModel.forward` is the *training* path: it builds an autograd
graph, loops over attention heads (``4 * h`` small matmuls per layer) and
handles exactly one segment per call.  Evaluation needs none of that — the
perplexity protocol is forward-only — so this module provides the fast path
the experiments run on.  Three stacked optimisations, each bit-identical to
the seed path at float64:

**Stacked-head attention.**  The per-head ``wq/wk/wv/wo`` Parameter lists
stay as they are (the trainer differentiates them head by head), but the
inference path consumes them as head-major ``(h, d, hd)`` stacks — cached
on the model, invalidated via the Parameter version counters — so each
layer runs four broadcast einsums (``np.matmul`` with a stacked operand)
instead of ``4 * h`` Python-loop matmuls.  numpy executes a stacked matmul
as one BLAS GEMM per 2-D slice, i.e. exactly the seed's per-head products,
which is what keeps the results bit-identical rather than merely close.

**Graph-free batched forward.**  :func:`infer` takes a whole ``(B, T)``
token batch, allocates no ``Tensor``, and evaluates every segment in one
pass; the forward-only kernels are shared with the autograd ops
(:mod:`repro.nn.functional`), not re-derived.  Ragged batches ride along
via ``valid_lengths``: rows are grouped by length and each group runs at
its **natural** width (causal attention guarantees a segment's logits
never depend on anything beyond its own tokens), so every BLAS call and
every pairwise reduction has exactly the shape the seed path used — the
structural property behind the bit-identity (zero-padding instead would
perturb numpy's pairwise summations in the last ulp).  A perplexity
evaluation has at most two groups: the full segments and the ragged tail.

**One wide softmax call per layer.**  A replacement softmax receives all
heads of all same-width segments as a single head-major ``(h*B*T, T)``
score matrix — row ``h*(B*T) + b*T + i`` holds query row ``i`` of segment
``b`` of head ``h`` — with the per-row causal prefix lengths.  That is
exactly the layout :class:`~repro.mapping.cluster.ApCluster` shards across
its per-head APs in one fused compiled-plan pass, so batching segments
multiplies the fused plan's row space instead of starving it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.llm.model import causal_batched_softmax, resolve_softmax_fn
from repro.nn.functional import rms_norm_forward, silu_forward, softmax_forward
from repro.utils.validation import check_integer_lengths

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.llm.model import SoftmaxFn, TinyLlamaModel

__all__ = ["infer"]


def infer(
    model: "TinyLlamaModel",
    tokens: np.ndarray,
    valid_lengths: Optional[np.ndarray] = None,
    softmax_fn: Optional["SoftmaxFn"] = None,
    backend: Optional[object] = None,
) -> np.ndarray:
    """Next-token logits for a batch of token segments, graph-free.

    Parameters
    ----------
    model:
        The model to evaluate.
    tokens:
        Integer token ids of shape ``(B, T)`` — one row per evaluation
        segment — or a single ``(T,)`` sequence.  ``T <= max_context``.
    valid_lengths:
        Optional per-segment token counts (shape ``(B,)``, entries in
        ``1..T``) for ragged batches: row ``b``'s tokens at positions
        ``>= valid_lengths[b]`` are ignored.  Rows sharing a length are
        evaluated together at that width, so the logits at positions
        ``< valid_lengths[b]`` are bit-identical to forwarding the
        unpadded segment alone; logits at ignored positions are zero.
    softmax_fn / backend:
        Optional replacement attention softmax, as a raw callable or a
        runtime backend (at most one; see
        :func:`~repro.llm.model.resolve_softmax_fn`).

    Returns
    -------
    numpy.ndarray
        Float64 logits of shape ``(B, T, vocab)`` (``(T, vocab)`` for 1-D
        input).  No autograd graph is recorded.
    """
    softmax_fn = resolve_softmax_fn(model.config, softmax_fn, backend)
    tokens = np.asarray(tokens, dtype=np.int64)
    squeeze = tokens.ndim == 1
    if squeeze:
        tokens = tokens[None, :]
    if tokens.ndim != 2:
        raise ValueError("infer expects a (B, T) token batch or a 1-D sequence")
    batch, t = tokens.shape
    if batch < 1 or t < 1:
        raise ValueError("infer needs at least one token per segment")
    if t > model.config.max_context:
        raise ValueError(
            f"sequence of length {t} exceeds max context {model.config.max_context}"
        )
    lengths = _check_valid_lengths(valid_lengths, batch, t)

    if lengths is None or np.all(lengths == t):
        logits = _forward_batch(model, tokens, softmax_fn)
    else:
        logits = np.zeros((batch, t, model.config.vocab_size))
        for length in np.unique(lengths):
            rows = lengths == length
            logits[rows, :length] = _forward_batch(
                model, tokens[rows][:, :length], softmax_fn
            )
    return logits[0] if squeeze else logits


def _check_valid_lengths(
    valid_lengths: Optional[np.ndarray], batch: int, t: int
) -> Optional[np.ndarray]:
    if valid_lengths is None:
        return None
    lengths = np.asarray(valid_lengths)
    # Strict shape check *before* any flattening: a (B, 1) or (1, B) array
    # reshapes silently to (B,) but almost certainly means the caller built
    # the wrong layout — reject anything that is not already 1-D.
    if lengths.ndim != 1 or lengths.shape != (batch,):
        raise ValueError(
            f"valid_lengths must be 1-D and hold one entry per segment "
            f"({batch}), got shape {lengths.shape}"
        )
    lengths = check_integer_lengths(lengths)
    if np.any(lengths < 1) or np.any(lengths > t):
        raise ValueError("valid_lengths must lie in 1..T for every segment")
    return lengths


def _forward_batch(
    model: "TinyLlamaModel",
    tokens: np.ndarray,
    softmax_fn: Optional["SoftmaxFn"],
    kv_sink: Optional[list] = None,
) -> np.ndarray:
    """The batched decoder stack over a uniform-width ``(B, T)`` batch.

    ``kv_sink``, when given, collects each layer's key/value projections as
    ``(B, h, T, hd)`` array pairs — the KV-cache prefill
    (:mod:`repro.llm.generate`) reuses this exact forward pass and seeds its
    cache from the sink, so the cached keys are the very arrays the prefill
    logits were computed from.
    """
    t = tokens.shape[1]
    mask = model.causal_mask(t)
    positions = model.position_ids(t)
    scale_factor = 1.0 / np.sqrt(model.config.head_dim)

    x = model.token_embedding.data[tokens] + model.position_embedding.data[positions]
    for index, layer in enumerate(model.layers):
        x = x + _attention(model, x, index, mask, scale_factor, softmax_fn, kv_sink)
        x = x + _feed_forward(x, layer)
    x = rms_norm_forward(x, model.final_norm.data)
    return np.matmul(x, model.output_head.data)


# --------------------------------------------------------------------------- #
# Blocks                                                                       #
# --------------------------------------------------------------------------- #
def _attention(
    model: "TinyLlamaModel",
    x: np.ndarray,
    layer_index: int,
    mask: np.ndarray,
    scale_factor: float,
    softmax_fn: Optional["SoftmaxFn"],
    kv_sink: Optional[list] = None,
) -> np.ndarray:
    """Multi-head causal self-attention over a ``(B, T, d)`` activation.

    Every projection is one stacked matmul (BLAS runs the seed's per-head
    GEMM per 2-D slice); the head outputs are accumulated in head order so
    the floating-point sum matches the seed's sequential reduction exactly.
    """
    layer = model.layers[layer_index]
    stacks = model.stacked_attention_weights(layer_index)
    normed = rms_norm_forward(x, layer["attn_norm"].data)
    hidden = normed[:, None]  # (B, 1, T, d) broadcast against (h, d, hd)
    q = np.matmul(hidden, stacks.wq)  # (B, h, T, hd)
    k = np.matmul(hidden, stacks.wk)
    v = np.matmul(hidden, stacks.wv)
    if kv_sink is not None:
        kv_sink.append((k, v))
    scores = np.matmul(q, k.transpose(0, 1, 3, 2)) * scale_factor  # (B, h, T, T)

    if softmax_fn is None:
        probabilities = softmax_forward(scores + mask)
    else:
        probabilities = _batched_replacement_softmax(scores, softmax_fn)

    context = np.matmul(probabilities, v)  # (B, h, T, hd)
    projected = np.matmul(context, stacks.wo)  # (B, h, T, d)
    output = projected[:, 0]
    for head in range(1, model.config.num_heads):
        output = output + projected[:, head]
    return output


def _feed_forward(x: np.ndarray, layer: dict) -> np.ndarray:
    normed = rms_norm_forward(x, layer["ffn_norm"].data)
    gate = silu_forward(np.matmul(normed, layer["w_gate"].data))
    up = np.matmul(normed, layer["w_up"].data)
    return np.matmul(gate * up, layer["w_down"].data)


# --------------------------------------------------------------------------- #
# Replacement softmax dispatch                                                 #
# --------------------------------------------------------------------------- #
def _batched_replacement_softmax(
    scores: np.ndarray, softmax_fn: "SoftmaxFn"
) -> np.ndarray:
    """One head-major softmax call covering every segment, head and row.

    The ``(B, h, T, T)`` score tensor is flattened to ``(h*B*T, T)`` —
    head-major, then segment-major within a head, so the per-head blocks
    match :class:`~repro.mapping.cluster.ApCluster`'s 2-D contract — and
    dispatched through :func:`~repro.llm.model.causal_batched_softmax`,
    the same contract authority the autograd forward uses (tiled causal
    lengths, shape validation, causal re-mask).
    """
    b, h, t = scores.shape[0], scores.shape[1], scores.shape[2]
    stacked = scores.transpose(1, 0, 2, 3).reshape(h * b * t, t)
    probabilities = causal_batched_softmax(stacked, softmax_fn)
    return probabilities.reshape(h, b, t, t).transpose(1, 0, 2, 3)
