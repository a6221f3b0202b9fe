"""Tiny Llama-architecture decoder-only transformer in numpy.

The model mirrors the structure of a Llama2 decoder block (Fig. 2 of the
paper): RMSNorm -> multi-head causal self-attention -> residual -> RMSNorm
-> SwiGLU feed-forward -> residual, with a final RMSNorm and a linear
output head.  Two deliberate simplifications versus the full Llama2
architecture are documented in DESIGN.md: learned absolute position
embeddings replace rotary embeddings, and the model is small enough to
train on the synthetic corpus in seconds.

The attention softmax is pluggable: during training the differentiable
floating-point softmax is used; during evaluation a replacement can be
substituted for it, which is exactly how the SoftmAP hardware would see the
scores (the AP is handed only the valid keys of each query).  A replacement
is either a runtime backend (``backend=``: a name, a
:class:`~repro.runtime.backend.BackendSpec` or a resolved backend) or a raw
callable (``softmax_fn=``) with one contract: it maps a head-major
``(rows, seq)`` score matrix to probabilities of the same shape, receiving
the per-row causal prefix lengths via a ``valid_lengths`` keyword and
returning zeros at the masked positions (see
:func:`causal_batched_softmax`).  The model issues **one** call per layer
covering every head and query row — the shape
:class:`~repro.mapping.cluster.ApCluster` shards across its per-head APs.
A backend's ``softmax_fn()`` implements the contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.llm.config import LlamaConfig, TINY_LLAMA
from repro.nn.autograd import Parameter, Tensor, no_grad
from repro.nn.functional import (
    add,
    cross_entropy,
    embedding,
    matmul,
    mul,
    rms_norm,
    scale,
    silu,
    softmax_op,
)
from repro.utils.validation import check_integer_lengths

__all__ = [
    "TinyLlamaModel",
    "SoftmaxFn",
    "StackedAttentionWeights",
    "causal_batched_softmax",
    "resolve_softmax_fn",
]


def causal_batched_softmax(
    stacked: np.ndarray,
    softmax_fn: "SoftmaxFn",
    valid_lengths: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Apply a batched replacement softmax to stacked causal score rows.

    This is the single authority for the head-major row-space contract;
    the autograd forward, the graph-free inference path and the KV-cache
    decoder all dispatch through it.  The layout is **head-major, then
    segment-major**: a batch of ``B`` segments of ``T`` queries under ``h``
    heads stacks to an ``(h * B * T, T)`` matrix whose row
    ``head * (B * T) + b * T + i`` is query row ``i`` of segment ``b`` of
    ``head`` — every head's rows form one contiguous block, which is the
    slicing :class:`~repro.mapping.cluster.ApCluster` shards across its
    per-head APs.

    Two row shapes are supported:

    * ``valid_lengths=None`` (prefill): ``stacked`` is ``(blocks * t, t)``
      where every ``t``-row block is one causal ``(t, t)`` score matrix —
      row ``i`` attends to keys ``0..i`` and the per-row prefix lengths
      ``1..t`` are derived by tiling.
    * explicit ``valid_lengths`` (decode): each row is one independent
      query with its own prefix length — an incremental decode step passes
      ``(B * h, t)`` rows all attending to the full ``t``-entry KV cache.

    The callable receives the whole matrix plus the per-row prefix lengths
    and the returned probabilities are re-masked with the validity pattern
    — a no-op for a conforming callable, but it guarantees causality
    regardless of the replacement.
    """
    t = stacked.shape[1]
    if valid_lengths is None:
        if stacked.shape[0] % t != 0:
            raise ValueError(
                f"stacked causal blocks need rows divisible by t={t}, "
                f"got {stacked.shape[0]} rows"
            )
        blocks = stacked.shape[0] // t
        lengths = np.tile(np.arange(1, t + 1, dtype=np.int64), blocks)
    else:
        lengths = check_integer_lengths(valid_lengths)
        if lengths.shape != (stacked.shape[0],):
            raise ValueError(
                f"valid_lengths must have shape ({stacked.shape[0]},) — one "
                f"entry per score row — got {lengths.shape}"
            )
        if lengths.size and (lengths.min() < 1 or lengths.max() > t):
            raise ValueError(
                f"valid_lengths must lie in 1..{t}, got "
                f"[{lengths.min()}, {lengths.max()}]"
            )
    probabilities = np.asarray(
        softmax_fn(stacked, valid_lengths=lengths), dtype=np.float64
    )
    if probabilities.shape != stacked.shape:
        raise ValueError(
            f"batched softmax_fn returned shape {probabilities.shape}, "
            f"expected {stacked.shape}"
        )
    return np.where(
        np.arange(t)[None, :] < lengths[:, None], probabilities, 0.0
    )

#: A softmax replacement: receives a head-major ``(rows, seq)`` score
#: matrix plus a ``valid_lengths`` keyword (one causal prefix length per
#: row) and returns a ``(rows, seq)`` probability matrix with zeros at the
#: masked positions.
SoftmaxFn = Callable[..., np.ndarray]


def resolve_softmax_fn(
    config: LlamaConfig,
    softmax_fn: Optional[SoftmaxFn] = None,
    backend: Optional[object] = None,
) -> Optional[SoftmaxFn]:
    """The replacement attention softmax picked by ``softmax_fn`` or
    ``backend`` (at most one of them), or ``None`` for the float softmax.

    A ``backend`` — a name, a :class:`~repro.runtime.backend.BackendSpec`
    or a resolved backend — is resolved with the model's head count and
    context width filling in unspecified spec fields.
    """
    if backend is None:
        return softmax_fn
    if softmax_fn is not None:
        raise ValueError("pass either softmax_fn or backend, not both")
    # Imported lazily: the base substrate must stay importable without
    # pulling the whole runtime/mapping/gpu stack in.
    from repro.runtime.backend import resolve_model_backend

    return resolve_model_backend(
        backend, config.num_heads, config.max_context
    ).softmax_fn()


@dataclass(frozen=True)
class StackedAttentionWeights:
    """One layer's attention projections stacked head-major.

    The trainer keeps per-head ``Parameter`` lists (one small matmul per
    head per projection, which is what the autograd engine differentiates);
    the inference path consumes the same weights as ``(h, d, hd)`` /
    ``(h, hd, d)`` stacks so each layer runs four broadcast einsums instead
    of ``4 * h`` Python-loop matmuls.  Built (and cached) by
    :meth:`TinyLlamaModel.stacked_attention_weights`.
    """

    wq: np.ndarray  # (heads, hidden, head_dim)
    wk: np.ndarray  # (heads, hidden, head_dim)
    wv: np.ndarray  # (heads, hidden, head_dim)
    wo: np.ndarray  # (heads, head_dim, hidden)


class TinyLlamaModel:
    """A small decoder-only transformer with Llama-style blocks.

    Parameters
    ----------
    config:
        Model shape; defaults to :data:`~repro.llm.config.TINY_LLAMA`.
    seed:
        Seed of the weight initialisation.
    """

    def __init__(self, config: LlamaConfig = TINY_LLAMA, seed: int = 0) -> None:
        self.config = config
        rng = np.random.default_rng(seed)
        d = config.hidden_size
        h = config.num_heads
        hd = config.head_dim
        f = config.intermediate_size
        v = config.vocab_size

        def init(*shape):
            return Parameter(rng.normal(0.0, 0.02, size=shape))

        self.token_embedding = init(v, d)
        self.position_embedding = init(config.max_context, d)
        self.layers: List[dict] = []
        for _ in range(config.num_layers):
            layer = {
                "attn_norm": Parameter(np.ones(d)),
                "wq": [init(d, hd) for _ in range(h)],
                "wk": [init(d, hd) for _ in range(h)],
                "wv": [init(d, hd) for _ in range(h)],
                "wo": [init(hd, d) for _ in range(h)],
                "ffn_norm": Parameter(np.ones(d)),
                "w_gate": init(d, f),
                "w_up": init(d, f),
                "w_down": init(f, d),
            }
            self.layers.append(layer)
        self.final_norm = Parameter(np.ones(d))
        self.output_head = init(d, v)
        # Inference-path caches: the (t, t) causal mask / position ids per
        # sequence length, and the per-layer stacked-head attention weights
        # (validated against the constituent Parameter versions).
        self._mask_cache: Dict[int, np.ndarray] = {}
        self._position_cache: Dict[int, np.ndarray] = {}
        self._stacked_cache: Dict[int, Tuple[Tuple[int, ...], StackedAttentionWeights]] = {}

    # ------------------------------------------------------------------ #
    # Parameters                                                           #
    # ------------------------------------------------------------------ #
    def parameters(self) -> List[Parameter]:
        """All trainable parameters (for the optimiser)."""
        params: List[Parameter] = [
            self.token_embedding,
            self.position_embedding,
            self.final_norm,
            self.output_head,
        ]
        for layer in self.layers:
            params.extend([layer["attn_norm"], layer["ffn_norm"],
                           layer["w_gate"], layer["w_up"], layer["w_down"]])
            for key in ("wq", "wk", "wv", "wo"):
                params.extend(layer[key])
        return params

    def parameter_count(self) -> int:
        """Total number of scalar parameters."""
        return int(sum(p.data.size for p in self.parameters()))

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat ``name -> weight array`` snapshot of every parameter.

        The arrays are copies, so a snapshot is stable under further
        training.  Together with :meth:`load_state_dict` this is how the
        parallel sweep runner ships trained weights to worker processes
        without re-running the trainer per worker.
        """
        state: Dict[str, np.ndarray] = {
            "token_embedding": self.token_embedding.data.copy(),
            "position_embedding": self.position_embedding.data.copy(),
            "final_norm": self.final_norm.data.copy(),
            "output_head": self.output_head.data.copy(),
        }
        for index, layer in enumerate(self.layers):
            for key in ("attn_norm", "ffn_norm", "w_gate", "w_up", "w_down"):
                state[f"layers.{index}.{key}"] = layer[key].data.copy()
            for key in ("wq", "wk", "wv", "wo"):
                for head, parameter in enumerate(layer[key]):
                    state[f"layers.{index}.{key}.{head}"] = parameter.data.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load a :meth:`state_dict` snapshot (shapes must match).

        Every write is an assignment through ``Parameter.data``, so the
        stacked-weight cache invalidates itself via the version counters.
        """
        def assign(parameter: Parameter, name: str) -> None:
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != parameter.data.shape:
                raise ValueError(
                    f"state entry {name!r} has shape {value.shape}, "
                    f"expected {parameter.data.shape}"
                )
            parameter.data = value

        assign(self.token_embedding, "token_embedding")
        assign(self.position_embedding, "position_embedding")
        assign(self.final_norm, "final_norm")
        assign(self.output_head, "output_head")
        for index, layer in enumerate(self.layers):
            for key in ("attn_norm", "ffn_norm", "w_gate", "w_up", "w_down"):
                assign(layer[key], f"layers.{index}.{key}")
            for key in ("wq", "wk", "wv", "wo"):
                for head, parameter in enumerate(layer[key]):
                    assign(parameter, f"layers.{index}.{key}.{head}")

    # ------------------------------------------------------------------ #
    # Inference-path caches                                                #
    # ------------------------------------------------------------------ #
    def causal_mask(self, sequence_length: int) -> np.ndarray:
        """The additive ``(t, t)`` causal mask, cached per sequence length.

        ``forward`` used to reallocate ``np.triu(np.full((t, t), -1e30))``
        on every call — every segment of every sweep configuration.  The
        cached array is marked read-only; it is only ever *added* to score
        tensors.
        """
        mask = self._mask_cache.get(sequence_length)
        if mask is None:
            mask = np.triu(np.full((sequence_length, sequence_length), -1e30), k=1)
            mask.flags.writeable = False
            self._mask_cache[sequence_length] = mask
        return mask

    def position_ids(self, sequence_length: int) -> np.ndarray:
        """``arange(t)`` position ids, cached per sequence length."""
        positions = self._position_cache.get(sequence_length)
        if positions is None:
            positions = np.arange(sequence_length)
            positions.flags.writeable = False
            self._position_cache[sequence_length] = positions
        return positions

    def stacked_attention_weights(self, layer_index: int) -> StackedAttentionWeights:
        """Layer ``layer_index``'s attention weights stacked head-major.

        The stacks are cached on the model and validated against the
        constituent :class:`~repro.nn.autograd.Parameter` version counters,
        so any optimiser step (an assignment through ``Parameter.data``)
        invalidates them automatically.  In-place *slice* surgery on a
        weight (``p.data[0] = ...``) bypasses the counters — call
        :meth:`invalidate_inference_cache` afterwards.
        """
        layer = self.layers[layer_index]
        versions = tuple(
            p.version for key in ("wq", "wk", "wv", "wo") for p in layer[key]
        )
        cached = self._stacked_cache.get(layer_index)
        if cached is not None and cached[0] == versions:
            return cached[1]
        stacks = StackedAttentionWeights(
            wq=np.stack([p.data for p in layer["wq"]]),
            wk=np.stack([p.data for p in layer["wk"]]),
            wv=np.stack([p.data for p in layer["wv"]]),
            wo=np.stack([p.data for p in layer["wo"]]),
        )
        self._stacked_cache[layer_index] = (versions, stacks)
        return stacks

    def invalidate_inference_cache(self) -> None:
        """Drop the stacked-weight cache (after in-place weight surgery).

        The mask/position caches depend only on shapes and never go stale.
        """
        self._stacked_cache.clear()

    # ------------------------------------------------------------------ #
    # Forward                                                              #
    # ------------------------------------------------------------------ #
    def forward(
        self,
        tokens: np.ndarray,
        softmax_fn: Optional[SoftmaxFn] = None,
        backend: Optional[object] = None,
    ) -> Tensor:
        """Compute next-token logits for a 1-D token id sequence.

        Parameters
        ----------
        tokens:
            Integer token ids of shape ``(T,)`` with ``T <= max_context``.
        softmax_fn / backend:
            Optional replacement for the attention softmax (see
            :func:`resolve_softmax_fn`; at most one of the two).  Must only
            be used for evaluation (no gradients flow through it).
        """
        softmax_fn = resolve_softmax_fn(self.config, softmax_fn, backend)
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 1:
            raise ValueError("forward expects a 1-D token sequence")
        t = tokens.shape[0]
        if t > self.config.max_context:
            raise ValueError(
                f"sequence of length {t} exceeds max context {self.config.max_context}"
            )
        causal_mask = self.causal_mask(t)
        scale_factor = 1.0 / np.sqrt(self.config.head_dim)

        positions = self.position_ids(t)
        x = add(
            embedding(self.token_embedding, tokens),
            embedding(self.position_embedding, positions),
        )
        for layer in self.layers:
            x = add(x, self._attention(x, layer, causal_mask, scale_factor, softmax_fn))
            x = add(x, self._feed_forward(x, layer))
        x = rms_norm(x, self.final_norm)
        return matmul(x, self.output_head)

    def loss(
        self,
        tokens: np.ndarray,
        softmax_fn: Optional[SoftmaxFn] = None,
        backend: Optional[object] = None,
    ) -> Tensor:
        """Mean next-token cross entropy on a token sequence."""
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.shape[0] < 2:
            raise ValueError("need at least two tokens to form a prediction target")
        logits = self.forward(tokens[:-1], softmax_fn=softmax_fn, backend=backend)
        return cross_entropy(logits, tokens[1:])

    def infer(
        self,
        tokens: np.ndarray,
        valid_lengths: Optional[np.ndarray] = None,
        softmax_fn: Optional[SoftmaxFn] = None,
        backend: Optional[object] = None,
    ) -> np.ndarray:
        """Graph-free batched next-token logits (the fast inference path).

        Accepts a ``(B, T)`` token batch (or a single ``(T,)`` sequence)
        and returns plain float64 logits of shape ``(B, T, vocab)`` (or
        ``(T, vocab)``), bit-identical to :meth:`forward` on each segment
        — see :func:`repro.llm.infer.infer` for the full contract,
        including ragged segments via ``valid_lengths``.
        """
        # Imported lazily: repro.llm.infer imports this module's types.
        from repro.llm.infer import infer

        return infer(
            self,
            tokens,
            valid_lengths=valid_lengths,
            softmax_fn=softmax_fn,
            backend=backend,
        )

    def generate(
        self,
        prompts: np.ndarray,
        max_new_tokens: int,
        valid_lengths: Optional[np.ndarray] = None,
        softmax_fn: Optional[SoftmaxFn] = None,
        backend: Optional[object] = None,
        temperature: float = 0.0,
        top_k: Optional[int] = None,
        seed: int = 0,
        use_cache: bool = True,
    ) -> np.ndarray:
        """Autoregressive decoding with a per-layer KV cache.

        Accepts a ``(B, P)`` prompt batch (or a single ``(P,)`` prompt,
        ragged batches via ``valid_lengths``) and returns the
        ``(B, max_new_tokens)`` (or ``(max_new_tokens,)``) generated token
        ids — greedy at ``temperature=0.0``, seeded temperature/top-k
        sampling otherwise.  ``use_cache=False`` re-prefills the whole
        sequence every step (the naive baseline the benchmark pins the
        cached path against); both paths produce identical tokens — see
        :func:`repro.llm.generate.generate` for the full contract.
        """
        # Imported lazily: repro.llm.generate imports this module's types.
        from repro.llm.generate import generate

        return generate(
            self,
            prompts,
            max_new_tokens,
            valid_lengths=valid_lengths,
            softmax_fn=softmax_fn,
            backend=backend,
            temperature=temperature,
            top_k=top_k,
            seed=seed,
            use_cache=use_cache,
        )

    # ------------------------------------------------------------------ #
    # Blocks                                                               #
    # ------------------------------------------------------------------ #
    def _attention(
        self,
        x: Tensor,
        layer: dict,
        causal_mask: np.ndarray,
        scale_factor: float,
        softmax_fn: Optional[SoftmaxFn],
    ) -> Tensor:
        normed = rms_norm(x, layer["attn_norm"])
        # Phase 1: per-head scores and values (the score tensors of every
        # head must exist before a batched replacement softmax can shard
        # them across the cluster in a single call).
        head_scores: List[Tensor] = []
        head_values: List[Tensor] = []
        for head in range(self.config.num_heads):
            q = matmul(normed, layer["wq"][head])
            k = matmul(normed, layer["wk"][head])
            head_values.append(matmul(normed, layer["wv"][head]))
            head_scores.append(scale(matmul(q, k, transpose_b=True), scale_factor))

        # Phase 2: attention probabilities for every head.
        if softmax_fn is None:
            head_probabilities = [
                softmax_op(scores, mask=causal_mask) for scores in head_scores
            ]
        else:
            head_probabilities = self._apply_batched_replacement_softmax(
                [scores.data for scores in head_scores], softmax_fn
            )

        # Phase 3: per-head context and output projection.
        head_outputs: Optional[Tensor] = None
        for head in range(self.config.num_heads):
            context = matmul(head_probabilities[head], head_values[head])
            projected = matmul(context, layer["wo"][head])
            head_outputs = projected if head_outputs is None else add(head_outputs, projected)
        return head_outputs

    def _feed_forward(self, x: Tensor, layer: dict) -> Tensor:
        normed = rms_norm(x, layer["ffn_norm"])
        gate = silu(matmul(normed, layer["w_gate"]))
        up = matmul(normed, layer["w_up"])
        return matmul(mul(gate, up), layer["w_down"])

    @staticmethod
    def _apply_batched_replacement_softmax(
        score_matrices: List[np.ndarray], softmax_fn: SoftmaxFn
    ) -> List[Tensor]:
        """Apply the replacement softmax to every head in one call.

        The heads' ``(T, T)`` score matrices are stacked head-major into one
        ``(heads * T, T)`` matrix and dispatched through
        :func:`causal_batched_softmax` (the shared contract authority).
        """
        t = score_matrices[0].shape[0]
        heads = len(score_matrices)
        stacked = np.concatenate(score_matrices, axis=0)
        probabilities = causal_batched_softmax(stacked, softmax_fn)
        return [
            Tensor(probabilities[head * t : (head + 1) * t]) for head in range(heads)
        ]
