"""Decode-path speed experiment: KV-cache generation vs re-prefill.

The perplexity artefacts measure the prefill-shaped protocol; this
experiment measures the deployment scenario the paper's hardware targets —
token-by-token autoregressive generation — by timing
:meth:`~repro.llm.model.TinyLlamaModel.generate` twice on the same model,
prompts and seeded RNG stream:

* ``use_cache=True`` — incremental decode through the per-layer
  :class:`~repro.llm.generate.KVCache` (one single-query attention per
  layer per step);
* ``use_cache=False`` — the naive baseline that re-prefills the whole
  growing sequence every step (quadratic in generated tokens).

Both paths must produce **identical tokens** (``tokens_match``); the
``speedup`` property is the tokens/sec ratio
``benchmarks/test_llm_generate.py`` pins at >= 3x.  The model is
deliberately *untrained*: token parity needs no training (both paths run
the same weights), and a compute-bound shape — wider hidden state, longer
prompt — measures the algorithmic win rather than Python dispatch
overhead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.ap.engine import canonical_engine_name
from repro.llm.config import LlamaConfig
from repro.llm.model import TinyLlamaModel
from repro.runtime.backend import (
    BackendSpec,
    canonical_backend_name,
    resolve_model_backend,
)
from repro.runtime.registry import Experiment, register

__all__ = [
    "GenerateSpeedReport",
    "run_generate_speed",
    "render_generate_speed",
    "GenerateSpeedExperiment",
]


@dataclass(frozen=True)
class GenerateSpeedReport:
    """Speed and token parity of KV-cache decoding vs re-prefill.

    ``cached_seconds`` / ``prefill_seconds`` time the identical generation
    (same prompts, same RNG stream) through the incremental KV-cache path
    and the naive re-prefill baseline; ``tokens_match`` holds only if both
    paths emitted the same token ids for every prompt at every step.
    """

    backend: str
    batch: int
    prompt_length: int
    max_new_tokens: int
    temperature: float
    cached_seconds: float
    prefill_seconds: float
    tokens_match: bool

    @property
    def generated_tokens(self) -> int:
        return self.batch * self.max_new_tokens

    @property
    def cached_tokens_per_second(self) -> float:
        return self.generated_tokens / self.cached_seconds

    @property
    def prefill_tokens_per_second(self) -> float:
        return self.generated_tokens / self.prefill_seconds

    @property
    def speedup(self) -> float:
        return self.prefill_seconds / self.cached_seconds


def run_generate_speed(
    batch: int = 8,
    prompt_length: int = 96,
    max_new_tokens: int = 64,
    hidden_size: int = 128,
    num_heads: int = 4,
    num_layers: int = 2,
    vocab_size: int = 128,
    max_context: int = 256,
    softmax_backend: Optional[str] = None,
    temperature: float = 0.0,
    top_k: Optional[int] = None,
    seed: int = 0,
    engine: Optional[str] = None,
) -> GenerateSpeedReport:
    """Time KV-cache generation against the re-prefill baseline.

    Backend construction (and, for the AP paths, plan compilation of the
    provisioned shape) happens outside both timed windows — the report is
    pure generation time.  ``softmax_backend=None`` (or ``"float"``) runs
    the floating-point attention softmax; ``engine`` selects the
    functional AP engine for the AP-family backends (any engine-registry
    name, e.g. ``"compiled"``).
    """
    canonical = (
        "float"
        if softmax_backend is None
        else canonical_backend_name(softmax_backend)
    )
    if engine is not None:
        engine = canonical_engine_name(engine)
    config = LlamaConfig(
        name="generate-bench",
        num_layers=num_layers,
        num_heads=num_heads,
        num_kv_heads=num_heads,
        hidden_size=hidden_size,
        intermediate_size=2 * hidden_size,
        vocab_size=vocab_size,
        max_context=max_context,
    )
    model = TinyLlamaModel(config, seed=seed)
    rng = np.random.default_rng(seed)
    prompts = rng.integers(0, vocab_size, size=(batch, prompt_length))
    softmax_fn = (
        None
        if canonical == "float"
        else resolve_model_backend(
            BackendSpec(name=canonical, engine=engine),
            config.num_heads,
            config.max_context,
        ).softmax_fn()
    )
    # Warm the shape-dependent caches (stacked weights, masks, positions)
    # and the full batch's matmuls, so neither timed window pays
    # first-touch construction or the first batch-wide BLAS call.
    model.infer(prompts, softmax_fn=softmax_fn)

    start = time.perf_counter()
    cached = model.generate(
        prompts, max_new_tokens, softmax_fn=softmax_fn,
        temperature=temperature, top_k=top_k, seed=seed, use_cache=True,
    )
    cached_seconds = time.perf_counter() - start
    start = time.perf_counter()
    baseline = model.generate(
        prompts, max_new_tokens, softmax_fn=softmax_fn,
        temperature=temperature, top_k=top_k, seed=seed, use_cache=False,
    )
    prefill_seconds = time.perf_counter() - start
    return GenerateSpeedReport(
        backend=canonical,
        batch=batch,
        prompt_length=prompt_length,
        max_new_tokens=max_new_tokens,
        temperature=temperature,
        cached_seconds=cached_seconds,
        prefill_seconds=prefill_seconds,
        tokens_match=bool(np.array_equal(cached, baseline)),
    )


def render_generate_speed(report: GenerateSpeedReport) -> str:
    """Render the decode-speed report."""
    verdict = "identical tokens" if report.tokens_match else "TOKENS DIVERGED"
    return (
        f"KV-cache decoding ({report.batch} prompts x {report.prompt_length} "
        f"tokens + {report.max_new_tokens} new, backend {report.backend}, "
        f"temperature {report.temperature:g}): cached "
        f"{report.cached_seconds:.3f}s "
        f"({report.cached_tokens_per_second:.0f} tok/s) vs re-prefill "
        f"{report.prefill_seconds:.3f}s "
        f"({report.prefill_tokens_per_second:.0f} tok/s) -> "
        f"{report.speedup:.1f}x, {verdict}"
    )


@register("llm-generate")
class GenerateSpeedExperiment(Experiment):
    """Registry wrapper: KV-cache decode speedup + token parity report.

    ``--backend`` selects the replacement attention softmax both timed
    paths execute (any runtime backend name; ``float`` is the default
    floating-point softmax).
    """

    title = "Decoding"
    description = "KV-cache generation speedup vs naive re-prefill"
    row_type = GenerateSpeedReport
    scalar_result = True
    backend_config_key = "softmax_backend"
    fast_config = {
        "batch": 2,
        "prompt_length": 24,
        "max_new_tokens": 8,
        "hidden_size": 32,
        "num_heads": 2,
        "vocab_size": 64,
        "max_context": 64,
    }
    runner = staticmethod(run_generate_speed)

    def render(self, result):
        return render_generate_speed(result)
