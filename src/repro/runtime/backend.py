"""The unified softmax-execution API: one protocol, many backends.

:func:`resolve_backend` is the single factory from a backend name (or a
:class:`BackendSpec`) to a uniformly shaped softmax backend:

=================  =========================================================
name               execution path
=================  =========================================================
``float``          numerically stable floating-point softmax (the accuracy
                   baseline; no hardware cost attached)
``integer``        the pure-software integer-only pipeline of Algorithm 1
                   (:class:`~repro.softmax.integer_softmax.IntegerSoftmax`)
``ap``             one functional AP pass per score vector, each over the
                   vector's valid prefix (rows priced one after another)
``ap-batch``       the whole ``(rows, seq)`` tensor as one fused pass on
                   one AP
``ap-cluster``     the functional multi-AP cluster — one per-head AP, every
                   probability produced by CAM compare/write semantics
``gpu-analytical`` floating-point probabilities costed with the analytical
                   GPU kernel model (:mod:`repro.gpu`)
=================  =========================================================

Every backend implements the :class:`SoftmaxBackend` protocol:
``run(scores, valid_lengths) -> SoftmaxResult`` returns probabilities
*together with* the analytical cost and cycle count of the pass, and
``softmax_fn()`` adapts the backend to the LLM substrate's attention-softmax
contract (a head-major ``(rows, seq)`` score matrix plus per-row
``valid_lengths``; see :func:`repro.llm.model.causal_batched_softmax`).

The three AP backends share one core (:class:`ApClusterBackend`): a
``(rows, seq)`` row space runs through
:meth:`~repro.mapping.cluster.ApCluster.execute_rows` as one plan call.
``ap-batch`` is that core on a one-AP cluster; ``ap`` runs the same one-AP
call and prices it as one pass per row.  Backend names are validated
eagerly in :func:`resolve_backend`, which raises
:class:`UnknownBackendError` with a "did you mean" suggestion for
near-misses.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro.ap.engine import canonical_engine_name
from repro.gpu.softmax_model import GpuSoftmaxModel, KernelCost
from repro.gpu.spec import GPUS, GpuSpec
from repro.mapping.cluster import ApCluster
from repro.mapping.plan import PlanTelemetry
from repro.mapping.softmap import MappingCost
from repro.quant.precision import BEST_PRECISION, PrecisionConfig
from repro.softmax.integer_softmax import IntegerSoftmax
from repro.softmax.reference import softmax as float_softmax
from repro.utils.validation import check_in_choices, check_integer_lengths

from typing import Protocol, runtime_checkable

__all__ = [
    "BACKEND_NAMES",
    "BackendCost",
    "BackendSpec",
    "BackendTelemetry",
    "PlanTelemetry",
    "SoftmaxBackend",
    "SoftmaxResult",
    "UnknownBackendError",
    "backend_descriptions",
    "canonical_backend_name",
    "resolve_backend",
    "resolve_model_backend",
    "rows_runner",
]

#: Canonical backend names, in presentation order.
BACKEND_NAMES: Tuple[str, ...] = (
    "float",
    "integer",
    "ap",
    "ap-batch",
    "ap-cluster",
    "gpu-analytical",
)

_DESCRIPTIONS: Dict[str, str] = {
    "float": "floating-point reference softmax (accuracy baseline, no cost model)",
    "integer": "pure-software integer-only pipeline (Algorithm 1 in numpy)",
    "ap": "functional AP execution, one pass per score vector",
    "ap-batch": "functional AP execution, whole tensor in one pass on one AP",
    "ap-cluster": "functional multi-AP cluster (one per-head AP, CAM semantics)",
    "gpu-analytical": "float softmax costed with the analytical GPU kernel model",
}


class UnknownBackendError(ValueError):
    """An unknown backend name, with a "did you mean" suggestion attached."""

    def __init__(self, name: str) -> None:
        close = difflib.get_close_matches(name, BACKEND_NAMES, n=1, cutoff=0.5)
        hint = f" — did you mean {close[0]!r}?" if close else ""
        super().__init__(
            f"unknown softmax backend {name!r}{hint} "
            f"(valid backends: {', '.join(BACKEND_NAMES)})"
        )
        self.name = name
        self.suggestion = close[0] if close else None


def canonical_backend_name(name: str) -> str:
    """Validate a backend name eagerly.

    This is the single place backend-name strings are checked; every other
    module resolves through here so a typo fails fast with a helpful
    suggestion instead of deep inside a sweep.
    """
    if not isinstance(name, str):
        raise TypeError(f"backend name must be a str, got {type(name).__name__}")
    if name not in BACKEND_NAMES:
        raise UnknownBackendError(name)
    return name


def backend_descriptions() -> Dict[str, str]:
    """Canonical name -> one-line description (for ``repro backends``)."""
    return dict(_DESCRIPTIONS)


# --------------------------------------------------------------------------- #
# Uniform result / spec / telemetry shapes                                     #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class BackendCost:
    """Normalised cost attached to one backend pass.

    AP-family backends report the analytical Table II / technology-model
    cost of the pass; ``gpu-analytical`` reports the kernel model's cost;
    the pure-software backends report no cost (``SoftmaxResult.cost`` is
    ``None`` for them).
    """

    latency_s: float
    energy_j: float
    area_mm2: Optional[float] = None

    @property
    def edp(self) -> float:
        """Energy-delay product in joule-seconds."""
        return self.latency_s * self.energy_j


@dataclass(frozen=True)
class SoftmaxResult:
    """Probabilities plus cost telemetry of one backend pass.

    Attributes
    ----------
    probabilities:
        Softmax probabilities, same shape as the input scores.
    cost:
        Analytical latency/energy of the pass (``None`` for the pure
        software backends, which model no hardware).
    cycles:
        Compare/write (or kernel) cycle count of the pass, when the backend
        has a cycle notion (``None`` otherwise).
    backend:
        Canonical name of the backend that produced the result.
    plan:
        Plan-level execution telemetry
        (:class:`~repro.mapping.plan.PlanTelemetry`) for backends that run
        compiled plans: whether the pass executed fused, on which engine,
        and how the planner tiled the workload.  ``None`` for backends
        without a plan layer.
    """

    probabilities: np.ndarray
    cost: Optional[BackendCost] = None
    cycles: Optional[float] = None
    backend: str = ""
    plan: Optional[PlanTelemetry] = None


@dataclass(frozen=True)
class BackendSpec:
    """Declarative description of a backend instance.

    ``resolve_backend`` accepts a spec (or builds one from a name plus
    keyword overrides) and returns the matching :class:`SoftmaxBackend`.

    Attributes
    ----------
    name:
        Canonical backend name (see :data:`BACKEND_NAMES`).
    precision:
        Mixed-precision configuration for the integer/AP paths
        (``None`` -> the paper's best combination).
    sequence_length:
        Maximum sequence length the AP paths are provisioned for
        (``None`` -> 2048, the paper's context).
    num_heads:
        Attention-head count (required by ``ap-cluster``, which shards
        head-major score matrices across one AP per head).
    engine:
        Functional AP engine — any name in :data:`repro.ap.engine.ENGINES`:
        ``"reference"`` (bit-serial ground truth), ``"vectorized"``
        (packed-word, bit-identical) or ``"compiled"`` (buffer-planned
        scratch-arena executor, bit-identical); ``None`` -> the fast path
        for cluster/batch and reference semantics elsewhere.
    options:
        Extra keyword arguments forwarded to the underlying implementation
        (e.g. ``barrett_correction`` / ``sum_overflow`` for ``integer``,
        ``gpu`` / ``heads`` for ``gpu-analytical``).
    """

    name: str
    precision: Optional[PrecisionConfig] = None
    sequence_length: Optional[int] = None
    num_heads: Optional[int] = None
    engine: Optional[str] = None
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", canonical_backend_name(self.name))
        if self.engine is not None:
            # Eager, with a "did you mean" suggestion — an engine typo fails
            # at spec construction, not deep inside an execution pass.
            canonical_engine_name(self.engine)


@dataclass
class BackendTelemetry:
    """Accumulated cost telemetry across every ``run()`` of one backend.

    The LLM substrate consumes backends through the probability-only
    ``softmax_fn`` adapter; the telemetry keeps the cost side of each pass
    addressable afterwards instead of losing it (e.g. the total AP energy
    of a whole perplexity evaluation).
    """

    calls: int = 0
    rows: int = 0
    cycles: float = 0.0
    latency_s: float = 0.0
    energy_j: float = 0.0

    def record(self, result: SoftmaxResult) -> None:
        self.calls += 1
        self.rows += int(np.prod(result.probabilities.shape[:-1], dtype=np.int64))
        if result.cycles is not None:
            self.cycles += float(result.cycles)
        if result.cost is not None:
            self.latency_s += result.cost.latency_s
            self.energy_j += result.cost.energy_j

    def reset(self) -> None:
        self.calls = 0
        self.rows = 0
        self.cycles = 0.0
        self.latency_s = 0.0
        self.energy_j = 0.0


@runtime_checkable
class SoftmaxBackend(Protocol):
    """Structural protocol every softmax execution backend satisfies.

    Backends *may* additionally provide ``run_rows(rows, valid_lengths)``
    — execution of an arbitrary ``(rows, seq)`` row space with no
    head-major layout constraint, the seam the serving layer's coalesced
    admission batches go through (for the AP backends it feeds the row
    space straight through the cluster's planner).  It is not part of
    the required protocol: third-party backends that only implement
    ``run`` still resolve, and the serving layer falls back to ``run``.
    """

    spec: BackendSpec
    telemetry: BackendTelemetry

    def run(
        self, scores: np.ndarray, valid_lengths: Optional[np.ndarray] = None
    ) -> SoftmaxResult:
        """Execute softmax over the last axis, returning probs + cost."""
        ...

    def softmax_fn(self) -> Callable[..., np.ndarray]:
        """Adapter implementing the LLM substrate's ``softmax_fn`` contract."""
        ...


def rows_runner(
    backend: "SoftmaxBackend",
) -> Callable[..., SoftmaxResult]:
    """The backend's ``(rows, seq)`` entry point: ``run_rows`` when the
    backend provides the seam, else plain ``run`` (sufficient for any
    backend without layout constraints, e.g. third-party protocol
    implementations)."""
    return getattr(backend, "run_rows", backend.run)


class _BackendSoftmaxFn:
    """Probability-only adapter: the model's ``softmax_fn`` contract (a
    ``(rows, seq)`` matrix plus per-row ``valid_lengths``; a 1-D vector is
    one row) on top of a backend's ``run()``.  The cost side of every pass
    accumulates in ``backend.telemetry``."""

    def __init__(self, backend: "_BackendBase") -> None:
        self.backend = backend

    def __call__(
        self,
        scores: np.ndarray,
        valid_lengths: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        if np.ndim(scores) > 2:
            raise ValueError("softmax_fn expects a (rows, seq) score matrix")
        return self.backend.run(scores, valid_lengths=valid_lengths).probabilities


class _BackendBase:
    """Shared scaffolding: input normalisation, telemetry, the adapter.

    ``run`` and ``run_rows`` are the two public layouts of one private
    ``_run(scores, lengths)`` core; neither calls the other.
    """

    def __init__(self, spec: BackendSpec) -> None:
        self.spec = spec
        self.telemetry = BackendTelemetry()

    # -- protocol ------------------------------------------------------- #
    def run(
        self, scores: np.ndarray, valid_lengths: Optional[np.ndarray] = None
    ) -> SoftmaxResult:
        scores = np.asarray(scores, dtype=np.float64)
        if scores.ndim == 0:
            raise ValueError("scores must have at least one dimension")
        self._check_layout(scores)
        result = self._run(scores, self._check_lengths(scores, valid_lengths))
        self.telemetry.record(result)
        return result

    def run_rows(
        self, rows: np.ndarray, valid_lengths: Optional[np.ndarray] = None
    ) -> SoftmaxResult:
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows[None, :]
        if rows.ndim != 2:
            raise ValueError("run_rows expects a (rows, seq) score matrix")
        result = self._run(rows, self._check_lengths(rows, valid_lengths))
        self.telemetry.record(result)
        return result

    def softmax_fn(self) -> _BackendSoftmaxFn:
        return _BackendSoftmaxFn(self)

    # -- helpers -------------------------------------------------------- #
    def _check_layout(self, scores: np.ndarray) -> None:
        """Reject layouts ``run`` does not accept (any shape, by default)."""

    @staticmethod
    def _check_lengths(
        scores: np.ndarray, valid_lengths: Optional[np.ndarray]
    ) -> Optional[np.ndarray]:
        if valid_lengths is None:
            return None
        lengths = check_integer_lengths(valid_lengths).reshape(-1)
        rows = int(np.prod(scores.shape[:-1], dtype=np.int64)) if scores.ndim > 1 else 1
        if lengths.shape != (rows,):
            raise ValueError(
                f"valid_lengths must hold one entry per score row "
                f"({rows}), got shape {lengths.shape}"
            )
        if np.any(lengths < 1) or np.any(lengths > scores.shape[-1]):
            raise ValueError("valid_lengths must lie in 1..seq for every row")
        return lengths

    @staticmethod
    def _rows_view(scores: np.ndarray) -> np.ndarray:
        """Flatten leading axes so every backend core sees (rows, seq)."""
        if scores.ndim == 1:
            return scores[None, :]
        return scores.reshape(-1, scores.shape[-1])

    def _run(
        self, scores: np.ndarray, lengths: Optional[np.ndarray]
    ) -> SoftmaxResult:  # pragma: no cover - abstract
        raise NotImplementedError


def _masked_float_softmax(
    rows: np.ndarray, lengths: Optional[np.ndarray]
) -> np.ndarray:
    """Reference softmax over each row's valid prefix, zeros beyond it."""
    if lengths is None:
        return float_softmax(rows)
    mask = np.arange(rows.shape[1])[None, :] < lengths[:, None]
    probabilities = float_softmax(np.where(mask, rows, -np.inf))
    return np.where(mask, probabilities, 0.0)


# --------------------------------------------------------------------------- #
# Concrete backends                                                            #
# --------------------------------------------------------------------------- #
class FloatBackend(_BackendBase):
    """``float`` — the numerically stable FP softmax (accuracy baseline)."""

    def _run(self, scores, lengths):
        rows = self._rows_view(scores)
        probabilities = _masked_float_softmax(rows, lengths).reshape(scores.shape)
        return SoftmaxResult(probabilities=probabilities, backend=self.spec.name)


class IntegerBackend(_BackendBase):
    """``integer`` — the pure-software Algorithm 1 pipeline.

    Ragged rows are evaluated in **one** masked
    :class:`~repro.softmax.integer_softmax.IntegerSoftmax` call
    (``valid_lengths`` support in the integer core), which is bit-identical
    to applying the pipeline per causal prefix — for a causal ``(rows,
    seq)`` score matrix this replaces ``seq`` per-distinct-length pipeline
    invocations with a single vectorized pass.
    """

    def __init__(self, spec: BackendSpec) -> None:
        super().__init__(spec)
        self.integer_softmax = IntegerSoftmax(
            precision=spec.precision or BEST_PRECISION, **dict(spec.options)
        )

    def _run(self, scores, lengths):
        rows = self._rows_view(scores)
        probabilities = self.integer_softmax.forward(
            rows, valid_lengths=lengths
        ).probabilities
        return SoftmaxResult(
            probabilities=probabilities.reshape(scores.shape),
            backend=self.spec.name,
        )


class ApClusterBackend(_BackendBase):
    """The AP backends: ``ap-cluster``, and ``ap-batch`` on one AP.

    ``ap-cluster`` builds one per-head AP per attention head.  Its ``run``
    accepts a ``(batch, heads, seq)`` tensor, a head-major ``(heads *
    batch, seq)`` matrix (the LLM substrate's layout: row ``h * batch +
    b`` holds batch row ``b`` of head ``h``) or a 1-D vector, one row on
    one AP.  ``ap-batch`` runs on a one-AP cluster and accepts any shape.
    ``run_rows`` takes any ``(rows, seq)`` row space.

    Every layout reaches one core: the row space runs through
    :meth:`~repro.mapping.cluster.ApCluster.execute_rows` as one plan
    call, and the planner tiles it into passes against the cluster's
    ``pass_row_budget`` for pricing.  Each vector occupies one AP's share
    of CAM rows, so one cost rule covers every call:

    * latency — one AP's pass, or the two-stage pipeline makespan
      (:meth:`~repro.mapping.cluster.ApCluster.schedule`) when the planner
      tiles the workload into several passes;
    * energy — one AP's pass energy times the rows;
    * cycles — one AP's pass cycles times the passes;
    * area — one AP's area times ``min(rows, num_heads)``, the APs the
      row space occupies.
    """

    def __init__(self, spec: BackendSpec) -> None:
        if spec.name == "ap-cluster" and spec.num_heads is None:
            raise ValueError(
                "the 'ap-cluster' backend needs num_heads "
                "(one per-head AP is built per attention head); pass "
                "resolve_backend('ap-cluster', num_heads=...)"
            )
        self._attach(
            spec,
            ApCluster(
                num_heads=spec.num_heads if spec.name == "ap-cluster" else 1,
                precision=spec.precision or BEST_PRECISION,
                sequence_length=spec.sequence_length or 2048,
                engine=spec.engine or "vectorized",
                **dict(spec.options),
            ),
        )

    def _attach(self, spec: BackendSpec, cluster: ApCluster) -> None:
        super().__init__(spec)
        self.cluster = cluster
        self.engine = spec.engine or cluster.engine
        self._cost_cache: Dict[int, MappingCost] = {}

    @classmethod
    def from_cluster(
        cls, cluster: ApCluster, engine: Optional[str] = None
    ) -> "ApClusterBackend":
        """Wrap an already-built :class:`~repro.mapping.cluster.ApCluster`
        (used by the cluster's own ``as_backend()``)."""
        backend = cls.__new__(cls)
        backend._attach(
            BackendSpec(
                name="ap-cluster",
                precision=cluster.precision,
                sequence_length=cluster.sequence_length,
                num_heads=cluster.num_heads,
                engine=engine or cluster.engine,
            ),
            cluster,
        )
        return backend

    def _per_ap_cost(self, sequence_length: int) -> MappingCost:
        """One AP's pass cost per length, cached: the model runs each
        length once per layer, and costing it is a plan-cache lookup."""
        cost = self._cost_cache.get(sequence_length)
        if cost is None:
            cost = self._cost_cache[sequence_length] = self.cluster.cost(
                sequence_length=sequence_length
            ).per_head
        return cost

    def _check_layout(self, scores: np.ndarray) -> None:
        if self.spec.name != "ap-cluster":
            return
        heads = self.cluster.num_heads
        if scores.ndim == 2 and scores.shape[0] % heads != 0:
            raise ValueError(
                f"rows ({scores.shape[0]}) must be a multiple of the "
                f"cluster head count ({heads}); stack the score "
                f"matrices head-major"
            )
        if scores.ndim == 3 and scores.shape[1] != heads:
            raise ValueError(
                f"score tensor has {scores.shape[1]} heads, cluster has {heads}"
            )
        if scores.ndim > 3:
            raise ValueError(
                "ap-cluster accepts a 1-D vector, a head-major (rows, seq) "
                "matrix or a (batch, heads, seq) tensor"
            )

    def _run(self, scores, lengths):
        # Rows are independent programs, so a (batch, heads, seq) tensor
        # runs as its flattened rows, bit-identical to head-major order.
        result = self._execute(self._rows_view(scores), lengths)
        if scores.ndim != 2:
            result = replace(
                result, probabilities=result.probabilities.reshape(scores.shape)
            )
        return result

    def _execute(
        self, rows: np.ndarray, lengths: Optional[np.ndarray]
    ) -> SoftmaxResult:
        """The AP core: one ``(rows, seq)`` row space, costed once."""
        probabilities = self.cluster.execute_rows(
            rows, valid_lengths=lengths, engine=self.engine
        )
        vectors, sequence_length = rows.shape
        plan = self.cluster.plan_telemetry(vectors, sequence_length, self.engine)
        per_ap = self._per_ap_cost(sequence_length)
        if plan.passes > 1:
            latency = self.cluster.schedule(
                plan.passes, sequence_length=sequence_length
            ).latency_s
        else:
            latency = per_ap.latency_s
        return SoftmaxResult(
            probabilities=probabilities,
            cost=BackendCost(
                latency_s=latency,
                energy_j=per_ap.energy_j * vectors,
                area_mm2=per_ap.area_mm2 * min(vectors, self.cluster.num_heads),
            ),
            cycles=per_ap.cycles * plan.passes,
            backend=self.spec.name,
            plan=plan,
        )


class ApRowBackend(ApClusterBackend):
    """``ap`` — one AP pass per score vector, over its valid prefix.

    The rows run as one ragged plan call at the full width, bit-identical
    to running each row's prefix alone, but they are priced as passes
    that run one after another: latency, energy and cycles are the *sum*
    of the per-row passes at each row's valid length.  The area is one AP
    provisioned for the full row width.  No plan telemetry is attached:
    every row is a separate modeled pass.
    """

    def _execute(self, rows, lengths):
        area = self._per_ap_cost(rows.shape[1]).area_mm2
        probabilities = self.cluster.execute_rows(
            rows, valid_lengths=lengths, engine=self.engine
        )
        if lengths is None:
            lengths = np.full(rows.shape[0], rows.shape[1])
        latency = energy = cycles = 0.0
        for length in lengths.tolist():
            per_ap = self._per_ap_cost(length)
            latency += per_ap.latency_s
            energy += per_ap.energy_j
            cycles += per_ap.cycles
        return SoftmaxResult(
            probabilities=probabilities,
            cost=BackendCost(latency_s=latency, energy_j=energy, area_mm2=area),
            cycles=cycles,
            backend=self.spec.name,
        )


class GpuAnalyticalBackend(_BackendBase):
    """``gpu-analytical`` — FP probabilities costed by the GPU kernel model.

    The probabilities are the exact floating-point softmax (a GPU computes
    FP softmax); the attached cost is the analytical memory-bound kernel
    model's latency/energy for the decode-shaped score tensor, so the GPU
    baseline flows through the same ``SoftmaxResult`` seam as the AP paths.
    Options: ``gpu`` (name in :data:`repro.gpu.spec.GPUS` or a
    :class:`~repro.gpu.spec.GpuSpec`, default A100) plus any
    :class:`~repro.gpu.softmax_model.GpuSoftmaxModel` kwargs.
    """

    def __init__(self, spec: BackendSpec) -> None:
        super().__init__(spec)
        options = dict(spec.options)
        gpu = options.pop("gpu", "A100")
        if isinstance(gpu, str):
            check_in_choices(gpu, tuple(GPUS), "gpu")
            gpu = GPUS[gpu]
        if not isinstance(gpu, GpuSpec):
            raise TypeError("gpu option must be a GPU name or a GpuSpec")
        self.model = GpuSoftmaxModel(gpu, **options)

    def _run(self, scores, lengths):
        rows = self._rows_view(scores)
        probabilities = _masked_float_softmax(rows, lengths).reshape(scores.shape)
        # The kernel cost depends on batch * heads (total score rows); keep
        # that product exact even when the row count is not a multiple of
        # the head count (fall back to heads = 1 rather than rounding).
        heads = self.spec.num_heads or 1
        if heads < 1 or rows.shape[0] % heads != 0:
            heads = 1
        kernel: KernelCost = self.model.decode_cost(
            rows.shape[0] // heads, heads, rows.shape[1]
        )
        return SoftmaxResult(
            probabilities=probabilities,
            cost=BackendCost(latency_s=kernel.latency_s, energy_j=kernel.energy_j),
            cycles=None,
            backend=self.spec.name,
        )


_FACTORIES: Dict[str, Callable[[BackendSpec], _BackendBase]] = {
    "float": FloatBackend,
    "integer": IntegerBackend,
    "ap": ApRowBackend,
    "ap-batch": ApClusterBackend,
    "ap-cluster": ApClusterBackend,
    "gpu-analytical": GpuAnalyticalBackend,
}


def resolve_backend(
    spec_or_name: Union[str, BackendSpec, SoftmaxBackend],
    **overrides: Any,
) -> SoftmaxBackend:
    """The single front door from a backend name/spec to a backend instance.

    Parameters
    ----------
    spec_or_name:
        A backend name (see :data:`BACKEND_NAMES`), a :class:`BackendSpec`,
        or an already constructed backend (returned as-is, overrides
        rejected).
    overrides:
        :class:`BackendSpec` fields (``precision``, ``sequence_length``,
        ``num_heads``, ``engine``, ``options``) overriding the spec.

    Raises
    ------
    UnknownBackendError
        For an unknown name, with a "did you mean" suggestion.
    """
    if isinstance(spec_or_name, str):
        spec = BackendSpec(name=spec_or_name, **overrides)
    elif isinstance(spec_or_name, BackendSpec):
        spec = replace(spec_or_name, **overrides) if overrides else spec_or_name
    elif isinstance(spec_or_name, SoftmaxBackend):
        # Anything satisfying the protocol passes through — including
        # third-party backends, the module's stated extension point.
        if overrides:
            raise ValueError(
                "cannot apply spec overrides to an already-built backend; "
                "pass a name or BackendSpec instead"
            )
        return spec_or_name
    else:
        raise TypeError(
            "resolve_backend takes a backend name, a BackendSpec or a "
            f"backend instance, got {type(spec_or_name).__name__}"
        )
    return _FACTORIES[spec.name](spec)


def resolve_model_backend(
    spec_or_name: Union[str, BackendSpec, SoftmaxBackend],
    num_heads: int,
    sequence_length: int,
) -> SoftmaxBackend:
    """Resolve a backend with a model's shape filled in as defaults.

    The LLM substrate knows its head count and context width; a bare name
    (``"ap-cluster"``) or a spec that leaves those fields ``None`` gets
    them from the model, while explicit spec values and already-built
    backends pass through untouched.
    """
    if isinstance(spec_or_name, str):
        return resolve_backend(
            spec_or_name, num_heads=num_heads, sequence_length=sequence_length
        )
    if isinstance(spec_or_name, BackendSpec):
        overrides: Dict[str, Any] = {}
        if spec_or_name.num_heads is None:
            overrides["num_heads"] = num_heads
        if spec_or_name.sequence_length is None:
            overrides["sequence_length"] = sequence_length
        return resolve_backend(spec_or_name, **overrides)
    return resolve_backend(spec_or_name)
