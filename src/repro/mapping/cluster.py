"""Functional multi-AP cluster executing batched softmax as fused passes.

The paper deploys one AP per attention head (Fig. 4).  The heads are
structurally identical and the AP is word-parallel across rows, so
:class:`ApCluster` executes through the compiled-plan layer
(:mod:`repro.mapping.plan`): **one** shared mapping/plan lowers the
dataflow once, and a ``(batch, heads, seq)`` score tensor runs as one
fused, head-major row space — heads become extra row segments of a single
plan call, bit-identical to a per-head loop.  The plan's cache tiles are
the simulator's only execution loop.  When a ``pass_row_budget`` is set,
the planner (:func:`repro.mapping.plan.plan_passes`) tiles the workload
into passes that are priced, not executed: :meth:`ApCluster.schedule` —
the two-stage load/compute pipeline — consumes the pass list.  A budget
also opens sequences longer than the per-head provisioned length (the
fused row space spans the whole cluster's rows, not one head's).

:meth:`ApCluster.as_backend` wraps the cluster as the runtime's
``ap-cluster`` backend: ``run`` returns probabilities with their cost and
plan telemetry, and ``as_backend().softmax_fn()`` is the LLM substrate's
attention softmax.

Concurrency accounting
----------------------
The cluster-level cost follows the paper's Section V-B assumption that all
per-head APs work concurrently on their own share of the score tensor:

* **latency** — the maximum over heads.  The heads are structurally
  identical, so the critical path equals the per-head pass latency.
* **energy** — the sum over heads: every AP switches its own CAM.
* **batch** — stacking ``batch`` score vectors in one AP adds rows, which
  scales energy linearly but leaves the cycle count unchanged (the AP is
  word-parallel; only the segmented reduction tree depends on the segment
  length, not on the number of segments).

Multi-batch schedule
--------------------
:meth:`ApCluster.schedule` models a two-stage pipeline over consecutive
batches (or planner passes): the operand/constant *load* phase of batch
``k + 1`` (the dataflow's element-wise ``Write`` steps, issued by the
controller ahead of time) overlaps the *compute* phase of batch ``k``
(everything else — including the step-15 sum broadcast, a write that
depends on the same batch's reduction and therefore cannot be preloaded).
The steady-state initiation interval is therefore ``max(load, compute)``
and the makespan of ``n`` batches is
``load + compute + (n - 1) * max(load, compute)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.ap.engine import canonical_engine_name
from repro.ap.tech import TECH_16NM, TechnologyParameters
from repro.mapping.dataflow import StepKind
from repro.mapping.plan import PlanTelemetry, WorkloadPass, plan_passes
from repro.mapping.softmap import MappingCost, SoftmAPMapping
from repro.quant.precision import BEST_PRECISION, PrecisionConfig
from repro.utils.validation import check_integer_lengths, check_positive_int

__all__ = ["ApCluster", "ClusterCost", "ClusterSchedule"]


@dataclass(frozen=True)
class ClusterCost:
    """Aggregate cost of one batched softmax pass over the whole cluster.

    Attributes
    ----------
    per_head:
        Cost of one pass on one per-head AP (all heads are identical).
    num_heads / batch:
        Cluster width and number of score vectors stacked per head.
    latency_s / cycles:
        Critical path: the maximum over the concurrent heads (equal to the
        per-head pass because the heads are structurally identical).
    energy_j:
        Sum over heads, scaled by the ``batch`` rows each AP activates.
    area_mm2:
        Total silicon: heads x per-AP area.
    """

    per_head: MappingCost
    num_heads: int
    batch: int
    latency_s: float
    cycles: float
    energy_j: float
    area_mm2: float


@dataclass(frozen=True)
class ClusterSchedule:
    """Pipelined execution of several consecutive batches on the cluster.

    ``latency_s`` is the pipelined makespan
    ``load + compute + (n - 1) * max(load, compute)``; ``sequential_latency_s``
    is the unpipelined reference ``n * (load + compute)``.
    """

    num_batches: int
    load_latency_s: float
    compute_latency_s: float
    latency_s: float
    sequential_latency_s: float
    energy_j: float

    @property
    def pipeline_speedup(self) -> float:
        """Sequential / pipelined makespan (>= 1)."""
        return self.sequential_latency_s / self.latency_s

    @property
    def throughput_passes_per_s(self) -> float:
        """Steady-state cluster passes per second."""
        return self.num_batches / self.latency_s


class ApCluster:
    """A cluster of per-head functional APs for multi-head attention softmax.

    Parameters
    ----------
    num_heads:
        Number of APs (one per attention head).  The heads are structurally
        identical, so they share **one** mapping/plan; only the cost
        aggregation multiplies by the head count.
    precision / words_per_row / columns / tech / division / clip_threshold:
        Forwarded to the shared :class:`~repro.mapping.softmap.SoftmAPMapping`.
    sequence_length:
        The sequence length the cluster is provisioned for; longer score
        tensors are rejected (shorter ones are fine — plans are compiled
        per runtime length and the cost view accepts a runtime length)
        unless an explicit ``pass_row_budget`` re-provisions capacity.
    engine:
        Default functional engine; ``"vectorized"`` because the cluster is
        the model-scale fast path (``"reference"`` validates bit-exactness).
        Validated eagerly with a "did you mean" suggestion.
    pass_row_budget:
        Optional maximum number of AP words one modeled pass may occupy.
        ``None`` (default) prices any workload as a single fused pass with
        sequences capped at the provisioned length.  With a budget, the
        planner tiles the workload into passes priced by the two-stage
        :meth:`schedule` pipeline, and sequences up to the budget are
        accepted even beyond the per-head provisioned length — the fused
        row space spans the whole cluster, not one head's AP.  Either way
        the simulator runs the whole row space as one plan call.
    """

    def __init__(
        self,
        num_heads: int,
        precision: PrecisionConfig = BEST_PRECISION,
        sequence_length: int = 2048,
        words_per_row: int = 2,
        columns: int = 64,
        tech: TechnologyParameters = TECH_16NM,
        division: str = "restoring",
        clip_threshold: Optional[float] = None,
        engine: str = "vectorized",
        pass_row_budget: Optional[int] = None,
    ) -> None:
        self.num_heads = check_positive_int(num_heads, "num_heads")
        self.sequence_length = check_positive_int(sequence_length, "sequence_length")
        self.engine = canonical_engine_name(engine)
        if pass_row_budget is not None:
            check_positive_int(pass_row_budget, "pass_row_budget")
        self.pass_row_budget = pass_row_budget
        # One shared mapping/plan: heads are structurally identical, so the
        # lowered program and its cost are compiled once for the whole
        # cluster instead of once per head.
        self.mapping = SoftmAPMapping(
            precision=precision,
            sequence_length=sequence_length,
            words_per_row=words_per_row,
            columns=columns,
            tech=tech,
            division=division,
            clip_threshold=clip_threshold,
            engine=engine,
        )
        self.precision = precision
        self.words_per_row = words_per_row
        self.columns = columns
        self.tech = tech
        self.division = self.mapping.division
        self.clip_threshold = clip_threshold

    # ------------------------------------------------------------------ #
    # Fused functional execution                                           #
    # ------------------------------------------------------------------ #
    def workload_passes(self, vectors: int, sequence_length: int) -> List[WorkloadPass]:
        """The planner's pass list for ``vectors`` softmax vectors.

        The passes are priced (:meth:`schedule`), not executed; the planner
        also rejects a segment that does not fit the ``pass_row_budget``.
        """
        return plan_passes(vectors, sequence_length, row_budget=self.pass_row_budget)

    def plan_telemetry(
        self, vectors: int, sequence_length: int, engine: Optional[str] = None
    ) -> PlanTelemetry:
        """Plan-level telemetry describing one execution.

        ``fused`` reports whether a plan executor actually runs for this
        shape/engine combination (:meth:`ExecutionPlan.plan_executor
        <repro.mapping.plan.ExecutionPlan.plan_executor>` decides) —
        ``False`` when the program is interpreted on the AP.  The pass
        fields come from the planner, the arena stats from the executor.
        """
        engine = canonical_engine_name(engine) if engine else self.engine
        passes = self.workload_passes(vectors, sequence_length)
        plan = self.mapping.plan(sequence_length=sequence_length)
        executor = plan.plan_executor(engine)
        return PlanTelemetry(
            fused=executor is not None,
            engine=engine,
            passes=len(passes),
            vectors=vectors,
            segment_length=sequence_length,
            words_per_pass=tuple(p.words for p in passes),
            arena_slots=executor.arena_slots if executor is not None else 0,
            arena_bytes=executor.arena_bytes if executor is not None else 0,
            row_budget=self.pass_row_budget or 0,
        )

    def execute(
        self,
        scores: np.ndarray,
        valid_lengths: Optional[np.ndarray] = None,
        engine: Optional[str] = None,
    ) -> np.ndarray:
        """Execute a ``(batch, heads, seq)`` score tensor on the cluster.

        The tensor is reshaped into one head-major row space (row
        ``h * batch + b`` holds batch row ``b`` of head ``h``) that runs as
        **one** plan call — heads are row segments, not Python iterations.
        Results are bit-identical to the historical per-head loop (each
        vector's program is independent).
        ``valid_lengths`` may be ``(batch,)`` (shared by all heads) or
        ``(batch, heads)``; see
        :meth:`~repro.mapping.plan.ExecutionPlan.execute` for semantics.
        """
        scores = np.asarray(scores, dtype=np.float64)
        if scores.ndim != 3:
            raise ValueError(
                "ApCluster.execute expects a (batch, heads, seq) score tensor"
            )
        batch, heads, seq = scores.shape
        if heads != self.num_heads:
            raise ValueError(
                f"score tensor has {heads} heads, cluster has {self.num_heads}"
            )
        self._check_capacity(seq)
        flat_lengths: Optional[np.ndarray] = None
        if valid_lengths is not None:
            per_head_lengths = check_integer_lengths(valid_lengths)
            if per_head_lengths.ndim == 1:
                per_head_lengths = np.broadcast_to(
                    per_head_lengths[:, None], (batch, heads)
                )
            if per_head_lengths.shape != (batch, heads):
                raise ValueError(
                    f"valid_lengths must have shape ({batch},) or "
                    f"({batch}, {heads}), got {np.asarray(valid_lengths).shape}"
                )
            flat_lengths = per_head_lengths.T.reshape(-1)  # head-major rows
        stacked = scores.transpose(1, 0, 2).reshape(heads * batch, seq)
        fused = self._execute_rows(stacked, flat_lengths, engine=engine)
        return fused.reshape(heads, batch, seq).transpose(1, 0, 2)

    def execute_rows(
        self,
        rows: np.ndarray,
        valid_lengths: Optional[np.ndarray] = None,
        engine: Optional[str] = None,
    ) -> np.ndarray:
        """Execute an arbitrary head-major ``(vectors, seq)`` row space.

        This is the serving layer's admission seam: a coalesced batch of
        concurrent requests forms one fused row space whose row count is
        *not* tied to the cluster's head count — vectors are row segments
        of the shared plan, checked against the ``pass_row_budget`` exactly
        as :meth:`execute` does for ``(batch, heads, seq)`` tensors.  Each
        vector's program is independent, so the result is bit-identical to
        executing every vector (or any sub-batch) alone.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError(
                "ApCluster.execute_rows expects a (vectors, seq) row space"
            )
        self._check_capacity(rows.shape[1])
        lengths: Optional[np.ndarray] = None
        if valid_lengths is not None:
            lengths = check_integer_lengths(valid_lengths).reshape(-1)
            if lengths.shape != (rows.shape[0],):
                raise ValueError(
                    f"valid_lengths must hold one entry per row "
                    f"({rows.shape[0]}), got shape "
                    f"{np.asarray(valid_lengths).shape}"
                )
        return self._execute_rows(rows, lengths, engine=engine)

    def _execute_rows(
        self,
        rows: np.ndarray,
        valid_lengths: Optional[np.ndarray],
        engine: Optional[str] = None,
    ) -> np.ndarray:
        """Run a head-major ``(vectors, seq)`` row space as one plan call.

        The planner is consulted first, so a segment that does not fit the
        ``pass_row_budget`` is rejected before anything runs; its passes
        are priced, and the plan's cache tiles are the only execution loop.
        """
        self.workload_passes(*rows.shape)
        return self.mapping.execute_functional_batch(
            rows, engine=engine, valid_lengths=valid_lengths
        )

    def _check_capacity(self, sequence_length: int) -> None:
        """Reject sequences beyond the provisioned capacity.

        With a ``pass_row_budget`` the planner is the capacity authority
        (it rejects segments that do not fit a pass); otherwise the
        per-head provisioned length applies, as it always has.
        """
        if self.pass_row_budget is None and sequence_length > self.sequence_length:
            raise ValueError(
                f"sequence length {sequence_length} exceeds the provisioned "
                f"maximum {self.sequence_length}"
            )

    def as_backend(self, engine: Optional[str] = None):
        """This cluster as a :class:`~repro.runtime.backend.SoftmaxBackend`.

        The returned :class:`~repro.runtime.backend.ApClusterBackend` wraps
        *this* cluster (no mappings are rebuilt) and exposes the uniform
        ``run(scores) -> SoftmaxResult`` contract — probabilities plus the
        concurrency-aware cost and plan telemetry of every pass — and the
        LLM substrate's attention softmax as ``as_backend().softmax_fn()``.
        ``engine`` optionally overrides the functional engine per backend.
        """
        # Imported lazily: repro.runtime.backend imports this module.
        from repro.runtime.backend import ApClusterBackend

        return ApClusterBackend.from_cluster(self, engine=engine)

    # ------------------------------------------------------------------ #
    # Concurrency-aware analytical cost                                    #
    # ------------------------------------------------------------------ #
    def cost(
        self, sequence_length: Optional[int] = None, batch: int = 1
    ) -> ClusterCost:
        """Cluster-level cost of one (possibly batched) softmax pass.

        Latency is the max over the concurrently working heads, energy the
        sum; stacking ``batch`` vectors per head multiplies the active rows
        (energy) but not the cycle count (see the module docstring).
        """
        check_positive_int(batch, "batch")
        per_head = self._per_head_cost(sequence_length)
        return ClusterCost(
            per_head=per_head,
            num_heads=self.num_heads,
            batch=batch,
            latency_s=per_head.latency_s,
            cycles=per_head.cycles,
            energy_j=per_head.energy_j * self.num_heads * batch,
            area_mm2=per_head.area_mm2 * self.num_heads,
        )

    def schedule(
        self,
        num_batches: int,
        sequence_length: Optional[int] = None,
        batch: int = 1,
    ) -> ClusterSchedule:
        """Pipelined schedule of ``num_batches`` consecutive cluster passes.

        The dataflow's *element-wise* ``Write`` steps (operand/constant
        loading, issued by the controller ahead of time) form the *load*
        stage; every other step — including step 15's sum broadcast, which
        is a ``Write`` but depends on the same batch's reduction — forms the
        *compute* stage that owns the match lines.  Batch ``k + 1``'s load
        overlaps batch ``k``'s compute, giving the classic two-stage
        pipeline makespan ``load + compute + (n - 1) * max(load, compute)``.
        The planner's pass list feeds this directly: a tiled fused workload
        of ``k`` passes schedules as ``schedule(k)``.
        """
        check_positive_int(num_batches, "num_batches")
        check_positive_int(batch, "batch")
        per_head = self._per_head_cost(sequence_length)
        load = sum(
            s.cost.latency_s
            for s in per_head.steps
            if s.step.kind is StepKind.WRITE and s.step.elementwise
        )
        compute = per_head.latency_s - load
        pipelined = load + compute + (num_batches - 1) * max(load, compute)
        sequential = num_batches * (load + compute)
        return ClusterSchedule(
            num_batches=num_batches,
            load_latency_s=load,
            compute_latency_s=compute,
            latency_s=pipelined,
            sequential_latency_s=sequential,
            energy_j=per_head.energy_j * self.num_heads * batch * num_batches,
        )

    def _per_head_cost(self, sequence_length: Optional[int]) -> MappingCost:
        """Per-head pass cost for an (optional) runtime sequence length.

        Served from the shared mapping's plan cache, so repeated costing
        (one call per layer in the perplexity path) compiles nothing.
        """
        if sequence_length is not None:
            check_positive_int(sequence_length, "sequence_length")
            self._check_capacity(sequence_length)
        return self.mapping.plan(sequence_length=sequence_length).cost()
