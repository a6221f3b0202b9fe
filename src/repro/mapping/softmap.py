"""SoftmAP: the integer softmax dataflow executed and costed on the AP.

:class:`SoftmAPMapping` is the heart of the co-design reproduction.  Since
the compiled-plan layer landed it is a thin, cached front over
:class:`~repro.mapping.plan.ExecutionPlan`: the Fig. 5 dataflow is lowered
**once** per (precision, sequence-length, output-width) shape — resolved
field layout, lowered instruction sequence, per-step Table II cost — and
every call executes the compiled program instead of re-interpreting the
sixteen steps:

* :meth:`SoftmAPMapping.cost` — the analytical view used for the paper's
  hardware characterization: the plan's per-step Table II cycles plus the
  16 nm technology energy model.
* :meth:`SoftmAPMapping.execute_functional` /
  :meth:`SoftmAPMapping.execute_functional_batch` — the functional view:
  the compiled program runs over the whole score tensor as one fused row
  space (``"vectorized"``) or on the bit-serial functional AP
  (``"reference"``), bit-identical to the pure-software
  :class:`~repro.softmax.integer_softmax.IntegerSoftmax` pipeline (checked
  in the integration tests).

To keep the hardware free of signed arithmetic the functional mapping tracks
``z = max(v) - v = -vstable`` (non-negative) and evaluates the polynomial as
``(vb - (z mod vln2))**2 + vc``, which is algebraically identical to
Algorithm 1 because ``vcorr = -(z mod vln2)``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import List, Optional, Tuple

import numpy as np

from repro.ap.engine import canonical_engine_name
from repro.ap.tech import TECH_16NM, TechnologyParameters
from repro.mapping.dataflow import DataflowStep
from repro.mapping.plan import ExecutionPlan, MappingCost, StepCost
from repro.quant.precision import BEST_PRECISION, PrecisionConfig
from repro.utils.validation import check_in_choices, check_positive_int

__all__ = ["PLAN_CACHE_SIZE", "SoftmAPMapping", "MappingCost", "StepCost"]

#: Bound on each mapping's per-shape compiled-plan cache (see
#: :meth:`SoftmAPMapping.plan`), counting the always-pinned provisioned-shape
#: plan: comfortably above the handful of shapes a prefill workload touches,
#: while keeping a 1..T decode length sweep from retaining one compiled plan
#: per length forever.
PLAN_CACHE_SIZE = 32


class SoftmAPMapping:
    """Mapping of the integer-only softmax onto one per-head 2D AP.

    Parameters
    ----------
    precision:
        Mixed-precision configuration (defaults to the paper's best:
        ``M=6``, ``vcorr=M``, ``N=16``).
    sequence_length:
        Number of softmax elements; the AP stores ``words_per_row`` words
        per row, so it has ``sequence_length / words_per_row`` rows.
    words_per_row:
        Words packed per CAM row (2 in the paper).
    columns:
        Bit columns per row (operand fields A/B, the ``2M+12`` result column
        and scratch); 64 by default, which reproduces the paper's per-head
        area of ~0.02 mm^2 at 16 nm.
    tech:
        Technology parameters.
    division:
        ``"restoring"`` (bit-serial restoring division, default) or
        ``"reciprocal"`` (the controller computes one reciprocal of the sum
        and the AP multiplies by it) — an ablation of the last step.
    clip_threshold:
        Softmax input clipping threshold; defaults to the paper's per-``M``
        value.
    engine:
        Default execution engine of the compiled plan: ``"reference"``
        (bit-serial LUT sweeps on the functional AP, the ground truth),
        ``"vectorized"`` (the fused packed-word path of
        :class:`~repro.mapping.plan.ExecutionPlan`, bit-identical and
        orders of magnitude faster) or ``"compiled"`` (the scratch-arena
        executor, bit-identical).  Validated eagerly with a
        "did you mean" suggestion
        (:func:`~repro.ap.engine.canonical_engine_name`); can be overridden
        per call on :meth:`execute_functional` /
        :meth:`execute_functional_batch`.
    """

    #: Realisations of the final normalisation step (see ``division`` above).
    DIVISION_MODES = ("restoring", "reciprocal")

    #: Supported CAM row packing factors.
    WORDS_PER_ROW_CHOICES = (1, 2)

    def __init__(
        self,
        precision: PrecisionConfig = BEST_PRECISION,
        sequence_length: int = 2048,
        words_per_row: int = 2,
        columns: int = 64,
        tech: TechnologyParameters = TECH_16NM,
        division: str = "restoring",
        clip_threshold: Optional[float] = None,
        engine: str = "reference",
    ) -> None:
        self.precision = precision
        self.sequence_length = check_positive_int(sequence_length, "sequence_length")
        self.words_per_row = check_in_choices(
            check_positive_int(words_per_row, "words_per_row"),
            self.WORDS_PER_ROW_CHOICES,
            "words_per_row",
        )
        self.columns = check_positive_int(columns, "columns")
        self.tech = tech
        self.division = check_in_choices(division, self.DIVISION_MODES, "division")
        self.engine = canonical_engine_name(engine)
        self.clip_threshold = clip_threshold
        self._plans: "OrderedDict[Tuple[int, int], ExecutionPlan]" = OrderedDict()
        # The LRU bookkeeping (move_to_end / eviction) mutates shared state,
        # so concurrent plan lookups serialise on this lock; plan
        # compilation itself stays outside any hot path.
        self._plan_lock = threading.Lock()
        self._provisioned_key = (
            self.sequence_length,
            self.precision.result_column_bits,
        )
        # The provisioned-shape plan: compiling it here keeps construction
        # errors (invalid precision/threshold combinations) eager and
        # preserves the historical attribute surface.
        provisioned = self.plan()
        self.quantizer = provisioned.quantizer
        self.polynomial = provisioned.polynomial
        self.constants = provisioned.constants
        self.rows = provisioned.rows
        self.cost_model = provisioned.cost_model

    # ------------------------------------------------------------------ #
    # Compilation                                                          #
    # ------------------------------------------------------------------ #
    def plan(
        self,
        sequence_length: Optional[int] = None,
        output_fraction_bits: Optional[int] = None,
    ) -> ExecutionPlan:
        """The compiled :class:`~repro.mapping.plan.ExecutionPlan`.

        Plans are cached per ``(sequence_length, output_fraction_bits)``
        shape, so repeated execution (every head, every layer, every pass)
        lowers the dataflow exactly once.  The cache is an LRU bounded by
        :data:`PLAN_CACHE_SIZE`: a workload that sweeps runtime shapes — an
        autoregressive decode compiles one shape per generated token —
        evicts its least recently used shapes (recompiling them on the next
        request) instead of retaining every plan it ever lowered.  The provisioned shape (the one compiled at
        construction and exposed through ``rows``/``cost_model``/...) is
        pinned and never evicted.
        """
        if sequence_length is None:
            sequence_length = self.sequence_length
        if output_fraction_bits is None:
            output_fraction_bits = self.precision.result_column_bits
        key = (sequence_length, output_fraction_bits)
        with self._plan_lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                return plan
        plan = ExecutionPlan(
            precision=self.precision,
            sequence_length=sequence_length,
            words_per_row=self.words_per_row,
            columns=self.columns,
            tech=self.tech,
            division=self.division,
            clip_threshold=self.clip_threshold,
            engine=self.engine,
            output_fraction_bits=output_fraction_bits,
        )
        with self._plan_lock:
            # Two threads may have compiled the same shape concurrently;
            # keep the first (its executors may already hold arena state).
            plan = self._plans.setdefault(key, plan)
            self._plans.move_to_end(key)
            while len(self._plans) > PLAN_CACHE_SIZE:
                victim = next(
                    (k for k in self._plans if k != self._provisioned_key), None
                )
                if victim is None:
                    break
                del self._plans[victim]
        return plan

    # ------------------------------------------------------------------ #
    # Analytical cost                                                      #
    # ------------------------------------------------------------------ #
    def steps(self) -> List[DataflowStep]:
        """The sixteen dataflow steps for this configuration."""
        return list(self.plan().dataflow_steps)

    def cost(self) -> MappingCost:
        """Cost every step with the Table II / technology model.

        The per-step dispatch lives in the plan's compilation
        (:func:`~repro.mapping.plan._analytic_step_cost`); this method just
        reads the compiled result.
        """
        return self.plan().cost()

    # ------------------------------------------------------------------ #
    # Functional execution                                                 #
    # ------------------------------------------------------------------ #
    def execute_functional(
        self,
        scores: np.ndarray,
        output_fraction_bits: Optional[int] = None,
        engine: Optional[str] = None,
    ) -> np.ndarray:
        """Execute the compiled plan for one score vector.

        Parameters
        ----------
        scores:
            One softmax input vector (floating point logits).
        output_fraction_bits:
            Fractional bits of the normalised output; defaults to the
            ``2M + 12`` result-column width.
        engine:
            Functional AP engine (see :data:`repro.ap.engine.ENGINES`);
            defaults to the mapping's configured engine.

        Returns
        -------
        The softmax probabilities computed by the lowered dataflow program
        (one word per row; correctness is what matters here, the packing
        factor only affects the analytical cost).
        """
        scores = np.asarray(scores, dtype=np.float64)
        if scores.ndim != 1:
            raise ValueError("execute_functional processes one vector at a time")
        return self.execute_functional_batch(
            scores[None, :],
            output_fraction_bits=output_fraction_bits,
            engine=engine,
        )[0]

    def execute_functional_batch(
        self,
        scores: np.ndarray,
        output_fraction_bits: Optional[int] = None,
        engine: Optional[str] = None,
        valid_lengths: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Execute the compiled plan for a whole ``(batch, seq)`` tensor.

        All ``batch`` softmax vectors form one fused row space (each vector
        a contiguous ``seq``-row segment) and the lowered program runs
        *once*: element-wise steps are word-parallel over every row of
        every vector, and the reduction/broadcast steps are segmented so
        each vector sums only its own block.  With the ``"vectorized"``
        engine this is the fused packed fast path; the ``"reference"``
        engine interprets the same program on the bit-serial AP and
        produces bit-identical results (the per-vector programs are
        independent).

        Parameters
        ----------
        scores:
            ``(batch, seq)`` floating-point logits; each row is one softmax.
        output_fraction_bits:
            Fractional bits of the normalised output; defaults to the
            ``2M + 12`` result-column width.
        engine:
            Functional AP engine; defaults to the mapping's configured one.
        valid_lengths:
            Optional per-vector prefix lengths (shape ``(batch,)``, each in
            ``1..seq``).  Vector ``b`` then softmaxes only its first
            ``valid_lengths[b]`` elements and the remaining positions return
            probability zero — the layout an attention row sees under the
            causal mask.  The plan executors run only the valid words (the
            ``reference`` AP clears the padding words' ``vapprox`` field
            before the reduction, as the modeled hardware does), so the
            valid prefix is bit-identical to an unpadded run of the same
            length.

        Returns
        -------
        ``(batch, seq)`` softmax probabilities.
        """
        scores = np.asarray(scores, dtype=np.float64)
        if scores.ndim != 2:
            raise ValueError(
                "execute_functional_batch expects a (batch, seq) score tensor"
            )
        plan = self.plan(
            sequence_length=scores.shape[1],
            output_fraction_bits=output_fraction_bits,
        )
        return plan.execute(scores, valid_lengths=valid_lengths, engine=engine)
