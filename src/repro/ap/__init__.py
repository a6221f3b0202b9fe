"""Associative Processor (AP) substrate.

The AP is the paper's custom hardware: a Content Addressable Memory (CAM)
of SRAM cells plus key/mask/tag registers and a controller that realises
arithmetic by sweeping Look-Up-Table (LUT) passes of *compare* and *write*
cycles over the stored words — bit-serial across bit positions, word-parallel
across rows (Fig. 3).  A two-dimensional AP additionally operates across
rows, which makes reductions cheap (Section II-B).

This package provides two complementary models:

* a **functional simulator** (:mod:`repro.ap.cam`, :mod:`repro.ap.lut`,
  :mod:`repro.ap.processor`, :mod:`repro.ap.processor2d`) that executes real
  compare/write passes on a bit-level CAM and therefore *computes* correct
  results while counting cycles — used to validate the SoftmAP mapping;
* an **analytical cost model** (:mod:`repro.ap.cost`, :mod:`repro.ap.tech`)
  implementing the Table II runtime formulas and the 16 nm energy/area
  parameters used for the hardware characterization (Figs. 6-8,
  Tables V-VI).

The functional simulator runs under two interchangeable engines selected
by ``AssociativeProcessor(..., engine=...)`` (the processor engines of
:data:`repro.ap.engine.PROCESSOR_ENGINES`; the third, plan-only
``"compiled"`` engine runs whole lowered plans):

* ``"reference"`` (default) — bit-serial LUT sweeps in a Python loop over
  bit positions; the paper-faithful ground truth, and the only engine that
  records exact data-dependent write activity (``written_bits`` /
  ``row_writes``);
* ``"vectorized"`` — the packed-word :class:`~repro.ap.engine.BitPlaneEngine`
  executing whole row-batches per numpy operation, bit-identical to the
  reference (the differential suite in ``tests/ap/test_engine_parity.py``
  enforces this) with exact compare/write cycle counts, at orders of
  magnitude less wall-clock cost.  Use it for anything that runs softmax
  vectors at realistic sizes; unsupported column layouts fall back to the
  reference sweep automatically.
"""

from repro.ap.cam import CamArray, CamStats
from repro.ap.lut import (
    LutPass,
    Lut,
    XOR_LUT,
    AND_LUT,
    OR_LUT,
    NOT_LUT,
    ADD_LUT,
    SUB_LUT,
    COPY_LUT,
)
from repro.ap.engine import BitPlaneEngine
from repro.ap.fields import Field, FieldAllocator
from repro.ap.processor import AssociativeProcessor
from repro.ap.processor2d import AssociativeProcessor2D
from repro.ap.tech import TechnologyParameters, TECH_16NM
from repro.ap.cost import ApCostModel, OperationCost

__all__ = [
    "CamArray",
    "CamStats",
    "LutPass",
    "Lut",
    "XOR_LUT",
    "AND_LUT",
    "OR_LUT",
    "NOT_LUT",
    "ADD_LUT",
    "SUB_LUT",
    "COPY_LUT",
    "BitPlaneEngine",
    "Field",
    "FieldAllocator",
    "AssociativeProcessor",
    "AssociativeProcessor2D",
    "TechnologyParameters",
    "TECH_16NM",
    "ApCostModel",
    "OperationCost",
]
