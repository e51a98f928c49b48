"""Approximate arithmetic substrate.

This package implements the hardware layer of Defensive Approximation from the
gate level up:

* :mod:`repro.arith.adders` -- a library of full-adder cells, including the
  exact mirror adder and the approximate mirror adders (AMA1..AMA5) used by the
  paper.  AMA5 (``Sum = B``, ``Cout = A``) is the cell the Ax-FPM is built from.
* :mod:`repro.arith.array_multiplier` -- a gate-level, cell-by-cell array
  multiplier with pluggable adder cells, vectorised over numpy arrays.
* :mod:`repro.arith.float_format` -- IEEE-754 single precision field
  manipulation plus bfloat16 truncation helpers.
* :mod:`repro.arith.fpm` -- floating point multipliers built on the above:
  the exact reference, the paper's Ax-FPM, the HEAP comparison design and a
  Bfloat16 multiplier.
* :mod:`repro.arith.error_metrics` -- MRED / NMED and noise-profile utilities
  used by Figures 3, 13, 15 and Table 8.
* :mod:`repro.arith.kernels` -- approximate-GEMM kernels: the reference
  kernel and the compiled LUT kernel (precomposed signed-significand product
  tables, cached weight decompositions, one native call) behind
  :meth:`~repro.arith.fpm.Multiplier.make_gemm_kernel`, the engine of the
  approximate layers' forward passes.
"""

#: numerics version of the multiplier/adder substrate itself (gate-level
#: behaviour, error-metric definitions).  Distinct from the GEMM *engine*
#: version (:data:`repro.arith.kernels.KERNEL_NUMERICS_VERSION`): a faster
#: engine with identical bit patterns bumps neither; a change to what a
#: multiplier *returns* bumps this.  Cells declaring an ``"arith"``
#: dependency re-key on it (see :mod:`repro.pipeline.fingerprints`).
ARITH_NUMERICS_VERSION = 1

from repro.arith.adders import (
    AMA1,
    AMA2,
    AMA3,
    AMA4,
    AMA5,
    AdderCell,
    ExactFullAdder,
    get_cell,
    list_cells,
)
from repro.arith.array_multiplier import ArrayMultiplier, HeterogeneousCellPolicy, UniformCellPolicy
from repro.arith.error_metrics import ErrorProfile, mred, nmed, profile_multiplier
from repro.arith.float_format import (
    FloatFields,
    bfloat16_truncate,
    compose_float32,
    decompose_float32,
    operand_codes,
)
from repro.arith.kernels import (
    KERNEL_STATS,
    FallbackGemmKernel,
    FusedLutGemmKernel,
    GemmKernel,
    signed_product_table,
)
from repro.arith.fpm import (
    AxFPM,
    Bfloat16Multiplier,
    ExactMultiplier,
    HEAPMultiplier,
    Multiplier,
    get_multiplier,
)

__all__ = [
    "AMA1",
    "AMA2",
    "AMA3",
    "AMA4",
    "AMA5",
    "AdderCell",
    "ExactFullAdder",
    "get_cell",
    "list_cells",
    "ArrayMultiplier",
    "UniformCellPolicy",
    "HeterogeneousCellPolicy",
    "ErrorProfile",
    "mred",
    "nmed",
    "profile_multiplier",
    "FloatFields",
    "decompose_float32",
    "compose_float32",
    "bfloat16_truncate",
    "operand_codes",
    "GemmKernel",
    "FallbackGemmKernel",
    "FusedLutGemmKernel",
    "KERNEL_STATS",
    "signed_product_table",
    "Multiplier",
    "ExactMultiplier",
    "AxFPM",
    "HEAPMultiplier",
    "Bfloat16Multiplier",
    "get_multiplier",
]
