"""Hardware cost model.

The paper reports normalised energy and delay of the exact multiplier, the
Ax-FPM and the Bfloat16 multiplier (Table 7) and of the bare mantissa
multipliers (Table 9), measured with 45 nm PTM transistor models in Keysight
ADS.  No circuit simulator is available offline, so this package provides an
analytical gate-count model: every adder cell contributes energy proportional
to its transistor count and delay along the array's critical path proportional
to its relative cell delay.  The model reproduces the *normalised ratios* the
paper reports.
"""

#: version of the analytical gate-count cost model.  Bump when transistor
#: counts, cell delays or the normalisation change; energy cells declare an
#: ``"hw"`` dependency and re-key on it.
HW_MODEL_VERSION = 1

from repro.hw.energy_model import (
    CellCost,
    MultiplierCost,
    estimate_array_multiplier_cost,
    estimate_fpm_cost,
)
from repro.hw.report import energy_delay_table, mantissa_energy_delay_table

__all__ = [
    "CellCost",
    "MultiplierCost",
    "estimate_array_multiplier_cost",
    "estimate_fpm_cost",
    "energy_delay_table",
    "mantissa_energy_delay_table",
]
