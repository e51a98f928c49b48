"""Defensive Approximation core: the paper's contribution.

* :mod:`repro.core.defense` -- :class:`DefensiveApproximation`, the drop-in
  hardware conversion of a trained model plus accuracy bookkeeping.
* :mod:`repro.core.evaluation` -- the threat-model protocols the cells run:
  transfer (transferability and black-box, Tables 2-5 and 10) and white-box
  (Figures 8-11), each a function over one slice of victims plus a fold.
* :mod:`repro.core.substitute` -- black-box substitute model training.
* :mod:`repro.core.confidence` -- classification-confidence analysis (Figure 12).
* :mod:`repro.core.metrics` -- image distance metrics (L0/L2/Linf, MSE, PSNR).
* :mod:`repro.core.results` -- small table/report formatting helpers shared by
  the pipeline and the examples.
"""

#: numerics version of the threat-model protocols the cells run (victim
#: selection, success accounting, distance metrics).  Bump when how cells
#: *measure* changes without the underlying attacks or models changing.
EVALUATION_NUMERICS_VERSION = 1

from repro.core.confidence import ConfidenceComparison, classification_confidence, compare_confidence
from repro.core.defense import DefensiveApproximation
from repro.core.metrics import l0_distance, l2_distance, linf_distance, mse, psnr
from repro.core.results import format_table
from repro.core.substitute import train_substitute

__all__ = [
    "DefensiveApproximation",
    "train_substitute",
    "classification_confidence",
    "compare_confidence",
    "ConfidenceComparison",
    "l0_distance",
    "l2_distance",
    "linf_distance",
    "mse",
    "psnr",
    "format_table",
]
