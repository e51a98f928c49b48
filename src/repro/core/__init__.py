"""Defensive Approximation core: the paper's contribution.

* :mod:`repro.core.defense` -- :class:`DefensiveApproximation`, the drop-in
  hardware conversion of a trained model plus accuracy bookkeeping.
* :mod:`repro.core.evaluation` -- the three threat-model harnesses
  (transferability, black-box, white-box) behind Tables 2-5 and Figures 8-11.
* :mod:`repro.core.substitute` -- black-box substitute model training.
* :mod:`repro.core.confidence` -- classification-confidence analysis (Figure 12).
* :mod:`repro.core.metrics` -- image distance metrics (L0/L2/Linf, MSE, PSNR).
* :mod:`repro.core.results` -- small table/report formatting helpers shared by
  the pipeline and the examples.
"""

#: numerics version of the evaluation harnesses (victim selection, success
#: accounting, distance metrics).  Bump when how cells *measure* changes
#: without the underlying attacks or models changing.
EVALUATION_NUMERICS_VERSION = 1

from repro.core.confidence import ConfidenceComparison, classification_confidence, compare_confidence
from repro.core.defense import DefensiveApproximation
from repro.core.evaluation import (
    BlackBoxEvaluation,
    TransferabilityEvaluation,
    WhiteBoxEvaluation,
    evaluate_black_box,
    evaluate_transferability,
    evaluate_white_box,
)
from repro.core.metrics import l0_distance, l2_distance, linf_distance, mse, psnr
from repro.core.results import format_table
from repro.core.substitute import train_substitute

__all__ = [
    "DefensiveApproximation",
    "TransferabilityEvaluation",
    "BlackBoxEvaluation",
    "WhiteBoxEvaluation",
    "evaluate_transferability",
    "evaluate_black_box",
    "evaluate_white_box",
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
