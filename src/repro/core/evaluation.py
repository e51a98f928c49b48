"""The paper's threat-model protocols (Section 3.1), one implementation each.

A protocol is a function over one slice of victims that returns counts and
per-sample statistics; its fold sums a list of slices into the rates and
means the paper reports.  The pipeline's attack cells call the protocol in
every shard and the fold in their merge (:mod:`repro.pipeline.cells`); a
script calls both over one slice.

* :func:`transfer` -- adversarial examples are crafted on a *source*
  classifier and replayed on one or more *targets*.  Transferability
  (grey-box) crafts on the exact model and replays on the DA model, DQ
  models, bfloat16, ... (Tables 2, 3, 5 and 10).  Black-box crafts on a
  substitute trained from the victim's query labels and replays on the
  victim alone (Table 4).  :func:`transfer_rates` folds the slices.
* :func:`white_box` -- the attack runs directly against the victim with full
  (BPDA) gradient access; robustness is the perturbation budget the
  successful examples needed (Figures 8-11).  :func:`white_box_budget` folds
  the slices.

Victims are the samples the crafting model classifies correctly
(:func:`select_correctly_classified`), and a target's rate counts only the
examples that fooled the source -- the "100 %" column of the paper's tables.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.attacks.base import Attack, Classifier
from repro.core.metrics import l2_distance, mse, psnr


def select_correctly_classified(
    classifier: Classifier,
    images: np.ndarray,
    labels: np.ndarray,
    max_samples: Optional[int] = None,
    batch_size: int = 128,
) -> np.ndarray:
    """Indices of samples the classifier labels correctly (optionally capped).

    With ``max_samples`` the scan early-stops once enough correct samples are
    found, predicting in ``batch_size`` chunks: selecting a handful of victims
    no longer pays for classifying the whole test set (which is expensive on
    the emulated approximate hardware).  The returned indices are identical to
    a full scan followed by a cap -- the selection is a prefix property -- so
    every shard of a cell reproduces the same victim set.
    """
    labels = np.asarray(labels)
    if max_samples is None:
        predictions = classifier.predict(images)
        return np.flatnonzero(predictions == labels)
    collected = []
    found = 0
    for start in range(0, len(images), batch_size):
        stop = min(len(images), start + batch_size)
        predictions = classifier.predict(images[start:stop])
        hits = np.flatnonzero(predictions == labels[start:stop]) + start
        collected.append(hits)
        found += len(hits)
        if found >= max_samples:
            break
    indices = np.concatenate(collected) if collected else np.array([], dtype=np.intp)
    return indices[:max_samples]


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


def _mean(values: List[float]) -> float:
    return float(np.mean(np.asarray(values, dtype=np.float64))) if values else float("nan")


# --------------------------------------------------- transfer (grey/black box)
def transfer(
    source: Classifier,
    targets: Mapping[str, Classifier],
    attack: Attack,
    x: np.ndarray,
    y: np.ndarray,
) -> Dict[str, Any]:
    """Craft on ``source`` from the victims ``(x, y)`` and replay on each target.

    Returns ``{"n", "n_fooled", "targets": {name: fooled on it}}``: the
    victims, how many of their examples fool the source, and how many of
    those fool each target too.  An empty slice returns zero counts without
    calling the attack.
    """
    counts: Dict[str, Any] = {
        "n": int(len(x)),
        "n_fooled": 0,
        "targets": {name: 0 for name in targets},
    }
    if not len(x):
        return counts
    result = attack.generate(source, x, y)
    adv = result.adversarial[result.success]
    adv_labels = y[result.success]
    counts["n_fooled"] = int(result.success.sum())
    if len(adv):
        for name, target in targets.items():
            counts["targets"][name] = int(np.sum(target.predict(adv) != adv_labels))
    return counts


def transfer_rates(slices: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum one or more :func:`transfer` slices into success rates.

    A target's rate is over the examples that fooled the source; a rate over
    zero examples reads 0.0.
    """
    n = sum(s["n"] for s in slices)
    fooled = sum(s["n_fooled"] for s in slices)
    return {
        "n_crafted": n,
        "n_source_success": fooled,
        "source_success_rate": _ratio(fooled, n),
        "targets": {
            name: _ratio(sum(s["targets"][name] for s in slices), fooled)
            for name in slices[0]["targets"]
        },
    }


# ------------------------------------------------------------------ white box
def white_box(victim: Classifier, attack: Attack, x: np.ndarray, y: np.ndarray) -> Dict[str, Any]:
    """Attack ``victim`` directly on ``(x, y)`` and measure the noise each success needed.

    Returns ``{"n", "n_success", "l2", "mse", "psnr"}``, the three
    perturbation statistics listed per successful example.  An empty slice
    returns zero counts without calling the attack.
    """
    stats: Dict[str, Any] = {"n": int(len(x)), "n_success": 0, "l2": [], "mse": [], "psnr": []}
    if not len(x):
        return stats
    result = attack.generate(victim, x, y)
    adv = result.adversarial[result.success]
    clean = x[result.success]
    stats["n_success"] = int(result.success.sum())
    if len(adv):
        stats["l2"] = [float(v) for v in l2_distance(clean, adv)]
        stats["mse"] = [float(v) for v in mse(clean, adv)]
        stats["psnr"] = [float(v) for v in psnr(clean, adv)]
    return stats


def white_box_budget(slices: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum :func:`white_box` slices into the success rate and mean perturbation budget."""
    n = sum(s["n"] for s in slices)
    return {
        "n_samples": n,
        "success_rate": _ratio(sum(s["n_success"] for s in slices), n),
        "mean_l2": _mean([v for s in slices for v in s["l2"]]),
        "mean_mse": _mean([v for s in slices for v in s["mse"]]),
        "mean_psnr": _mean([v for s in slices for v in s["psnr"]]),
    }
