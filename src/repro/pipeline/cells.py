"""Grid-cell computation, declaratively keyed by ``(cell_kind, payload)``.

Historically each experiment-kind handler computed its grid cells in inline
closures.  Closures cannot cross a process boundary, so this module turns
every cell kind into a registry entry (namespace ``"cell-kind"``) whose
computation is a plain function of ``(runner, payload)`` -- the payload alone
fully describes the work, which is also why it doubles as the cache key.
Workers of the :mod:`repro.parallel` engine receive nothing but the kind name
and the payload and resolve models/attacks through their own registries.

Sharding
--------
The expensive attack-evaluation kinds (``transferability``, ``blackbox``,
``whitebox``) are decomposed over victim examples into shards (see
:mod:`repro.parallel.sharding`).  Each shard instantiates its own attack --
seeded from the payload digest, with the shard's global start offset telling
the attack which per-example ``SeedSequence`` streams its victims own -- and
returns integer counts / per-sample statistics; :meth:`CellKind.merge` folds
the ordered shard results into the cell value.  Because attacks advance
whole shards as batched active-set rollouts with per-example RNG streams and
a batch-invariant model facade, the shard size is pure execution tuning: any
size (``Runner(shard_size=...)`` / ``REPRO_ATTACK_SHARD_SIZE``), like any
``--jobs`` value, produces bit-for-bit identical cell values.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.arith.error_metrics import ErrorProfile, profile_multiplier
from repro.arith.fpm import MULTIPLIERS
from repro.attacks.base import Attack, Classifier
from repro.attacks.registry import ATTACKS
from repro.core.confidence import compare_confidence
from repro.core.evaluation import select_correctly_classified
from repro.core.metrics import l2_distance, mse, psnr
from repro.nn.approx import ApproxConv2d, prime_gemm_kernels
from repro.nn.layers import Conv2d
from repro.nn.models import VARIANTS
from repro.nn.training import evaluate_accuracy
from repro.obs import TRACER
from repro.parallel.sharding import cell_seed
from repro.parallel.sharding import n_shards as _shard_count
from repro.parallel.sharding import shard_bounds
from repro.pipeline.fingerprints import ZOO_PREFIX
from repro.pipeline.spec import ExperimentSpec
from repro.registry import RegistryError, registry

#: unified registry of cell computations (namespace ``"cell-kind"``)
CELL_KINDS = registry("cell-kind")


@dataclass(frozen=True)
class CellRequest:
    """One cell an experiment needs, tagged with the handler's assembly key."""

    key: Any  #: hashable key the kind's ``assemble`` looks the value up under
    kind: str  #: cell-kind registry name
    payload: Dict[str, Any]  #: JSON-able content; fully determines the cell


@dataclass(frozen=True)
class CellKind:
    """One cell kind: shard computation, merge, model warm-up and deps."""

    name: str
    shard_fn: Callable[[Any, Dict[str, Any], int], Dict[str, Any]]
    merge_fn: Callable[[Dict[str, Any], List[Dict[str, Any]]], Dict[str, Any]]
    shards_fn: Callable[[Any, Dict[str, Any]], int]
    #: payload -> fingerprint surface keys the cell's value depends on
    #: (:mod:`repro.pipeline.fingerprints`)
    deps_fn: Callable[[Dict[str, Any]], Any]
    warm_fn: Optional[Callable[[Any, Dict[str, Any]], None]] = None

    def dependencies(self, payload: Dict[str, Any]) -> tuple:
        """The sorted, deduplicated surface keys this cell re-keys on.

        Declared per kind at registration (``deps=``) and usually
        payload-conditional: an ``accuracy`` cell over the ``exact`` variant
        has no ``kernels`` dependency, its ``da`` sibling does -- which is
        exactly why a kernel bump leaves clean-accuracy cells warm.
        """
        return tuple(sorted(set(self.deps_fn(payload))))

    def n_shards(self, runner, payload: Dict[str, Any]) -> int:
        """How many shards the cell decomposes into.

        Determined by the payload's sample budget and the runner's shard
        size -- an execution parameter, not cell content: every shard layout
        merges to the same value.
        """
        return max(1, int(self.shards_fn(runner, payload)))

    def compute_shard(self, runner, payload: Dict[str, Any], shard_index: int) -> Dict[str, Any]:
        """Compute one shard; safe to run in any process, in any order."""
        return self.shard_fn(runner, payload, shard_index)

    def merge(self, payload: Dict[str, Any], shards: List[Dict[str, Any]]) -> Dict[str, Any]:
        """Fold ordered shard results into the cell value."""
        return self.merge_fn(payload, shards)

    def warm(self, runner, payload: Dict[str, Any]) -> None:
        """Resolve the models/LUTs the cell needs (before a process's first shard of it)."""
        if self.warm_fn is not None:
            self.warm_fn(runner, payload)


def register_cell_kind(
    name: str,
    *,
    compute: Optional[Callable[[Any, Dict[str, Any]], Dict[str, Any]]] = None,
    shard: Optional[Callable[[Any, Dict[str, Any], int], Dict[str, Any]]] = None,
    merge: Optional[Callable[[Dict[str, Any], List[Dict[str, Any]]], Dict[str, Any]]] = None,
    shards: Optional[Callable[[Any, Dict[str, Any]], int]] = None,
    warm: Optional[Callable[[Any, Dict[str, Any]], None]] = None,
    deps: Any,
) -> CellKind:
    """Register a cell kind, either single-shot (``compute``) or sharded.

    ``deps`` declares the fingerprint surfaces the cell's value depends on
    (:mod:`repro.pipeline.fingerprints`): a static tuple of surface keys, or
    a callable ``payload -> keys`` for payload-conditional dependencies.
    """
    deps_fn = deps if callable(deps) else (lambda _payload, _d=tuple(deps): _d)
    if compute is not None:
        kind = CellKind(
            name=name,
            shard_fn=lambda runner, payload, _index, _fn=compute: _fn(runner, payload),
            merge_fn=lambda _payload, results: results[0],
            shards_fn=lambda _runner, _payload: 1,
            warm_fn=warm,
            deps_fn=deps_fn,
        )
    else:
        if shard is None or merge is None or shards is None:
            raise ValueError("sharded cell kinds need shard=, merge= and shards=")
        kind = CellKind(
            name=name, shard_fn=shard, merge_fn=merge, shards_fn=shards, warm_fn=warm,
            deps_fn=deps_fn,
        )
    CELL_KINDS.register(name, kind, metadata={"sharded": compute is None})
    return kind


def get_cell_kind(name: str) -> CellKind:
    """The :class:`CellKind` registered under ``name``."""
    return CELL_KINDS.get(name).factory


# --------------------------------------------------------------------- helpers
def variant_is_approx(name: str) -> bool:
    """Whether a hardware variant's forward pass runs on approximate arithmetic.

    ``dq_*`` variants are independently-trained quantised models evaluated in
    exact float32 (their zoo recipe surface covers them); everything else is
    answered by the variant registry's ``"approx"`` metadata.  Unknown
    variants are treated as approximate -- the conservative direction: a
    too-broad dependency recomputes a warm cell, a too-narrow one serves a
    stale value.
    """
    if name.startswith("dq_"):
        return False
    try:
        meta = VARIANTS.get(name).metadata
    except RegistryError:
        return True
    return bool(meta.get("approx", True))


def variant_surfaces(*variants: str) -> tuple:
    """``("arith", "kernels")`` if any named variant executes approximately."""
    if any(variant_is_approx(name) for name in variants):
        return ("arith", "kernels")
    return ()


def zoo_surfaces(payload: Dict[str, Any], *fields: str) -> tuple:
    """``zoo:<name>`` recipe surfaces for the zoo entries a payload names."""
    return tuple(
        ZOO_PREFIX + str(payload[field]) for field in fields if payload.get(field)
    )


#: surfaces every attack-evaluation cell shares: the attack numerics, the
#: model forward/backward numerics it queries, the dataset its victims come
#: from and the selection/success accounting of the evaluation harness
_ATTACK_SURFACES = ("attacks", "datasets", "evaluation", "models")


def _payload_spec(payload: Dict[str, Any]) -> ExperimentSpec:
    """A minimal spec carrying what model resolution needs from a payload."""
    params = {}
    if "dq_zoo" in payload:
        params["dq_zoo"] = payload["dq_zoo"]
    return ExperimentSpec(name="__cell__", kind="cell", model=payload.get("model", ""), params=params)


def _seeded_attack(payload: Dict[str, Any], victim_offset: int) -> Attack:
    """Instantiate the payload's attack for the shard starting at ``victim_offset``.

    Stochastic attacks get a *cell-level* seed (a pure function of the
    payload digest, identical for every shard) and the shard's global victim
    offset; from those they spawn one ``SeedSequence`` stream per example,
    keyed by the victim's global index -- so the same victim sees the same
    noise whichever shard, of whatever size, processes it, in whichever
    process.  An explicit ``seed`` in the grid entry's params becomes the
    stream entropy instead.
    """
    name = payload["attack"]
    params = dict(payload.get("params", {}))
    if "seed" not in params and _attack_accepts_seed(name):
        params["seed"] = cell_seed(payload)
    attack = ATTACKS.create(name, **params)
    attack.seed_offset = int(victim_offset)
    return attack


def _attack_accepts_seed(name: str) -> bool:
    meta = ATTACKS.get(name).metadata
    spec = meta.get("spec")
    target = spec.attack_class if spec is not None else ATTACKS.get(name).factory
    try:
        return "seed" in inspect.signature(target).parameters
    except (TypeError, ValueError):  # builtins / odd callables: assume no seed
        return False


#: per-process memo of victim-selection index sets.  Every shard of a cell
#: needs the same selection; without the memo each shard would re-run the
#: (expensive, emulated-hardware) prediction scan just to slice out its few
#: victims.  Keyed by the selection's full identity -- the resolved models
#: are fixed for a process lifetime, so the memo can never go stale.
_SELECTION_CACHE: Dict[Any, np.ndarray] = {}


def _shard_samples(
    runner,
    payload: Dict[str, Any],
    classifier: Classifier,
    shard_index: int,
    selector_key: Any,
):
    """The shard's victim examples: correctly-classified, budget-capped, sliced.

    The selection is identical in every shard (a deterministic prefix of the
    test stream) and memoised per process under ``selector_key`` -- the first
    shard a process computes pays for the capped prediction scan, its
    siblings reuse the indices.  Returns ``(images, labels, offset)`` where
    ``offset`` is the shard's start position in the victim stream (the
    per-example RNG spawn base).
    """
    spec = _payload_spec(payload)
    split = runner.split(spec)
    key = (payload.get("model"), payload["n_samples"], bool(runner.fast), selector_key)
    indices = _SELECTION_CACHE.get(key)
    if indices is None:
        with TRACER.span(
            "attack.select_victims",
            cat="attack",
            model=payload.get("model"),
            n_samples=payload["n_samples"],
        ):
            indices = _SELECTION_CACHE[key] = select_correctly_classified(
                classifier, split.test.images, split.test.labels, payload["n_samples"]
            )
    lo, hi = shard_bounds(len(indices), runner.shard_size, shard_index)
    picked = indices[lo:hi]
    return split.test.images[picked], split.test.labels[picked], lo


def _attack_shards(runner, payload: Dict[str, Any]) -> int:
    return _shard_count(payload["n_samples"], runner.shard_size)


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


def _mean(values: List[float]) -> float:
    return float(np.mean(np.asarray(values, dtype=np.float64))) if values else float("nan")


#: process-level memo of completed warm-ups.  A run's cell graph references
#: the same few models from many cells (and sibling experiments share whole
#: grids), so without the memo every shard re-primed the same variant models
#: and GEMM kernels; with it, one warm-up per process and distinct
#: (model, variants) signature covers every shard of every run.
#: Cleared by :func:`repro.pipeline.runner.clear_model_caches` alongside the
#: model memos the signatures refer to.
_WARMED: set = set()


def zoo_requests(payload: Dict[str, Any]) -> List[Tuple[str, Tuple[Tuple[str, Any], ...]]]:
    """The zoo entries a cell payload resolves, each with its keyword arguments.

    Reads the payload fields :func:`zoo_surfaces` fingerprints: the spec
    ``model``, the ``dq_zoo`` (planned only when a DQ variant is involved)
    and a black-box ``substitute`` trained against the cell's ``victim``.
    The keyword arguments come as sorted ``(key, value)`` pairs, so a
    request is hashable.  The warm-up resolves exactly these; the engine
    dispatches a cell only once their units have published
    (:mod:`repro.parallel.engine`).
    """
    requests = [(payload[field], ()) for field in ("model", "dq_zoo") if payload.get(field)]
    if payload.get("substitute"):
        requests.append((payload["substitute"], (("victim", payload["victim"]),)))
    return requests


def _warm_model(runner, payload: Dict[str, Any], variants: List[str]) -> None:
    """Resolve (load, or train) the zoo models a cell depends on.

    Also resolves the hardware variants and primes their fused GEMM kernels:
    the variant models, the mantissa LUTs (read from the zoo cache) and the
    kernels' precomposed signed-product tables.  Each process that computes
    a shard of the cell warms it first; the warm-up is memoised per process
    and (zoo requests, variants, fast) signature -- experiments that share
    cells share one warm-up instead of re-priming per cell.
    """
    requests = zoo_requests(payload)
    key = (bool(runner.fast), tuple(requests), tuple(sorted(variants)))
    if key in _WARMED:
        return
    for name, kwargs in requests:
        runner.zoo(name, **dict(kwargs))
    if payload.get("model"):
        spec = _payload_spec(payload)
        for variant in variants:
            if not variant.startswith("dq_"):  # DQ models came from the dq_zoo above
                prime_gemm_kernels(runner.resolve_variant(spec, variant))
    _WARMED.add(key)


# ------------------------------------------------------------- transferability
def _transferability_shard(runner, payload: Dict[str, Any], shard_index: int) -> Dict[str, Any]:
    spec = _payload_spec(payload)
    source = runner.classifier(spec, payload["source"])
    selector = ("source", payload["source"], payload.get("dq_zoo"))
    x, y, offset = _shard_samples(runner, payload, source, shard_index, selector)
    out: Dict[str, Any] = {
        "n": int(len(x)),
        "n_fooled": 0,
        "targets": {name: 0 for name in payload["targets"]},
    }
    if not len(x):
        return out
    result = _seeded_attack(payload, offset).generate(source, x, y)
    adv = result.adversarial[result.success]
    adv_labels = y[result.success]
    out["n_fooled"] = int(result.success.sum())
    if len(adv):
        for name in payload["targets"]:
            preds = runner.classifier(spec, name).predict(adv)
            out["targets"][name] = int(np.sum(preds != adv_labels))
    return out


def _transferability_merge(payload: Dict[str, Any], shards: List[Dict[str, Any]]) -> Dict[str, Any]:
    n = sum(s["n"] for s in shards)
    fooled = sum(s["n_fooled"] for s in shards)
    return {
        "n_crafted": n,
        "n_source_success": fooled,
        "source_success_rate": _ratio(fooled, n),
        "targets": {
            name: _ratio(sum(s["targets"][name] for s in shards), fooled)
            for name in payload["targets"]
        },
    }


register_cell_kind(
    "transferability",
    shard=_transferability_shard,
    merge=_transferability_merge,
    shards=_attack_shards,
    warm=lambda runner, payload: _warm_model(runner, payload, list(payload["targets"])),
    # adversarial examples are crafted on the source variant and replayed on
    # every target, so approximate arithmetic matters iff any of them is
    # approximate; dq targets add their own training-recipe surface
    deps=lambda p: _ATTACK_SURFACES
    + variant_surfaces(p["source"], *p["targets"])
    + zoo_surfaces(p, "model", "dq_zoo"),
)


# ------------------------------------------------------------------- black box
def _blackbox_shard(runner, payload: Dict[str, Any], shard_index: int) -> Dict[str, Any]:
    spec = _payload_spec(payload)
    substitute = Classifier(runner.zoo(payload["substitute"], victim=payload["victim"]))
    selector = ("substitute", payload["substitute"], payload["victim"])
    x, y, offset = _shard_samples(runner, payload, substitute, shard_index, selector)
    out = {"n": int(len(x)), "n_fooled": 0, "n_victim_fooled": 0}
    if not len(x):
        return out
    result = _seeded_attack(payload, offset).generate(substitute, x, y)
    adv = result.adversarial[result.success]
    adv_labels = y[result.success]
    out["n_fooled"] = int(result.success.sum())
    if len(adv):
        victim = runner.classifier(spec, payload["victim"])
        out["n_victim_fooled"] = int(np.sum(victim.predict(adv) != adv_labels))
    return out


def _blackbox_merge(payload: Dict[str, Any], shards: List[Dict[str, Any]]) -> Dict[str, Any]:
    n = sum(s["n"] for s in shards)
    fooled = sum(s["n_fooled"] for s in shards)
    victim_fooled = sum(s["n_victim_fooled"] for s in shards)
    return {
        "n_crafted": n,
        "substitute_success_rate": _ratio(fooled, n),
        "victim_success_rate": _ratio(victim_fooled, fooled),
    }


register_cell_kind(
    "blackbox",
    shard=_blackbox_shard,
    merge=_blackbox_merge,
    shards=_attack_shards,
    warm=lambda runner, payload: _warm_model(runner, payload, [payload["victim"]]),
    # the substitute is trained from the victim's query labels, so a victim
    # that runs approximately ("da") pulls in the kernel surfaces even though
    # the substitute itself is exact
    deps=lambda p: _ATTACK_SURFACES
    + variant_surfaces(p["victim"])
    + zoo_surfaces(p, "model", "substitute"),
)


# ------------------------------------------------------------------- white box
def _whitebox_shard(runner, payload: Dict[str, Any], shard_index: int) -> Dict[str, Any]:
    spec = _payload_spec(payload)
    victim = runner.classifier(spec, payload["victim"])
    selector = ("victim", payload["victim"], payload.get("dq_zoo"))
    x, y, offset = _shard_samples(runner, payload, victim, shard_index, selector)
    out: Dict[str, Any] = {"n": int(len(x)), "n_success": 0, "l2": [], "mse": [], "psnr": []}
    if not len(x):
        return out
    result = _seeded_attack(payload, offset).generate(victim, x, y)
    adv = result.adversarial[result.success]
    clean = x[result.success]
    out["n_success"] = int(result.success.sum())
    if len(adv):
        out["l2"] = [float(v) for v in l2_distance(clean, adv)]
        out["mse"] = [float(v) for v in mse(clean, adv)]
        out["psnr"] = [float(v) for v in psnr(clean, adv)]
    return out


def _whitebox_merge(payload: Dict[str, Any], shards: List[Dict[str, Any]]) -> Dict[str, Any]:
    n = sum(s["n"] for s in shards)
    successes = sum(s["n_success"] for s in shards)
    return {
        "n_samples": n,
        "success_rate": _ratio(successes, n),
        "mean_l2": _mean([v for s in shards for v in s["l2"]]),
        "mean_mse": _mean([v for s in shards for v in s["mse"]]),
        "mean_psnr": _mean([v for s in shards for v in s["psnr"]]),
    }


register_cell_kind(
    "whitebox",
    shard=_whitebox_shard,
    merge=_whitebox_merge,
    shards=_attack_shards,
    warm=lambda runner, payload: _warm_model(runner, payload, [payload["victim"]]),
    deps=lambda p: _ATTACK_SURFACES
    + variant_surfaces(p["victim"])
    + zoo_surfaces(p, "model", "dq_zoo"),
)


# -------------------------------------------------------------------- accuracy
def _accuracy_compute(runner, payload: Dict[str, Any]) -> Dict[str, Any]:
    spec = _payload_spec(payload)
    variant_model = runner.resolve_variant(spec, payload["variant"])
    _base, split = runner.zoo(payload["model"])
    n = payload["n_samples"]
    x, y = split.test.images[:n], split.test.labels[:n]
    return {"accuracy": float(evaluate_accuracy(variant_model, x, y)), "n": len(x)}


register_cell_kind(
    "accuracy",
    compute=_accuracy_compute,
    warm=lambda runner, payload: _warm_model(runner, payload, [payload["variant"]]),
    # clean accuracy of the *exact* variant has no kernel dependency at all --
    # the flagship case of fine-grained invalidation: a kernel-numerics bump
    # leaves these cells warm while their "da"/"heap"/"bfloat16" siblings
    # recompute
    deps=lambda p: ("datasets", "evaluation", "models")
    + variant_surfaces(p["variant"])
    + zoo_surfaces(p, "model", "dq_zoo"),
)


# --------------------------------------------------------------- noise profile
def _profile_dict(profile: ErrorProfile) -> Dict[str, Any]:
    """The JSON-able scalar fields of an :class:`ErrorProfile`."""
    return {
        "multiplier_name": profile.multiplier_name,
        "n_samples": profile.n_samples,
        "operand_low": profile.operand_low,
        "operand_high": profile.operand_high,
        "mred": profile.mred,
        "nmed": profile.nmed,
        "mean_error": profile.mean_error,
        "mean_abs_error": profile.mean_abs_error,
        "max_abs_error": profile.max_abs_error,
        "fraction_magnitude_inflated": profile.fraction_magnitude_inflated,
        "fraction_positive_error": profile.fraction_positive_error,
        "error_magnitude_correlation": profile.error_magnitude_correlation,
    }


def _noise_profile_compute(runner, payload: Dict[str, Any]) -> Dict[str, Any]:
    multiplier = MULTIPLIERS.create(payload["multiplier"], **payload.get("kwargs", {}))
    return _profile_dict(
        profile_multiplier(
            multiplier,
            n_samples=payload["n_samples"],
            operand_range=tuple(payload["operand_range"]),
        )
    )


# pure multiplier-substrate measurements: no model, dataset or kernel engine
register_cell_kind("noise_profile", compute=_noise_profile_compute, deps=("arith",))


# --------------------------------------------------------- bespoke experiments
def _conv_response_compute(runner, payload: Dict[str, Any]) -> Dict[str, Any]:
    rng = np.random.default_rng(payload["seed"])
    k = payload["kernel_size"]
    kernel = rng.uniform(0.2, 0.9, size=(1, 1, k, k)).astype(np.float32)
    exact = Conv2d(1, 1, k)
    exact.weight.value = kernel
    exact.bias.value = np.zeros(1, dtype=np.float32)
    approx = ApproxConv2d.from_exact(exact, multiplier=MULTIPLIERS.create(payload["multiplier"]))
    noise = rng.uniform(0.0, 1.0, size=(1, 1, k, k)).astype(np.float32)
    points = []
    for alpha in np.linspace(0.0, 1.0, payload["n_points"]):
        image = ((1 - alpha) * noise + alpha * (kernel / kernel.max())).astype(np.float32)
        exact_response = float(exact.forward(image)[0, 0, 0, 0])
        approx_response = float(approx.forward(image)[0, 0, 0, 0])
        points.append(
            {
                "similarity": float(alpha),
                "exact": exact_response,
                "approx": approx_response,
                "gap": approx_response - exact_response,
            }
        )
    return {"points": points}


# compares an exact Conv2d against its ApproxConv2d conversion on synthetic
# inputs: layer numerics + the approximate substrate + the GEMM engine
register_cell_kind(
    "conv_response", compute=_conv_response_compute, deps=("arith", "kernels", "models")
)


def _confidence_compute(runner, payload: Dict[str, Any]) -> Dict[str, Any]:
    spec = _payload_spec(payload)
    split = runner.split(spec)
    exact_model = runner.resolve_variant(spec, "exact")
    approx_model = runner.resolve_variant(spec, "da")
    subset = split.test.sample_per_class(payload["per_class"], rng=np.random.default_rng(0))
    images, labels = subset.images, subset.labels
    both_correct = np.flatnonzero(
        (exact_model.predict(images) == labels) & (approx_model.predict(images) == labels)
    )
    comparison = compare_confidence(
        exact_model, approx_model, images[both_correct], labels[both_correct]
    )
    exact_mean, approx_mean = comparison.mean_confidence()
    fractions = {}
    for threshold in payload["thresholds"]:
        exact_frac, approx_frac = comparison.fraction_above(threshold)
        fractions[str(threshold)] = [exact_frac, approx_frac]
    return {
        "n_samples": int(len(both_correct)),
        "exact_mean": exact_mean,
        "approx_mean": approx_mean,
        "fractions": fractions,
    }


register_cell_kind(
    "confidence",
    compute=_confidence_compute,
    warm=lambda runner, payload: _warm_model(runner, payload, ["exact", "da"]),
    # always compares the exact model against its "da" conversion
    deps=lambda p: ("datasets", "evaluation", "models")
    + variant_surfaces("exact", "da")
    + zoo_surfaces(p, "model"),
)


def _feature_maps_compute(runner, payload: Dict[str, Any]) -> Dict[str, Any]:
    spec = _payload_spec(payload)
    model = runner.resolve_variant(spec, payload["variant"])
    split = runner.split(spec)
    images = split.test.images[: payload["n_images"]]
    last_conv_index = max(i for i, layer in enumerate(model.layers) if isinstance(layer, Conv2d))
    out = images
    for layer in model.layers[: last_conv_index + 2]:  # include the following ReLU
        out = layer.forward(out)
    active = out[out > 0]
    return {
        "mean_active": float(active.mean()) if active.size else 0.0,
        "p90": float(np.percentile(out, 90)),
        "max": float(out.max()),
    }


register_cell_kind(
    "feature_maps",
    compute=_feature_maps_compute,
    warm=lambda runner, payload: _warm_model(runner, payload, [payload["variant"]]),
    deps=lambda p: ("datasets", "models")
    + variant_surfaces(p["variant"])
    + zoo_surfaces(p, "model", "dq_zoo"),
)


def _energy_compute(runner, payload: Dict[str, Any]) -> Dict[str, Any]:
    from repro.hw import energy_delay_table, mantissa_energy_delay_table

    table_fn = energy_delay_table if payload["table"] == "fpm" else mantissa_energy_delay_table
    return {"rows": [[name, energy, delay] for name, energy, delay in table_fn()]}


# analytical cost-model lookups: nothing but the hw model can move them
register_cell_kind("energy", compute=_energy_compute, deps=("hw",))
