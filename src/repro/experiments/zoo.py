"""Trained-model zoo with on-disk caching.

The paper's experiments start from pre-trained exact classifiers (LeNet-5 on
MNIST, AlexNet on CIFAR-10).  This module plays that role for the synthetic
datasets: models are trained once, their parameters are cached under
``~/.cache/repro-da`` (override with the ``REPRO_DA_CACHE`` environment
variable), and every experiment / example reuses them.

The configurations here are the calibrated "paper models" of this
reproduction: they reach high clean accuracy and, once converted to DA, lose
only a small amount of it (see EXPERIMENTS.md).  Each entry also has a *fast*
profile (``fast=True``) -- a smaller dataset and shorter training schedule,
cached separately -- used by ``python -m repro run <experiment> --fast`` and
the CI smoke test.

Every entry declares its full **training recipe** as a plain dict -- the
architecture, optimizer, schedule and dataset configuration its trainer
actually reads -- registered as the entry's ``"recipe"`` metadata.  The
recipe, together with the model/dataset numerics versions, digests into the
entry's cache filename (:func:`zoo_cache_path`): change a recipe and only
*that* entry's ``.npz`` files go stale and retrain, while every other model
keeps its cache.  The same digest is the entry's ``zoo:<name>`` fingerprint
surface (:mod:`repro.pipeline.fingerprints`), so grid cells that evaluated
the old model re-key in the same stroke.  This replaced the global
``ZOO_NUMERICS_VERSION`` filename tag -- see ``docs/caching.md``.

Each cached ``.npz`` is one **training unit** (:class:`TrainingUnit`),
declared as the entry's ``"units"`` metadata: ``lenet_digits`` and
``alexnet_objects`` have one each, ``dq_objects`` its full and weight-only
models, ``substitute_digits`` one per victim (waiting for ``lenet_digits``,
which its recipe ``depends_on``).  A run schedules the missing units of a
cold zoo on the same queue as its cells (:mod:`repro.parallel.engine`): a
``--jobs N`` run trains them on its one worker pool, next to the cells that
need none of them.  Every unit publishes through the same lock and atomic
write, so pool, parent and foreign processes never train one twice.

The dataset splits the entries train on are cached the same way, under
``splits/`` (:func:`split_cache_path`): generated once per cache directory,
then read back, byte-identical, by every later process.

All entries are registered in the unified ``"zoo"`` registry so the experiment
pipeline can resolve them by name.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.allocator import release_freed_memory
from repro.datasets import (
    DATASETS,
    Dataset,
    DataSplit,
    generate_digits,
    generate_objects,
    split_sizes,
    train_test_split,
)
from repro.nn import (
    SGD,
    Adam,
    build_alexnet,
    build_dq_cnn,
    build_lenet5,
    forward_macs,
    train_classifier,
)
from repro.nn.network import Sequential
from repro.obs import TRACER
from repro.parallel.locks import load_or_make
from repro.registry import registry

#: unified registry of trained-model providers (namespace ``"zoo"``)
ZOO = registry("zoo")

#: default location of the trained-parameter cache
CACHE_DIR = Path(os.environ.get("REPRO_DA_CACHE", Path.home() / ".cache" / "repro-da"))

#: hex digits of the recipe digest folded into cache filenames
_RECIPE_TAG_WIDTH = 10

#: digit dataset configuration (MNIST substitute)
DIGITS_CONFIG = {"n_samples": 6000, "size": 16, "seed": 1}
DIGITS_CONFIG_FAST = {"n_samples": 2000, "size": 16, "seed": 1}
#: object dataset configuration (CIFAR-10 substitute)
OBJECTS_CONFIG = {"n_samples": 3000, "size": 32, "seed": 2}
OBJECTS_CONFIG_FAST = {"n_samples": 1200, "size": 32, "seed": 2}


# ----------------------------------------------------------------- recipes
# One dict per zoo entry, the single source of truth for its training
# configuration: the builders and trainers below read these values, and the
# recipe digests into the entry's cache filename and fingerprint surface.
# Editing a number here therefore *is* the invalidation: the stale .npz is
# simply never looked up again.

LENET_DIGITS_RECIPE: Dict[str, Any] = {
    "arch": {
        "builder": "lenet5",
        "conv_channels": [12, 24],
        "fc_sizes": [96, 64],
        "dropout": 0.25,
        "seed": 0,
    },
    "optimizer": {"kind": "adam", "lr": 0.002},
    "schedule": {
        "epochs": 25,
        "fine_tune_epochs": 10,
        "fine_tune_lr": 0.0005,
        "fast_epochs": 8,
        "batch_size": 64,
    },
    "dataset": {
        "name": "digits",
        "config": DIGITS_CONFIG,
        "fast_config": DIGITS_CONFIG_FAST,
        "test_fraction": 0.15,
    },
}

ALEXNET_OBJECTS_RECIPE: Dict[str, Any] = {
    "arch": {"builder": "alexnet", "dropout": 0.25, "seed": 0},
    "optimizer": {"kind": "sgd", "lr": 0.02, "momentum": 0.9, "weight_decay": 1e-4},
    "schedule": {
        "epochs": 20,
        "fine_tune_epochs": 8,
        "fine_tune_lr": 0.005,
        "fast_epochs": 6,
        "batch_size": 64,
    },
    "dataset": {
        "name": "objects",
        "config": OBJECTS_CONFIG,
        "fast_config": OBJECTS_CONFIG_FAST,
        "test_fraction": 0.2,
    },
}

DQ_OBJECTS_RECIPE: Dict[str, Any] = {
    "arch": {"builder": "dq_cnn", "bits": 4, "modes": ["full", "weight"], "seed": 3},
    "optimizer": {"kind": "adam", "lr": 0.002},
    "schedule": {"epochs": 18, "fast_epochs": 5, "batch_size": 64},
    "dataset": {
        "name": "objects",
        "config": OBJECTS_CONFIG,
        "fast_config": OBJECTS_CONFIG_FAST,
        "test_fraction": 0.2,
    },
}

SUBSTITUTE_DIGITS_RECIPE: Dict[str, Any] = {
    "arch": {
        "builder": "lenet5",
        "conv_channels": [8, 16],
        "fc_sizes": [64, 48],
        "dropout": 0.2,
        "seed": 11,
    },
    "queries": {"n_queries": 1000, "fast_n_queries": 400},
    "schedule": {
        "epochs": 20,
        "fast_epochs": 6,
        "augmentation_rounds": 1,
        "fast_augmentation_rounds": 0,
        "seed": 11,
    },
    # the substitute is distilled from a victim built on the LeNet entry, so
    # its parameters go stale whenever that entry's recipe moves too
    "depends_on": ["lenet_digits"],
}


def zoo_recipe(name: str) -> Dict[str, Any]:
    """The declared training recipe of one zoo entry (registry metadata)."""
    recipe = ZOO.get(name).metadata.get("recipe")
    if not isinstance(recipe, dict):
        raise KeyError(f"zoo entry {name!r} declares no training recipe")
    return recipe


def zoo_recipe_digest(name: str) -> str:
    """Digest of everything that determines ``name``'s trained parameters.

    Folds the entry's recipe, the model-numerics and dataset-numerics
    versions, and -- transitively -- the digests of any entries the recipe
    ``depends_on``.  This is both the cache filename tag and the entry's
    ``zoo:<name>`` fingerprint surface, so parameter caches and dependent
    grid cells go stale together, per entry, never globally.
    """
    import repro.datasets as datasets
    import repro.nn as nn
    from repro.pipeline.spec import canonical_digest  # lazy: avoids a cycle

    try:
        recipe = zoo_recipe(name)
    except KeyError:
        # a registered entry with no declared recipe (third-party or test
        # registration): it still fingerprints -- on its name and the global
        # numerics constants, the pre-recipe behaviour.  Truly unknown names
        # keep raising (the registry lookup inside zoo_recipe).
        ZOO.get(name)
        recipe = {"undeclared": name}
    return canonical_digest(
        {
            "recipe": recipe,
            "model_numerics": nn.MODEL_NUMERICS_VERSION,
            "dataset_numerics": datasets.DATASET_NUMERICS_VERSION,
            "depends_on": {
                dep: zoo_recipe_digest(dep) for dep in recipe.get("depends_on", [])
            },
        }
    )


def zoo_cache_path(cache_name: str, recipe_name: str) -> Path:
    """Where ``cache_name``'s trained parameters live (recipe-digest-tagged)."""
    tag = zoo_recipe_digest(recipe_name)[:_RECIPE_TAG_WIDTH]
    return CACHE_DIR / f"{cache_name}_{tag}.npz"


#: per-process memo of the dataset splits, keyed ``(dataset, test_fraction,
#: fast)``; the arrays are read-only, since every caller shares them
_SPLITS: Dict[Tuple[str, float, bool], DataSplit] = {}
_SPLITS_LOCK = threading.Lock()


def _fresh_splits_lock() -> None:
    # a child forked while another thread holds the lock would inherit it held
    global _SPLITS_LOCK
    _SPLITS_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_splits_lock)


def split_cache_path(name: str, config: Dict[str, Any], test_fraction: float, fast: bool) -> Path:
    """Where one dataset split is cached, tagged with everything its arrays depend on."""
    import repro.datasets as datasets
    from repro.pipeline.spec import canonical_digest  # lazy: avoids a cycle

    tag = canonical_digest(
        {
            "dataset": name,
            "config": config,
            "test_fraction": float(test_fraction),
            "dataset_numerics": datasets.DATASET_NUMERICS_VERSION,
        }
    )[:_RECIPE_TAG_WIDTH]
    return CACHE_DIR / "splits" / f"{name}{_suffix(fast)}_{tag}.npz"


def _write_split(split: DataSplit, path: Path) -> None:
    arrays = {}
    for part in ("train", "test"):
        data = getattr(split, part)
        arrays[f"{part}_images"] = data.images
        arrays[f"{part}_labels"] = data.labels
        arrays[f"{part}_name"] = np.array(data.name)
    np.savez(path, **arrays)


def _read_split(path: Path, config: Dict[str, Any]) -> DataSplit:
    """The split cached at ``path``; raises ``ValueError`` unless it fits ``config``."""
    size = config["size"]
    parts = {}
    with np.load(path) as data:
        for part in ("train", "test"):
            images, labels = data[f"{part}_images"], data[f"{part}_labels"]
            if (
                images.dtype != np.float32
                or labels.dtype != np.int64
                or images.shape[2:] != (size, size)
                or labels.shape != images.shape[:1]
            ):
                raise ValueError(f"{path.name}: {part} arrays do not fit {config}")
            parts[part] = Dataset(images, labels, name=str(data[f"{part}_name"]))
    train, test = parts["train"], parts["test"]
    if len(train) + len(test) != config["n_samples"] or train.input_shape != test.input_shape:
        raise ValueError(f"{path.name}: the split does not fit {config}")
    return DataSplit(train, test)


def _load_split(
    name: str,
    config: Dict[str, Any],
    test_fraction: float,
    fast: bool,
    generate: Callable[[], Dataset],
) -> DataSplit:
    """One dataset split: memoised per process, cached on disk once per zoo cache."""
    key = (name, float(test_fraction), bool(fast))
    with _SPLITS_LOCK:
        split = _SPLITS.get(key)
    if split is not None:
        return split
    path = split_cache_path(name, config, test_fraction, fast)

    def read(path: Path) -> DataSplit:
        with TRACER.span("datasets.load", cat="datasets", split=path.name):
            return _read_split(path, config)

    def make() -> DataSplit:
        with TRACER.span("datasets.generate", cat="datasets", split=path.name):
            return train_test_split(generate(), test_fraction)

    # loaded outside the memo's lock, which a fork must never inherit held;
    # two threads racing here get equal splits and keep the first published
    split = load_or_make(path, read, make, _write_split)
    for part in (split.train, split.test):
        part.images.flags.writeable = False
        part.labels.flags.writeable = False
    with _SPLITS_LOCK:
        return _SPLITS.setdefault(key, split)


def clear_dataset_splits() -> None:
    """Drop the memoised splits (the next load reads them from the zoo cache)."""
    with _SPLITS_LOCK:
        _SPLITS.clear()


def load_digits_split(test_fraction: float = 0.15, fast: bool = False) -> DataSplit:
    """The digit dataset split used by all digit experiments (cached, memoised)."""
    config = DIGITS_CONFIG_FAST if fast else DIGITS_CONFIG
    return _load_split("digits", config, test_fraction, fast, lambda: generate_digits(**config))


def load_objects_split(test_fraction: float = 0.2, fast: bool = False) -> DataSplit:
    """The object dataset split used by all object experiments (cached, memoised)."""
    config = OBJECTS_CONFIG_FAST if fast else OBJECTS_CONFIG
    return _load_split("objects", config, test_fraction, fast, lambda: generate_objects(**config))


@dataclass(frozen=True)
class TrainingUnit:
    """One cached ``.npz`` of the zoo: the piece of training the engine schedules.

    ``resolve()`` returns the unit's model, training and publishing its
    parameters first (through :func:`_cached_model`) when ``path`` is
    missing.  ``after`` holds the units whose published parameters that
    training reads -- the units of every entry the recipe ``depends_on``.
    ``cost`` is the training work the recipe declares, forward MACs per
    sample (:func:`~repro.nn.models.forward_macs`) x training samples x
    epochs, which the engine turns into seconds; ``None`` for an entry whose
    recipe declares no schedule.
    """

    name: str
    path: Path
    resolve: Callable[[], Sequential] = field(compare=False, repr=False)
    after: Tuple["TrainingUnit", ...] = ()
    cost: Optional[int] = field(default=None, compare=False)


#: ``(unit name, training seconds)`` for every unit this process trained,
#: in order; run telemetry reads the delta to report where training ran
TRAINED_UNITS: List[Tuple[str, float]] = []


def zoo_units(name: str, fast: bool = False, **kwargs) -> List[TrainingUnit]:
    """The training units behind ``ZOO.create(name, fast=fast, **kwargs)``.

    Empty for entries that declare no ``"units"`` metadata (test or
    third-party registrations): they train wherever they are first resolved.
    """
    declare = ZOO.get(name).metadata.get("units")
    return list(declare(fast=fast, **kwargs)) if declare is not None else []


def _unit(
    cache_name: str,
    recipe_name: str,
    resolve: Callable[[], Sequential],
    fast: bool,
    cost: Optional[int] = None,
) -> TrainingUnit:
    """The unit cached as ``cache_name``, tagged with ``recipe_name``'s digest."""
    after = tuple(
        unit
        for dep in zoo_recipe(recipe_name).get("depends_on", [])
        for unit in zoo_units(dep, fast=fast)
    )
    return TrainingUnit(cache_name, zoo_cache_path(cache_name, recipe_name), resolve, after, cost)


def _input_shape(recipe: Dict[str, Any], fast: bool) -> Tuple[int, int, int]:
    """The ``(C, H, W)`` of the samples ``recipe``'s dataset generates."""
    dataset = recipe["dataset"]
    size = dataset["fast_config" if fast else "config"]["size"]
    return DATASETS.get(dataset["name"]).metadata["channels"], size, size


def _recipe_cost(recipe: Dict[str, Any], build: Callable[..., Sequential], fast: bool) -> int:
    """The cost of the model ``build(arch, input_shape)`` :func:`_train_recipe` trains."""
    dataset, schedule = recipe["dataset"], recipe["schedule"]
    n_samples = dataset["fast_config" if fast else "config"]["n_samples"]
    samples, _ = split_sizes(n_samples, dataset["test_fraction"])
    epochs = schedule["fast_epochs"] if fast else schedule["epochs"]
    if not fast:
        epochs += schedule.get("fine_tune_epochs", 0)
    shape = _input_shape(recipe, fast)
    return forward_macs(build(recipe["arch"], shape), shape) * samples * epochs


def _cached_model(
    unit: TrainingUnit, builder: Callable[[], Sequential], trainer: Callable[[Sequential], None]
) -> Sequential:
    """A unit's model with its cached parameters, trained and published first if missing.

    :func:`~repro.parallel.locks.load_or_make` trains each unit once per
    cache directory, however many processes want it; a file whose arrays no
    longer fit the architecture is retrained.
    """
    model = builder()

    def load(path: Path) -> Sequential:
        with TRACER.span("zoo.load", cat="zoo", unit=unit.name):
            model.load(str(path))
        return model

    def train() -> Sequential:
        trained = builder()  # a failed load may have filled some parameters
        start = perf_counter()
        with TRACER.span("zoo.train", cat="zoo", unit=unit.name):
            trainer(trained)
        TRAINED_UNITS.append((unit.name, perf_counter() - start))
        trained.clear_caches()  # the last step's activations and patch matrices
        release_freed_memory()  # the next unit starts from what it needs
        return trained

    return load_or_make(unit.path, load, train, lambda model, tmp: model.save(str(tmp)))


#: the optimizers a recipe's ``optimizer.kind`` names
_OPTIMIZERS = {"adam": Adam, "sgd": SGD}


def _train_recipe(model: Sequential, recipe: Dict[str, Any], split: DataSplit, fast: bool) -> None:
    """Train ``model`` on ``split.train`` as ``recipe`` declares.

    The optimizer is ``recipe["optimizer"]["kind"]``, built from the other
    optimizer fields.  The schedule runs ``fast_epochs`` or ``epochs``; the
    full profile then runs ``fine_tune_epochs`` at ``fine_tune_lr`` on the
    same optimizer, where the schedule declares a fine-tune phase.
    """
    settings = dict(recipe["optimizer"])
    optimizer = _OPTIMIZERS[settings.pop("kind")](model.parameters(), **settings)
    schedule = recipe["schedule"]

    def fit(epochs: int) -> None:
        train_classifier(
            model,
            optimizer,
            split.train.images,
            split.train.labels,
            epochs=epochs,
            batch_size=schedule["batch_size"],
        )

    fit(schedule["fast_epochs"] if fast else schedule["epochs"])
    if not fast and "fine_tune_epochs" in schedule:
        optimizer.lr = schedule["fine_tune_lr"]
        fit(schedule["fine_tune_epochs"])


def _suffix(fast: bool) -> str:
    return "_fast" if fast else ""


def _build_lenet(arch: Dict[str, Any], input_shape: Tuple[int, int, int]) -> Sequential:
    """The LeNet-5 a recipe's ``arch`` declares (the victim's and the substitute's)."""
    return build_lenet5(
        input_shape,
        conv_channels=tuple(arch["conv_channels"]),
        fc_sizes=tuple(arch["fc_sizes"]),
        dropout=arch["dropout"],
        seed=arch["seed"],
    )


def _lenet_unit(fast: bool) -> TrainingUnit:
    return _unit(
        f"lenet_digits{_suffix(fast)}",
        "lenet_digits",
        lambda: lenet_digits(fast)[0],
        fast,
        _recipe_cost(LENET_DIGITS_RECIPE, _build_lenet, fast),
    )


@ZOO.register(
    "lenet_digits",
    metadata={
        "summary": "exact LeNet-5 on the digit dataset",
        "recipe": LENET_DIGITS_RECIPE,
        "units": lambda fast=False: [_lenet_unit(fast)],
    },
)
def lenet_digits(fast: bool = False) -> Tuple[Sequential, DataSplit]:
    """Exact LeNet-5 trained on the synthetic digits (the paper's MNIST model)."""
    recipe = LENET_DIGITS_RECIPE
    split = load_digits_split(recipe["dataset"]["test_fraction"], fast=fast)

    def build() -> Sequential:
        return _build_lenet(recipe["arch"], split.train.input_shape)

    def train(model: Sequential) -> None:
        _train_recipe(model, recipe, split, fast)

    return _cached_model(_lenet_unit(fast), build, train), split


def _build_alexnet(arch: Dict[str, Any], input_shape: Tuple[int, int, int]) -> Sequential:
    return build_alexnet(input_shape, dropout=arch["dropout"], seed=arch["seed"])


def _alexnet_unit(fast: bool) -> TrainingUnit:
    return _unit(
        f"alexnet_objects{_suffix(fast)}",
        "alexnet_objects",
        lambda: alexnet_objects(fast)[0],
        fast,
        _recipe_cost(ALEXNET_OBJECTS_RECIPE, _build_alexnet, fast),
    )


@ZOO.register(
    "alexnet_objects",
    metadata={
        "summary": "exact AlexNet on the object dataset",
        "recipe": ALEXNET_OBJECTS_RECIPE,
        "units": lambda fast=False: [_alexnet_unit(fast)],
    },
)
def alexnet_objects(fast: bool = False) -> Tuple[Sequential, DataSplit]:
    """Exact AlexNet trained on the synthetic objects (the paper's CIFAR-10 model)."""
    recipe = ALEXNET_OBJECTS_RECIPE
    split = load_objects_split(recipe["dataset"]["test_fraction"], fast=fast)

    def build() -> Sequential:
        return _build_alexnet(recipe["arch"], split.train.input_shape)

    def train(model: Sequential) -> None:
        _train_recipe(model, recipe, split, fast)

    return _cached_model(_alexnet_unit(fast), build, train), split


def _build_dq(
    arch: Dict[str, Any], input_shape: Tuple[int, int, int], mode: str, bits: int
) -> Sequential:
    return build_dq_cnn(input_shape, bits=bits, mode=mode, seed=arch["seed"])


def _dq_unit(mode: str, bits: int, fast: bool) -> TrainingUnit:
    return _unit(
        f"dq_{mode}_objects_{bits}b{_suffix(fast)}",
        "dq_objects",
        lambda: _dq_model(mode, bits, fast),
        fast,
        _recipe_cost(DQ_OBJECTS_RECIPE, partial(_build_dq, mode=mode, bits=bits), fast),
    )


def _dq_model(mode: str, bits: int, fast: bool, split: Optional[DataSplit] = None) -> Sequential:
    """One Defensive Quantization model (``mode`` is ``"full"`` or ``"weight"``)."""
    recipe = DQ_OBJECTS_RECIPE
    if split is None:
        split = load_objects_split(recipe["dataset"]["test_fraction"], fast=fast)

    def build() -> Sequential:
        return _build_dq(recipe["arch"], split.train.input_shape, mode, bits)

    def train(model: Sequential) -> None:
        _train_recipe(model, recipe, split, fast)

    return _cached_model(_dq_unit(mode, bits, fast), build, train)


@ZOO.register(
    "dq_objects",
    metadata={
        "summary": "Defensive Quantization models on the objects",
        "recipe": DQ_OBJECTS_RECIPE,
        "units": lambda fast=False, bits=4: [
            _dq_unit(mode, bits, fast) for mode in DQ_OBJECTS_RECIPE["arch"]["modes"]
        ],
    },
)
def dq_models_objects(
    bits: int = 4, fast: bool = False
) -> Tuple[Dict[str, Sequential], DataSplit]:
    """Defensive Quantization models (full and weight-only) trained on the objects.

    Returns a dict with keys ``"full"`` and ``"weight"``.
    """
    recipe = DQ_OBJECTS_RECIPE
    split = load_objects_split(recipe["dataset"]["test_fraction"], fast=fast)
    models = {mode: _dq_model(mode, bits, fast, split) for mode in recipe["arch"]["modes"]}
    return models, split


def _substitute_unit(victim: str, fast: bool) -> TrainingUnit:
    recipe = SUBSTITUTE_DIGITS_RECIPE
    schedule = recipe["schedule"]
    # it trains on the queries plus one noisy copy of them per augmentation round
    queries = recipe["queries"]["fast_n_queries" if fast else "n_queries"]
    rounds = schedule["fast_augmentation_rounds" if fast else "augmentation_rounds"]
    shape = _input_shape(LENET_DIGITS_RECIPE, fast)
    cost = (
        forward_macs(_build_lenet(recipe["arch"], shape), shape)
        * queries
        * (1 + rounds)
        * schedule["fast_epochs" if fast else "epochs"]
    )
    return _unit(
        f"substitute_{victim}_digits{_suffix(fast)}",
        "substitute_digits",
        lambda: substitute_digits(victim=victim, fast=fast),
        fast,
        cost,
    )


@ZOO.register(
    "substitute_digits",
    metadata={
        "summary": "black-box substitute trained from a digit victim's queries",
        "recipe": SUBSTITUTE_DIGITS_RECIPE,
        "units": lambda fast=False, victim="da": [_substitute_unit(victim, fast)],
    },
)
def substitute_digits(victim: str = "da", fast: bool = False) -> Sequential:
    """Black-box substitute model trained from the victim's query labels.

    ``victim`` selects the model whose query responses train the substitute:
    ``"exact"`` for the exact LeNet, ``"da"`` for its Defensive Approximation
    conversion.  The substitute's parameters are cached on disk next to the
    zoo models.
    """
    from repro.core.substitute import train_substitute
    from repro.nn.models import convert_to_approximate

    recipe = SUBSTITUTE_DIGITS_RECIPE
    schedule = recipe["schedule"]
    exact_model, split = lenet_digits(fast=fast)

    def build() -> Sequential:
        return _build_lenet(recipe["arch"], split.train.input_shape)

    def train(substitute: Sequential) -> None:
        victim_model = convert_to_approximate(exact_model) if victim == "da" else exact_model
        n_queries = recipe["queries"]["fast_n_queries" if fast else "n_queries"]
        train_substitute(
            victim_model.predict,
            split.train.images[:n_queries],
            build_model=lambda: substitute,
            epochs=schedule["fast_epochs"] if fast else schedule["epochs"],
            augmentation_rounds=schedule[
                "fast_augmentation_rounds" if fast else "augmentation_rounds"
            ],
            seed=schedule["seed"],
        )

    return _cached_model(_substitute_unit(victim, fast), build, train)
