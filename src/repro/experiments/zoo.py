"""Trained-model zoo with on-disk caching.

The paper's experiments start from pre-trained exact classifiers (LeNet-5 on
MNIST, AlexNet on CIFAR-10).  This module plays that role for the synthetic
datasets: models are trained once, their parameters are cached under
``~/.cache/repro-da`` (override with the ``REPRO_DA_CACHE`` environment
variable), and every experiment / example reuses them.

The configurations here are the calibrated "paper models" of this
reproduction: they reach high clean accuracy and, once converted to DA, lose
only a small amount of it (the catalog's paper claims check both).  Each
entry also has a *fast* profile (``fast=True``) -- a smaller dataset and
shorter training schedule, cached separately -- used by
``python -m repro run <experiment> --fast`` and the CI smoke test.

Every entry *is* its **training recipe**, a plain dict registered as the
entry's ``"recipe"`` metadata: the architecture (the ``"model"`` registry
builder its ``arch.builder`` names, with that builder's arguments), the
optimizer or query budget, the schedule and the dataset.  The recipe,
together with the model/dataset numerics versions, digests into the entry's
cache filename (:func:`zoo_cache_path`): change a recipe and only *that*
entry's ``.npz`` files go stale and retrain, while every other model keeps
its cache.  The same digest is the entry's ``zoo:<name>`` fingerprint
surface (:mod:`repro.pipeline.fingerprints`), so grid cells that evaluated
the old model re-key in the same stroke.  This replaced the global
``ZOO_NUMERICS_VERSION`` filename tag -- see ``docs/caching.md``.

Each cached ``.npz`` is one **training unit** (:class:`TrainingUnit`),
declared as the entry's ``"units"`` metadata: ``lenet_digits`` and
``alexnet_objects`` have one each, ``dq_objects`` its full and weight-only
models, ``substitute_digits`` one per victim (waiting for ``lenet_digits``,
which its recipe ``depends_on``).  One constructor, :func:`recipe_unit`,
reads each unit off its recipe -- name, path, cost, model builder, trainer
and the units it waits for -- and a unit loads or trains itself
(:meth:`TrainingUnit.resolve`).  The registered factories are views over
their units.  A run schedules the missing units of a cold zoo on the same
queue as its cells (:mod:`repro.parallel.engine`): a ``--jobs N`` run
trains them on its one worker pool, next to the cells that need none of
them.  Every unit publishes through the same lock and atomic write, so
pool, parent and foreign processes never train one twice.

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
from repro.nn import SGD, Adam, convert_to_approximate, forward_macs, train_classifier
from repro.nn.models import MODELS
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
# configuration: recipe_unit reads its builder, cost and trainer off these
# values, and the recipe digests into the entry's cache filename and
# fingerprint surface.
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

    :func:`recipe_unit` reads every field off a zoo entry's recipe.
    ``after`` holds the units whose published parameters training reads --
    the units of every entry the recipe ``depends_on``.  ``cost`` is the
    training work the recipe declares, forward MACs per sample
    (:func:`~repro.nn.models.forward_macs`) x training samples x epochs,
    which the engine turns into seconds.  ``build`` makes the unit's
    untrained model and ``train`` trains one in place.
    """

    name: str
    path: Path
    after: Tuple["TrainingUnit", ...] = ()
    cost: Optional[int] = field(default=None, compare=False)
    build: Optional[Callable[[], Sequential]] = field(default=None, compare=False, repr=False)
    train: Optional[Callable[[Sequential], None]] = field(default=None, compare=False, repr=False)

    def resolve(self) -> Tuple[Sequential, Optional[float]]:
        """The unit's model with its cached parameters, and its training seconds.

        A missing ``path`` is trained and published first, and the seconds
        are ``None`` when the parameters were only loaded.
        :func:`~repro.parallel.locks.load_or_make` trains each unit once per
        cache directory, however many processes want it; a file whose arrays
        no longer fit the architecture is retrained.
        """
        model = self.build()
        seconds: Optional[float] = None

        def load(path: Path) -> Sequential:
            with TRACER.span("zoo.load", cat="zoo", unit=self.name):
                model.load(str(path))
            return model

        def make() -> Sequential:
            nonlocal seconds
            trained = self.build()  # a failed load may have filled some parameters
            start = perf_counter()
            with TRACER.span("zoo.train", cat="zoo", unit=self.name):
                self.train(trained)
            seconds = perf_counter() - start
            trained.clear_caches()  # the last step's activations and patch matrices
            release_freed_memory()  # the next unit starts from what it needs
            return trained

        resolved = load_or_make(self.path, load, make, lambda model, tmp: model.save(str(tmp)))
        return resolved, seconds


def zoo_units(name: str, fast: bool = False, **kwargs) -> List[TrainingUnit]:
    """The training units behind ``ZOO.create(name, fast=fast, **kwargs)``.

    Empty for entries that declare no ``"units"`` metadata (test or
    third-party registrations): they train wherever they are first resolved.
    """
    declare = ZOO.get(name).metadata.get("units")
    return list(declare(fast=fast, **kwargs)) if declare is not None else []


def _profile(config: Dict[str, Any], key: str, fast: bool) -> Any:
    """``config[key]``, or its ``fast_<key>`` twin on the fast profile."""
    return config[f"fast_{key}" if fast else key]


#: the split loader of each dataset a recipe names
_SPLIT_LOADERS: Dict[str, Callable[..., DataSplit]] = {
    "digits": load_digits_split,
    "objects": load_objects_split,
}


def _split(dataset: Dict[str, Any], fast: bool) -> DataSplit:
    """The split a recipe's ``dataset`` declares (cached, memoised)."""
    return _SPLIT_LOADERS[dataset["name"]](dataset["test_fraction"], fast=fast)


def recipe_unit(
    entry: str, fast: bool, stem: Optional[str] = None, victim: Optional[str] = None, **arch: Any
) -> TrainingUnit:
    """The unit of zoo entry ``entry`` cached as ``stem`` (default: the entry's name).

    Everything is read off the entry's recipe.  The model is the ``"model"``
    registry builder that ``arch.builder`` names, called with the other
    ``arch`` fields (but ``modes``, which lists an entry's units) and
    ``arch``'s overrides (a DQ unit's ``mode`` and ``bits``), on the samples
    of the recipe's dataset -- or of its ``depends_on`` entry's, for a
    recipe that declares none.  A recipe with an ``optimizer`` trains
    through :func:`_train_recipe` on its split; a recipe with ``queries``
    distills its model from the one unit it waits for, resolved only then:
    that exact victim, or its DA conversion when ``victim`` is ``"da"``.
    """
    recipe = zoo_recipe(entry)
    name = (stem or entry) + _suffix(fast)
    after = tuple(
        unit for dep in recipe.get("depends_on", []) for unit in zoo_units(dep, fast=fast)
    )
    dataset = recipe.get("dataset") or zoo_recipe(recipe["depends_on"][0])["dataset"]
    size = _profile(dataset, "config", fast)["size"]
    shape = (DATASETS.get(dataset["name"]).metadata["channels"], size, size)
    args = {key: value for key, value in recipe["arch"].items() if key not in ("builder", "modes")}
    build = partial(MODELS.create, recipe["arch"]["builder"], input_shape=shape, **{**args, **arch})
    schedule = recipe["schedule"]
    epochs = _profile(schedule, "epochs", fast)
    if not fast:
        epochs += schedule.get("fine_tune_epochs", 0)

    if "queries" in recipe:
        n_queries = _profile(recipe["queries"], "n_queries", fast)
        rounds = _profile(schedule, "augmentation_rounds", fast)
        # the queries plus one noisy copy of them per augmentation round
        samples = n_queries * (1 + rounds)

        def train(substitute: Sequential) -> None:
            from repro.core.substitute import train_substitute  # lazy: avoids a cycle

            (victim_unit,) = after
            exact, _ = victim_unit.resolve()
            model = convert_to_approximate(exact) if victim == "da" else exact
            train_substitute(
                model.predict,
                _split(dataset, fast).train.images[:n_queries],
                build_model=lambda: substitute,
                epochs=epochs,
                augmentation_rounds=rounds,
                seed=schedule["seed"],
            )

    else:
        n_samples = _profile(dataset, "config", fast)["n_samples"]
        samples, _ = split_sizes(n_samples, dataset["test_fraction"])

        def train(model: Sequential) -> None:
            _train_recipe(model, recipe, _split(dataset, fast), fast)

    return TrainingUnit(
        name=name,
        path=zoo_cache_path(name, entry),
        after=after,
        cost=forward_macs(build(), shape) * samples * epochs,
        build=build,
        train=train,
    )


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

    fit(_profile(schedule, "epochs", fast))
    if not fast and "fine_tune_epochs" in schedule:
        optimizer.lr = schedule["fine_tune_lr"]
        fit(schedule["fine_tune_epochs"])


def _suffix(fast: bool) -> str:
    return "_fast" if fast else ""


def _models(entry: str, fast: bool, **kwargs: Any) -> List[Sequential]:
    """The models of ``entry``'s units, each loaded, or trained and published first."""
    return [unit.resolve()[0] for unit in zoo_units(entry, fast=fast, **kwargs)]


@ZOO.register(
    "lenet_digits",
    metadata={
        "summary": "exact LeNet-5 on the digit dataset",
        "recipe": LENET_DIGITS_RECIPE,
        "units": lambda fast=False: [recipe_unit("lenet_digits", fast)],
    },
)
def lenet_digits(fast: bool = False) -> Tuple[Sequential, DataSplit]:
    """Exact LeNet-5 trained on the synthetic digits (the paper's MNIST model)."""
    (model,) = _models("lenet_digits", fast)
    return model, _split(LENET_DIGITS_RECIPE["dataset"], fast)


@ZOO.register(
    "alexnet_objects",
    metadata={
        "summary": "exact AlexNet on the object dataset",
        "recipe": ALEXNET_OBJECTS_RECIPE,
        "units": lambda fast=False: [recipe_unit("alexnet_objects", fast)],
    },
)
def alexnet_objects(fast: bool = False) -> Tuple[Sequential, DataSplit]:
    """Exact AlexNet trained on the synthetic objects (the paper's CIFAR-10 model)."""
    (model,) = _models("alexnet_objects", fast)
    return model, _split(ALEXNET_OBJECTS_RECIPE["dataset"], fast)


@ZOO.register(
    "dq_objects",
    metadata={
        "summary": "Defensive Quantization models on the objects",
        "recipe": DQ_OBJECTS_RECIPE,
        "units": lambda fast=False, bits=4: [
            recipe_unit("dq_objects", fast, f"dq_{mode}_objects_{bits}b", mode=mode, bits=bits)
            for mode in DQ_OBJECTS_RECIPE["arch"]["modes"]
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
    models = _models("dq_objects", fast, bits=bits)
    return dict(zip(recipe["arch"]["modes"], models)), _split(recipe["dataset"], fast)


@ZOO.register(
    "substitute_digits",
    metadata={
        "summary": "black-box substitute trained from a digit victim's queries",
        "recipe": SUBSTITUTE_DIGITS_RECIPE,
        "units": lambda fast=False, victim="da": [
            recipe_unit("substitute_digits", fast, f"substitute_{victim}_digits", victim=victim)
        ],
    },
)
def substitute_digits(victim: str = "da", fast: bool = False) -> Sequential:
    """Black-box substitute model trained from the victim's query labels.

    ``victim`` selects the model whose query responses train the substitute:
    ``"exact"`` for the exact LeNet, ``"da"`` for its Defensive Approximation
    conversion.  The substitute's parameters are cached on disk next to the
    zoo models; the LeNet is resolved only when the substitute trains.
    """
    (model,) = _models("substitute_digits", fast, victim=victim)
    return model
