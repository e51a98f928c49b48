"""Tests for the zoo's on-disk dataset split cache.

Each split the zoo trains on is generated once per zoo cache directory,
published as ``splits/<dataset>[_fast]_<tag>.npz`` and read back, with the
same bytes, by every later load -- in this process after
``clear_model_caches()`` and in any fresh one.  The configs here are small,
so generating a split takes milliseconds.
"""

import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro.datasets as datasets
import repro.experiments.zoo as zoo
from repro.datasets import generate_digits, generate_objects, train_test_split
from repro.obs import TRACER
from repro.pipeline.runner import clear_model_caches

SRC = Path(__file__).resolve().parents[1] / "src"

#: small fast-profile configs, patched over the zoo's for every test here
SMALL_CONFIGS = {
    "DIGITS_CONFIG_FAST": {"n_samples": 40, "size": 12, "seed": 3},
    "OBJECTS_CONFIG_FAST": {"n_samples": 30, "size": 12, "seed": 4},
}

#: dataset -> (loader, generator, config attribute, the loader's test fraction)
DATASETS = {
    "digits": (zoo.load_digits_split, generate_digits, "DIGITS_CONFIG_FAST", 0.15),
    "objects": (zoo.load_objects_split, generate_objects, "OBJECTS_CONFIG_FAST", 0.2),
}


@pytest.fixture()
def split_cache(tmp_path, monkeypatch):
    """A private, initially empty zoo cache with small fast configs."""
    monkeypatch.setattr(zoo, "CACHE_DIR", tmp_path / "zoo")
    for attr, config in SMALL_CONFIGS.items():
        monkeypatch.setattr(zoo, attr, config)
    clear_model_caches()
    yield tmp_path / "zoo"
    clear_model_caches()


@pytest.fixture()
def generated(monkeypatch):
    """The datasets generated from here on, in order."""
    calls = []
    for name, (_, generator, _, _) in DATASETS.items():

        def counting(name=name, generator=generator, **config):
            calls.append(name)
            return generator(**config)

        monkeypatch.setattr(zoo, generator.__name__, counting)
    return calls


def split_path(dataset):
    _, _, attr, test_fraction = DATASETS[dataset]
    return zoo.split_cache_path(dataset, getattr(zoo, attr), test_fraction, fast=True)


def digests(split):
    """SHA-256 of every array of ``split``, by part and field."""
    return {
        f"{part}_{field}": hashlib.sha256(getattr(getattr(split, part), field).tobytes()).hexdigest()
        for part in ("train", "test")
        for field in ("images", "labels")
    }


def run_python(code, cache):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_DA_CACHE"] = str(cache)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_a_split_read_back_equals_a_freshly_generated_one(split_cache, generated, dataset):
    load, generator, attr, test_fraction = DATASETS[dataset]
    fresh = load(fast=True)
    assert split_path(dataset).is_file()
    clear_model_caches()
    read = load(fast=True)
    assert read is not fresh and generated == [dataset]  # the second load read the file

    reference = train_test_split(generator(**SMALL_CONFIGS[attr]), test_fraction)
    for part in ("train", "test"):
        want = getattr(reference, part)
        for got in (getattr(fresh, part), getattr(read, part)):
            assert got.name == want.name
            for field in ("images", "labels"):
                a, b = getattr(got, field), getattr(want, field)
                assert (a.dtype, a.shape, a.strides) == (b.dtype, b.shape, b.strides)
                assert a.tobytes() == b.tobytes()
                assert not a.flags.writeable


def test_a_warm_cache_generates_nothing_here_or_in_a_fresh_process(split_cache, generated):
    splits = {name: load(fast=True) for name, (load, _, _, _) in DATASETS.items()}
    assert generated == ["digits", "objects"]
    clear_model_caches()
    for name, (load, _, _, _) in DATASETS.items():
        assert digests(load(fast=True)) == digests(splits[name])
    assert generated == ["digits", "objects"]

    # a fresh process over the same cache: generating raises, and rendering
    # would be the only reason to import scipy
    child = run_python(
        "import hashlib, json, sys\n"
        "import repro.experiments.zoo as zoo\n"
        f"zoo.DIGITS_CONFIG_FAST = {SMALL_CONFIGS['DIGITS_CONFIG_FAST']!r}\n"
        f"zoo.OBJECTS_CONFIG_FAST = {SMALL_CONFIGS['OBJECTS_CONFIG_FAST']!r}\n"
        "def refuse(**config):\n"
        "    raise AssertionError('generated a split over a warm cache')\n"
        "zoo.generate_digits = zoo.generate_objects = refuse\n"
        "splits = {'digits': zoo.load_digits_split(fast=True),\n"
        "          'objects': zoo.load_objects_split(fast=True)}\n"
        "arrays = {name: {f'{part}_{field}': hashlib.sha256(\n"
        "    getattr(getattr(split, part), field).tobytes()).hexdigest()\n"
        "    for part in ('train', 'test') for field in ('images', 'labels')}\n"
        "    for name, split in splits.items()}\n"
        "scipy = sorted(m for m in sys.modules if 'scipy' in m)\n"
        "print(json.dumps({'arrays': arrays, 'scipy': scipy}))\n",
        split_cache,
    )
    assert child["scipy"] == []
    assert child["arrays"] == {name: digests(split) for name, split in splits.items()}


def test_concurrent_cold_loads_generate_a_split_once(split_cache, generated):
    # each thread's FileLock opens its own descriptor, and flock(2) makes
    # descriptors of one process wait for each other as processes do
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(zoo.load_digits_split, fast=True) for _ in range(6)]
            splits = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert generated == ["digits"]
    assert all(split is splits[0] for split in splits)


def test_every_input_of_a_split_names_its_own_file(tmp_path, monkeypatch):
    monkeypatch.setattr(zoo, "CACHE_DIR", tmp_path)
    config = SMALL_CONFIGS["DIGITS_CONFIG_FAST"]
    base = zoo.split_cache_path("digits", config, 0.15, fast=True)
    assert base.parent == tmp_path / "splits"
    assert base.name.startswith("digits_fast_") and base.suffix == ".npz"
    assert zoo.split_cache_path("digits", dict(config), 0.15, fast=True) == base
    others = [
        zoo.split_cache_path("digits", config, 0.5, fast=True),
        zoo.split_cache_path("digits", {**config, "seed": 4}, 0.15, fast=True),
        zoo.split_cache_path("digits", {**config, "n_samples": 41}, 0.15, fast=True),
        zoo.split_cache_path("objects", config, 0.15, fast=True),
        zoo.split_cache_path("digits", config, 0.15, fast=False),
    ]
    monkeypatch.setattr(
        datasets, "DATASET_NUMERICS_VERSION", datasets.DATASET_NUMERICS_VERSION + 1
    )
    others.append(zoo.split_cache_path("digits", config, 0.15, fast=True))
    assert len({base, *others}) == 1 + len(others)


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _another_config(path):
    # a well-formed split of 20 images, published under the 40-image name
    zoo._write_split(train_test_split(generate_digits(n_samples=20, size=12, seed=3), 0.15), path)


def _another_size(path):
    zoo._write_split(train_test_split(generate_digits(n_samples=40, size=16, seed=3), 0.15), path)


def _garbage(path):
    path.write_bytes(b"not a zip archive")


@pytest.mark.parametrize(
    "damage", [_truncate, _another_config, _another_size, _garbage], ids=lambda f: f.__name__[1:]
)
def test_an_untrusted_split_file_is_replaced_with_the_same_bytes(split_cache, generated, damage):
    before = digests(zoo.load_digits_split(fast=True))
    path = split_path("digits")
    damage(path)
    clear_model_caches()
    after = zoo.load_digits_split(fast=True)
    assert generated == ["digits", "digits"]  # rejected, unlinked and generated again
    assert digests(after) == before
    clear_model_caches()
    assert digests(zoo.load_digits_split(fast=True)) == before
    assert generated == ["digits", "digits"]  # the replacement is trusted


def test_traced_loads_show_a_generate_span_only_when_cold(split_cache, tmp_path):
    spool = tmp_path / "spool"
    TRACER.configure(enabled=True, directory=spool)
    try:
        zoo.load_digits_split(fast=True)
        clear_model_caches()
        zoo.load_digits_split(fast=True)
    finally:
        TRACER.configure()
    spans = [
        json.loads(line)
        for file in sorted(spool.glob("*.ndjson"))
        for line in file.read_text().splitlines()
    ]
    ours = [(s["name"], s["cat"], s["args"]["split"]) for s in spans if s["cat"] == "datasets"]
    name = split_path("digits").name
    assert ours == [("datasets.generate", "datasets", name), ("datasets.load", "datasets", name)]


def test_importing_the_entry_points_leaves_scipy_out(tmp_path):
    loaded = run_python(
        "import json, sys\n"
        "import repro.cli, repro.pipeline.catalog, repro.service.app\n"
        "print(json.dumps(sorted(m for m in sys.modules if 'scipy' in m)))\n",
        tmp_path / "zoo",
    )
    assert loaded == []
