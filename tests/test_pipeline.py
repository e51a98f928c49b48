"""Tests for the declarative experiment pipeline (spec -> Runner -> result)."""

import json

import pytest

from repro.pipeline import (
    EXPERIMENT_KINDS,
    ExperimentSpec,
    Runner,
    get_experiment,
    list_experiments,
)
from repro.pipeline.catalog import DIGIT_ATTACKS
from repro.pipeline.cells import _seeded_attack
from repro.pipeline.handlers import _attack_payload
from repro.pipeline.spec import AttackGridEntry, canonical_digest


def make_runner(tmp_path, **kwargs):
    kwargs.setdefault("cache_dir", tmp_path / "cells")
    kwargs.setdefault("results_dir", tmp_path / "results")
    return Runner(**kwargs)


NOISE_SPEC = ExperimentSpec(
    name="test_noise",
    kind="noise_profile",
    title="tiny noise profile",
    params={
        "multipliers": [{"label": "Bfloat16", "name": "bfloat16"}],
        "n_samples": 2000,
        "operand_range": (0.0, 1.0),
    },
)


def test_catalog_covers_the_paper():
    names = list_experiments()
    assert len(names) >= 10
    assert "table04_blackbox_mnist" in names
    assert "table02_transferability_mnist" in names
    for name in names:
        spec = get_experiment(name)
        assert spec.name == name
        assert spec.kind in EXPERIMENT_KINDS


def test_spec_digest_and_replace():
    spec = get_experiment("table02_transferability_mnist")
    assert spec.digest() == spec.digest()
    changed = spec.replace(n_samples=3)
    assert changed.n_samples == 3
    assert changed.digest() != spec.digest()
    assert spec.n_samples != 3  # original untouched (frozen dataclass)


def test_run_writes_results_and_caches_cells(tmp_path):
    runner = make_runner(tmp_path)
    result = runner.run(NOISE_SPEC)
    assert result.cache_misses == 1 and result.cache_hits == 0
    txt = tmp_path / "results" / "test_noise.txt"
    js = tmp_path / "results" / "test_noise.json"
    assert txt.exists() and js.exists()
    assert "MRED" in txt.read_text()
    payload = json.loads(js.read_text())
    assert payload["name"] == "test_noise"
    assert payload["metrics"]["profiles"]["Bfloat16"]["n_samples"] == 2000
    assert payload["spec"]["kind"] == "noise_profile"

    # second run: artifact cache hit, identical metrics
    rerun = make_runner(tmp_path).run(NOISE_SPEC)
    assert rerun.cache_hits == 1 and rerun.cache_misses == 0
    assert rerun.metrics == result.metrics


def test_cache_key_depends_on_spec_content(tmp_path):
    runner = make_runner(tmp_path)
    runner.run(NOISE_SPEC)
    changed = NOISE_SPEC.replace(
        params={**NOISE_SPEC.params, "n_samples": 1000}
    )
    result = runner.run(changed)
    assert result.cache_misses == 1  # different payload -> new cell


def test_no_cache_mode_recomputes(tmp_path):
    runner = make_runner(tmp_path, use_cache=False)
    runner.run(NOISE_SPEC)
    rerun = make_runner(tmp_path, use_cache=False).run(NOISE_SPEC)
    assert rerun.cache_hits == 0 and rerun.cache_misses == 1


def test_fast_mode_scales_attack_params_and_budgets():
    fast = Runner(fast=True)
    full = Runner(fast=False)
    entry = AttackGridEntry("PGD", "pgd", {"epsilon": 0.1, "steps": 15})
    assert full.attack_params(entry) == {"epsilon": 0.1, "steps": 15}
    assert fast.attack_params(entry) == {"epsilon": 0.1, "steps": 3}
    boundary = AttackGridEntry("BA", "boundary", {"max_iterations": 80, "init_trials": 30})
    assert fast.attack_params(boundary) == {"max_iterations": 20, "init_trials": 10}
    spec = get_experiment("table02_transferability_mnist")
    assert full.sample_budget(spec) == spec.n_samples
    assert fast.sample_budget(spec) <= 4


def test_attack_grid_entries_resolve_through_attack_registry():
    # the path the attack cells take: the handlers' planned payload, then
    # the shard's seeded instantiation through the attack registry
    spec = get_experiment("table02_transferability_mnist")
    for fast in (False, True):
        runner = Runner(fast=fast)
        for entry in DIGIT_ATTACKS:
            attack = _seeded_attack(_attack_payload(runner, spec, entry), victim_offset=3)
            assert attack.name  # instantiated Attack subclass
            assert attack.seed_offset == 3


def test_unknown_experiment_raises_keyerror():
    with pytest.raises(KeyError):
        Runner().run("does_not_exist")


def test_unknown_kind_raises_keyerror():
    spec = ExperimentSpec(name="bad", kind="no_such_kind")
    with pytest.raises(KeyError):
        Runner().run(spec)


def test_digest_is_order_insensitive_for_dict_payloads():
    assert canonical_digest({"a": 1, "b": 2}) == canonical_digest({"b": 2, "a": 1})
    assert canonical_digest({"a": 1}) != canonical_digest({"a": 2})
