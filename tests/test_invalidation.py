"""Per-cell cache invalidation: dependency fingerprints do their job.

The contract under test (see ``docs/caching.md``): every cell kind declares
the code/numerics surfaces its bits depend on, the cell digest folds in
exactly those fingerprints, and therefore bumping one surface's version
constant invalidates *all* of its dependents and *only* its dependents --
a kernel tweak recomputes approximate-arithmetic cells while clean-accuracy
and dataset cells stay warm.
"""

import json
import multiprocessing
import subprocess
import sys
from pathlib import Path

import pytest

from repro.pipeline import Runner, list_experiments
from repro.pipeline.fingerprints import (
    content_key,
    diff_fingerprints,
    fingerprint_map,
    meta_status,
    resolve_fingerprint,
)
from repro.registry import RegistryError

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

#: surface key -> (module path, version attribute) for monkeypatch bumps
SURFACE_CONSTANTS = {
    "kernels": ("repro.arith.kernels", "KERNEL_NUMERICS_VERSION"),
    "arith": ("repro.arith", "ARITH_NUMERICS_VERSION"),
    "attacks": ("repro.attacks", "ATTACK_NUMERICS_VERSION"),
    "models": ("repro.nn", "MODEL_NUMERICS_VERSION"),
    "datasets": ("repro.datasets", "DATASET_NUMERICS_VERSION"),
    "evaluation": ("repro.core", "EVALUATION_NUMERICS_VERSION"),
    "hw": ("repro.hw", "HW_MODEL_VERSION"),
}

#: one representative payload per registered cell kind (plan-time shape:
#: digests and dependency declarations never execute the compute)
KIND_PAYLOADS = {
    "transferability": {
        "model": "lenet_digits", "source": "exact", "targets": ("da",),
        "attack": "fgsm", "n_samples": 4,
    },
    "blackbox": {
        "model": "lenet_digits", "substitute": "substitute_digits",
        "victim": "da", "attack": "fgsm", "n_samples": 4,
    },
    "whitebox": {
        "model": "lenet_digits", "victim": "da", "attack": "pgd", "n_samples": 4,
    },
    "accuracy": {"model": "lenet_digits", "variant": "exact", "n_samples": 64},
    "noise_profile": {"multiplier": "axfpm", "n_samples": 100},
    "conv_response": {"model": "lenet_digits", "scale": 0.5},
    "confidence": {"model": "lenet_digits", "n_samples": 16},
    "feature_maps": {"model": "lenet_digits", "variant": "da", "n_samples": 2},
    "energy": {"design": "axfpm"},
}


def bump(monkeypatch, key: str) -> None:
    """Advance one surface's version constant, as a numerics PR would."""
    module_path, attr = SURFACE_CONSTANTS[key]
    module = __import__(module_path, fromlist=[attr])
    monkeypatch.setattr(module, attr, getattr(module, attr) + 1)


@pytest.fixture
def runner(tmp_path):
    return Runner(fast=True, cache_dir=tmp_path / "cells")


# ------------------------------------------------------- declared dependencies
def test_exact_variants_do_not_depend_on_approximate_arithmetic(runner):
    deps = runner.cell_dependencies("accuracy", KIND_PAYLOADS["accuracy"])
    assert "kernels" not in deps and "arith" not in deps
    assert set(deps) == {"datasets", "evaluation", "models", "zoo:lenet_digits"}


def test_approx_variants_pull_in_the_kernel_surfaces(runner):
    payload = dict(KIND_PAYLOADS["accuracy"], variant="da")
    deps = runner.cell_dependencies("accuracy", payload)
    assert "kernels" in deps and "arith" in deps


def test_dq_variants_count_as_exact_arithmetic(runner):
    # independently-trained quantised models evaluate in exact float32;
    # their own training is covered by the dq zoo recipe surface
    payload = dict(
        KIND_PAYLOADS["whitebox"], victim="dq_full", dq_zoo="dq_objects"
    )
    deps = runner.cell_dependencies("whitebox", payload)
    assert "kernels" not in deps and "arith" not in deps
    assert "zoo:dq_objects" in deps


def test_leaf_kinds_have_minimal_dependencies(runner):
    assert runner.cell_dependencies("energy", KIND_PAYLOADS["energy"]) == ("hw",)
    assert runner.cell_dependencies(
        "noise_profile", KIND_PAYLOADS["noise_profile"]
    ) == ("arith",)


def test_an_unregistered_cell_kind_is_refused(runner):
    payload = {"model": "lenet_digits", "x": 1}
    for refuse in (runner.cell_dependencies, runner.cell_digest):
        with pytest.raises(RegistryError, match="some_unregistered_kind"):
            refuse("some_unregistered_kind", payload)


# ------------------------------------------------ surface bumps flip dependents
@pytest.mark.parametrize("kind", sorted(KIND_PAYLOADS))
@pytest.mark.parametrize("surface", sorted(SURFACE_CONSTANTS))
def test_surface_bump_flips_exactly_its_dependents(runner, monkeypatch, kind, surface):
    payload = KIND_PAYLOADS[kind]
    deps = runner.cell_dependencies(kind, payload)
    before = runner.cell_digest(kind, payload)
    bump(monkeypatch, surface)
    after = runner.cell_digest(kind, payload)
    if surface in deps:
        assert after != before, f"{kind} depends on {surface} but did not flip"
    else:
        assert after == before, f"{kind} flipped on unrelated surface {surface}"


def test_zoo_recipe_edit_flips_only_cells_referencing_that_model(
    runner, monkeypatch
):
    from repro.experiments.zoo import zoo_recipe

    t_before = runner.cell_digest("transferability", KIND_PAYLOADS["transferability"])
    e_before = runner.cell_digest("energy", KIND_PAYLOADS["energy"])
    n_before = runner.cell_digest("noise_profile", KIND_PAYLOADS["noise_profile"])
    monkeypatch.setitem(zoo_recipe("lenet_digits"), "probe", "edited")
    assert runner.cell_digest("transferability", KIND_PAYLOADS["transferability"]) != t_before
    assert runner.cell_digest("energy", KIND_PAYLOADS["energy"]) == e_before
    assert runner.cell_digest("noise_profile", KIND_PAYLOADS["noise_profile"]) == n_before


def test_recipe_digests_recurse_through_depends_on(monkeypatch):
    from repro.experiments.zoo import zoo_recipe, zoo_recipe_digest

    sub_before = zoo_recipe_digest("substitute_digits")
    alex_before = zoo_recipe_digest("alexnet_objects")
    # the substitute is trained against lenet_digits' labels: editing the
    # *target's* recipe must retrain the substitute too
    monkeypatch.setitem(zoo_recipe("lenet_digits"), "probe", "edited")
    assert zoo_recipe_digest("substitute_digits") != sub_before
    assert zoo_recipe_digest("alexnet_objects") == alex_before


def test_zoo_cache_filenames_carry_the_recipe_digest(monkeypatch):
    from repro.experiments.zoo import zoo_cache_path, zoo_recipe

    before = zoo_cache_path("lenet_digits", "lenet_digits")
    monkeypatch.setitem(zoo_recipe("lenet_digits"), "probe", "edited")
    after = zoo_cache_path("lenet_digits", "lenet_digits")
    assert before != after  # a recipe edit retrains into a fresh file


# --------------------------------------------------- whole-catalog consistency
def test_kernel_bump_leaves_exact_and_dataset_cells_warm(tmp_path, monkeypatch):
    """The tentpole scenario, over every cell the full catalog plans."""
    from repro.parallel.plan import build_plan
    from repro.pipeline import get_experiment

    def digest_map(runner):
        plan = build_plan(runner, [get_experiment(n) for n in list_experiments()])
        return {
            (task.kind, json.dumps(task.payload, sort_keys=True, default=str)): digest
            for digest, task in plan.tasks.items()
        }

    runner = Runner(fast=True, cache_dir=tmp_path / "cells")
    before = digest_map(runner)
    bump(monkeypatch, "kernels")
    after = digest_map(Runner(fast=True, cache_dir=tmp_path / "cells"))
    assert set(before) == set(after)
    flipped = {key for key in before if before[key] != after[key]}
    for (kind, payload_json), digest in before.items():
        payload = json.loads(payload_json)
        deps = runner.cell_dependencies(kind, payload)
        if "kernels" in deps:
            assert (kind, payload_json) in flipped
        else:
            assert (kind, payload_json) not in flipped
    # the catalog exercises both sides: some cells flipped, some stayed warm
    assert flipped and flipped != set(before)


@pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
def test_digests_are_identical_in_forked_workers(runner):
    """Pool workers must plan the same digests as the parent process."""
    cases = [(kind, KIND_PAYLOADS[kind]) for kind in sorted(KIND_PAYLOADS)]
    parent = [runner.cell_digest(kind, payload) for kind, payload in cases]

    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()

    def child(queue, cases):
        queue.put([runner.cell_digest(kind, payload) for kind, payload in cases])

    proc = ctx.Process(target=child, args=(queue, cases))
    proc.start()
    child_digests = queue.get(timeout=30)
    proc.join(timeout=30)
    assert child_digests == parent


# -------------------------------------------------- staleness: detect + reclaim
def test_meta_sidecar_records_the_digest_inputs(runner):
    payload = KIND_PAYLOADS["energy"]
    digest = runner.cell_digest("energy", payload)
    runner.write_cell("energy", digest, {"value": 1}, payload=payload)
    meta = runner.store.get_meta("energy", digest)
    assert meta["kind"] == "energy" and meta["fast"] is True
    assert meta["deps"] == fingerprint_map(runner.cell_dependencies("energy", payload))
    assert meta["content_key"] == content_key("energy", True, payload)
    assert meta_status(meta) == "fresh"


def test_bumped_surface_shows_up_as_moved_in_the_diff(runner, monkeypatch):
    payload = KIND_PAYLOADS["energy"]
    recorded = fingerprint_map(runner.cell_dependencies("energy", payload))
    bump(monkeypatch, "hw")
    diff = diff_fingerprints(recorded)
    assert diff["hw"]["moved"] and diff["hw"]["live"] == resolve_fingerprint("hw")
    assert meta_status({"deps": recorded}) == "stale"


def test_outlook_and_stale_gc_roundtrip(tmp_path, monkeypatch):
    """Warm -> (bump) -> stale -> recompute/reclaim, on a real computed cell."""
    from repro.parallel.plan import build_plan, cache_outlook
    from repro.pipeline import get_experiment
    from repro.pipeline.fingerprints import collect_stale

    spec = get_experiment("table07_energy_delay")  # cheap: no zoo, no attacks
    runner = Runner(fast=True, cache_dir=tmp_path / "cells", results_dir=tmp_path)

    outlook = cache_outlook(runner, build_plan(runner, [spec]))
    assert outlook["cold"] == len(outlook["cells"]) > 0

    runner.run(spec.name)
    fresh_runner = Runner(fast=True, cache_dir=tmp_path / "cells", results_dir=tmp_path)
    outlook = cache_outlook(fresh_runner, build_plan(fresh_runner, [spec]))
    assert outlook["warm"] == len(outlook["cells"])

    bump(monkeypatch, "hw")
    bumped_runner = Runner(fast=True, cache_dir=tmp_path / "cells", results_dir=tmp_path)
    outlook = cache_outlook(bumped_runner, build_plan(bumped_runner, [spec]))
    assert outlook["stale"] == len(outlook["cells"])
    assert all(cell["superseded"] for cell in outlook["cells"])

    stale = collect_stale(bumped_runner.store)
    assert {namespace for namespace, _ in stale} == {"energy"}
    for namespace, digest in stale:
        assert bumped_runner.store.remove(namespace, digest)
    assert collect_stale(bumped_runner.store) == []
    outlook = cache_outlook(bumped_runner, build_plan(bumped_runner, [spec]))
    assert outlook["cold"] == len(outlook["cells"])


def test_cache_cli_stats_explain_and_stale_gc(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    cache = tmp_path / "cells"
    runner = Runner(fast=True, cache_dir=cache, results_dir=tmp_path)
    runner.run("table07_energy_delay")
    digest = next(d for _, d, _, _ in runner.store._artifacts())

    assert main(["cache", "explain", digest[:10], "--cache-dir", str(cache), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    report = report[0] if isinstance(report, list) else report
    assert report["status"] == "fresh"
    assert not any(entry["moved"] for entry in report["deps"].values())

    bump(monkeypatch, "hw")
    assert main(["cache", "explain", digest[:10], "--cache-dir", str(cache), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    report = report[0] if isinstance(report, list) else report
    assert report["status"] == "stale" and report["deps"]["hw"]["moved"]

    assert main(["cache", "stats", "--cache-dir", str(cache), "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["staleness"]["stale"] == stats["artifacts"] > 0

    assert main(["cache", "gc", "--stale", "--cache-dir", str(cache)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["stale_removed"] == stats["artifacts"]
    assert main(["cache", "stats", "--cache-dir", str(cache), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["artifacts"] == 0


# ------------------------------------------------------------------- docs lint
def test_docs_lint_passes():
    script = Path(__file__).resolve().parent.parent / "scripts" / "docs_lint.py"
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
