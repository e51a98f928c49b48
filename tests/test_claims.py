"""The paper's claims as catalog data: registration, scoping, `run`'s verdicts."""

import pytest

from repro.cli import main
from repro.pipeline import EXPERIMENTS, get_experiment, list_experiments
from repro.pipeline.catalog import Claim, check_claims, register_experiment

#: the catalog experiments that need no trained model (~1 s together on --fast)
ZOO_FREE = [
    "fig03_axfpm_noise",
    "fig04_approx_convolution",
    "fig13_bfloat16_noise",
    "fig15_heap_noise",
    "table07_energy_delay",
    "table09_mantissa_energy",
]


def run_fast(names, results_dir):
    return main(
        [
            "run",
            *names,
            "--fast",
            "--no-cache",
            "--jobs",
            "1",
            "--quiet",
            "--results-dir",
            str(results_dir),
        ]
    )


@pytest.fixture()
def register_claims():
    """Register a copy of table07 under a test name with the given claims."""
    name = "claims_test_energy"

    def register(*claims):
        spec = get_experiment("table07_energy_delay").replace(name=name)
        register_experiment(spec, claims=claims)
        return name

    yield register
    EXPERIMENTS.unregister(name)


def test_every_catalog_experiment_claims_something_in_each_profile():
    for name in list_experiments():
        claims = EXPERIMENTS.metadata(name)["claims"]
        for profile in ("fast", "full"):
            assert any(profile in claim.profiles for claim in claims), (name, profile)
        # a misspelt profile would silently drop its claim from every run
        assert all(set(claim.profiles) <= {"fast", "full"} for claim in claims), name


def test_check_claims_scopes_by_profile():
    metrics = {"mean_target_success": {"exact": 1.0, "heap": 0.5, "da": 0.9}}
    fast = check_claims("table10_heap_transferability", True, metrics)
    full = check_claims("table10_heap_transferability", False, metrics)
    assert [v.held for v in fast] == [True]
    assert [v.held for v in full] == [True, False]  # the full-only HEAP comparison
    assert check_claims("no_such_experiment", True, metrics) == []


def test_run_prints_the_zoo_free_claims_holding(tmp_path, capsys):
    assert run_fast(ZOO_FREE, tmp_path) == 0
    out = capsys.readouterr().out
    assert "# paper claims: 19/19 hold" in out
    assert "violated" not in out


def test_a_claim_that_cannot_hold_is_listed_and_run_still_succeeds(
    tmp_path, capsys, register_claims
):
    name = register_claims(
        Claim("the exact multiplier costs energy", lambda m: m["by_name"]["Exact multiplier"]),
        Claim("Ax-FPM costs more than the exact multiplier", lambda m: False),
    )
    assert run_fast([name], tmp_path) == 0
    out = capsys.readouterr().out
    assert "# paper claims: 1/2 hold" in out
    assert f"#   violated: {name}: Ax-FPM costs more than the exact multiplier\n" in out


def test_a_claim_that_raises_is_listed_with_its_error_and_run_still_succeeds(
    tmp_path, capsys, register_claims
):
    name = register_claims(Claim("reads a missing metric", lambda m: m["no_such_metric"] > 0))
    assert run_fast([name], tmp_path) == 0
    out = capsys.readouterr().out
    assert "# paper claims: 0/1 hold" in out
    assert f"#   violated: {name}: reads a missing metric (KeyError: 'no_such_metric')" in out
