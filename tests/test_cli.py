"""Smoke tests for the ``python -m repro`` command line interface."""

import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_list_enumerates_catalog(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    names = [line.split()[0] for line in out.strip().splitlines()]
    assert len(names) >= 10
    assert "table04_blackbox_mnist" in names


def test_list_json_is_machine_readable(capsys):
    assert main(["list", "--json"]) == 0
    catalog = json.loads(capsys.readouterr().out)
    assert isinstance(catalog, list) and len(catalog) >= 10
    entry = next(e for e in catalog if e["name"] == "table04_blackbox_mnist")
    assert entry["kind"] == "blackbox" and entry["title"]


def test_info_prints_spec_json_and_cell_outlook(tmp_path, capsys):
    assert main(["info", "table02_transferability_mnist", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    # human mode: the spec JSON document, then the planned-cell outlook
    spec_json, _, cells = out.partition("\n# cells")
    payload = json.loads(spec_json)
    assert payload["kind"] == "transferability"
    assert payload["model"] == "lenet_digits"
    assert "cold" in cells  # empty store: every planned cell is cold
    assert "transferability" in cells


def test_info_json_round_trips_through_from_dict(capsys):
    from repro.pipeline import ExperimentSpec, get_experiment

    assert main(["info", "fig08_09_whitebox_l2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # the emitted spec is the service wire format: rebuilding it yields the
    # same digest, so an inline HTTP submission hits the same cell cache
    # (tuples inside params become JSON arrays, which canonical JSON encodes
    # identically -- digest equality is the contract, not dataclass equality)
    rebuilt = ExperimentSpec.from_dict(payload)
    original = get_experiment("fig08_09_whitebox_l2")
    assert rebuilt.name == original.name and rebuilt.attacks == original.attacks
    assert rebuilt.digest() == original.digest()


def test_cache_stats_and_gc(tmp_path, capsys):
    cache_dir = tmp_path / "cells"
    code = main(
        [
            "run",
            "table07_energy_delay",
            "--fast",
            "--quiet",
            "--results-dir",
            str(tmp_path / "results"),
        ]
    )
    assert code == 0
    capsys.readouterr()
    # `run` uses the default cache dir; exercise stats/gc on an explicit one
    from repro.store import ArtifactStore

    ArtifactStore(cache_dir).put("energy", "a" * 40, {"rows": [1, 2, 3]})
    assert main(["cache", "stats", "--json", "--cache-dir", str(cache_dir)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["artifacts"] == 1
    assert stats["namespaces"]["energy"]["artifacts"] == 1
    assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
    human = capsys.readouterr().out
    assert "artifacts" in human and "energy" in human
    assert main(["cache", "gc", "--budget", "0", "--cache-dir", str(cache_dir)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["evicted"] == 1 and report["bytes_after"] == 0


def test_run_writes_results(tmp_path, capsys):
    results_dir = tmp_path / "results"
    code = main(
        ["run", "table07_energy_delay", "--fast", "--no-cache", "--results-dir", str(results_dir)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "table07_energy_delay" in out
    assert (results_dir / "table07_energy_delay.txt").exists()
    payload = json.loads((results_dir / "table07_energy_delay.json").read_text())
    assert payload["fast"] is True
    assert payload["metrics"]["by_name"]["Exact multiplier"] == {"energy": 1.0, "delay": 1.0}


def test_run_with_jobs_flag_spawns_the_pool(tmp_path, capsys):
    results_dir = tmp_path / "results"
    code = main(
        [
            "run",
            "table07_energy_delay",
            "--fast",
            "--no-cache",
            "--jobs",
            "2",
            "--quiet",
            "--results-dir",
            str(results_dir),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "run summary" in out and "2 worker(s)" in out
    payload = json.loads((results_dir / "table07_energy_delay.json").read_text())
    assert payload["telemetry"]["jobs"] == 2
    assert payload["metrics"]["by_name"]["Exact multiplier"] == {"energy": 1.0, "delay": 1.0}


def test_unknown_experiment_is_a_clean_error(capsys):
    assert main(["run", "no_such_experiment"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err
    assert "table04_blackbox_mnist" in err  # lists what is available
    assert main(["info", "no_such_experiment"]) == 2


def test_module_entry_point_runs_fast_experiment(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_DA_CACHE"] = str(tmp_path / "cache")  # keep ~/.cache pristine
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "run",
            "table09_mantissa_energy",
            "--fast",
            "--quiet",
            "--results-dir",
            str(tmp_path / "results"),
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(tmp_path),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "results" / "table09_mantissa_energy.txt").exists()
    assert (tmp_path / "results" / "table09_mantissa_energy.json").exists()


#: ten "steps" that each hold five 20 MB temporaries (a DQ step's largest
#: are 19 MB) and free them; prints the minor faults of steps 2-10, then the
#: resident pages that releasing the freed memory gives back
_STEPS = """
import resource, sys
import numpy as np
from repro.allocator import keep_freed_memory_mapped, release_freed_memory
if sys.argv[1] == "run":
    keep_freed_memory_mapped()
def step():
    return [np.ones(5_000_000, np.float32) for _ in range(5)]
def resident():
    return int(open("/proc/self/statm").read().split()[1])
step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(9):
    step()
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
kept = resident()
release_freed_memory()
print(faults, kept - resident())
"""


def test_run_keeps_freed_training_temporaries_mapped():
    """Under glibc's defaults the freed heap top is trimmed, so every step
    faults its temporaries in again; under the thresholds `run` sets, the
    next step reuses them, and releasing them after a model has trained
    hands the memory back."""
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the thresholds are glibc's")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")

    def run(mode):
        proc = subprocess.run(
            [sys.executable, "-c", _STEPS, mode], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return [int(value) for value in proc.stdout.split()]

    step_pages = 100_000_000 // resource.getpagesize()
    default, _ = run("default")
    faults, released = run("run")
    assert default > step_pages // 10  # the trimmed top faulted in again, step after step
    assert faults * 20 < default
    assert released > step_pages // 2
