"""Golden fingerprints of the fast-profile experiment results.

A fingerprint is the SHA-256 of a result's canonical JSON text (sorted keys,
compact separators) without the fields the program declares
nondeterministic.  Canonical *text* is compared, not parsed values, so a NaN
metric (``NaN`` in the JSON) equals itself.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List

#: mirrors ``repro.pipeline.NONDETERMINISTIC_RESULT_FIELDS`` (a test keeps
#: the two in step); copied so the harness never imports the program
NONDETERMINISTIC_FIELDS = ("cache", "elapsed_seconds", "telemetry")

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_fast.json"


def fingerprint(result_text: str) -> str:
    result = json.loads(result_text)
    body = {k: v for k, v in result.items() if k not in NONDETERMINISTIC_FIELDS}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_golden(path: Path = GOLDEN_PATH) -> Dict[str, str]:
    return json.loads(path.read_text())["experiments"]


def write_golden(fingerprints: Dict[str, str], path: Path = GOLDEN_PATH) -> None:
    document = {
        "about": "sha256 of each fast-profile result's canonical JSON without "
        + ", ".join(NONDETERMINISTIC_FIELDS),
        "experiments": dict(sorted(fingerprints.items())),
    }
    path.write_text(json.dumps(document, indent=2) + "\n")


def mismatches(fingerprints: Dict[str, str], golden: Dict[str, str]) -> List[str]:
    """Experiments whose fingerprint is missing from or differs from ``golden``."""
    return sorted(name for name, fp in fingerprints.items() if golden.get(name) != fp)
