"""Dependency fingerprints: the code/numerics surfaces cell digests key on.

Historically every cached grid cell was keyed on one global
``CELL_CACHE_VERSION`` (and every trained-parameter file on one global
``ZOO_NUMERICS_VERSION``): any numerics change anywhere invalidated *every*
artifact.  This module replaces those knobs with named **surfaces** -- the
independently-versioned behaviours a cell's value can actually depend on --
and resolves each to a short fingerprint token:

=============  ==========================================================
surface key    what it versions
=============  ==========================================================
``kernels``    the fused GEMM kernel engine's bit patterns
               (:data:`repro.arith.kernels.KERNEL_NUMERICS_VERSION`)
``arith``      the multiplier/adder substrate and error metrics
               (:data:`repro.arith.ARITH_NUMERICS_VERSION`)
``attacks``    attack semantics: seeding, rollouts, query accounting
               (:data:`repro.attacks.ATTACK_NUMERICS_VERSION`)
``models``     model forward/backward numerics
               (:data:`repro.nn.MODEL_NUMERICS_VERSION`)
``datasets``   the procedural dataset generators
               (:data:`repro.datasets.DATASET_NUMERICS_VERSION`)
``evaluation`` victim selection / success accounting / distance metrics
               (:data:`repro.core.EVALUATION_NUMERICS_VERSION`)
``hw``         the analytical energy/delay cost model
               (:data:`repro.hw.HW_MODEL_VERSION`)
``zoo:<name>`` one zoo entry's full training recipe digest
               (:func:`repro.experiments.zoo.zoo_recipe_digest`)
=============  ==========================================================

Each cell kind declares which surfaces it depends on
(:func:`repro.pipeline.cells.register_cell_kind`'s ``deps=``), the
:class:`~repro.pipeline.runner.Runner` folds only those tokens into the
cell's cache digest, and the artifact store records them in a ``.meta.json``
sidecar -- so a kernel tweak invalidates approximate-conv cells while
clean-accuracy and dataset cells stay warm, and staleness is *checkable*:
compare a sidecar's recorded tokens against the live surfaces
(:func:`diff_fingerprints`, surfaced by ``python -m repro cache explain``).

Providers read their version constants through the owning module attribute
at call time (never cached here), so a monkeypatched bump in a test -- or a
real bump in a PR -- is observed immediately and by forked pool workers
alike.  See ``docs/caching.md`` for the full design and invalidation matrix.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.pipeline.spec import canonical_digest

#: prefix of per-model zoo recipe surfaces (``zoo:lenet_digits`` ...)
ZOO_PREFIX = "zoo:"

#: fingerprint tokens are digest prefixes of this length -- long enough that
#: collisions are out of the question for a handful of surfaces, short
#: enough to read in ``cache explain`` output
TOKEN_WIDTH = 12


def _kernels() -> Dict[str, Any]:
    from repro.arith import kernels

    return {"kernel_numerics": kernels.KERNEL_NUMERICS_VERSION}


def _arith() -> Dict[str, Any]:
    import repro.arith as arith

    return {"arith_numerics": arith.ARITH_NUMERICS_VERSION}


def _attacks() -> Dict[str, Any]:
    import repro.attacks as attacks

    return {"attack_numerics": attacks.ATTACK_NUMERICS_VERSION}


def _models() -> Dict[str, Any]:
    import repro.nn as nn

    return {"model_numerics": nn.MODEL_NUMERICS_VERSION}


def _datasets() -> Dict[str, Any]:
    import repro.datasets as datasets

    return {"dataset_numerics": datasets.DATASET_NUMERICS_VERSION}


def _evaluation() -> Dict[str, Any]:
    import repro.core as core

    return {"evaluation_numerics": core.EVALUATION_NUMERICS_VERSION}


def _hw() -> Dict[str, Any]:
    import repro.hw as hw

    return {"hw_model": hw.HW_MODEL_VERSION}


#: the static (non-``zoo:``) surfaces, key -> description provider
SURFACES: Dict[str, Callable[[], Dict[str, Any]]] = {
    "kernels": _kernels,
    "arith": _arith,
    "attacks": _attacks,
    "models": _models,
    "datasets": _datasets,
    "evaluation": _evaluation,
    "hw": _hw,
}


class UnknownSurfaceError(KeyError):
    """A fingerprint key that names no live surface (removed zoo entry...)."""


def describe_fingerprint(key: str) -> Dict[str, Any]:
    """The JSON-able description behind one surface key (for ``explain``)."""
    if key.startswith(ZOO_PREFIX):
        from repro.experiments.zoo import ZOO, zoo_recipe

        name = key[len(ZOO_PREFIX):]
        try:
            return {"recipe": zoo_recipe(name)}
        except KeyError:
            try:
                ZOO.get(name)
            except KeyError:
                raise UnknownSurfaceError(f"unknown zoo entry {name!r}") from None
            return {"recipe": {"undeclared": name}}  # registered, no recipe
    provider = SURFACES.get(key)
    if provider is None:
        raise UnknownSurfaceError(f"unknown fingerprint surface {key!r}")
    return provider()


def resolve_fingerprint(key: str) -> str:
    """One surface's live fingerprint token.

    Raises :class:`UnknownSurfaceError` when ``key`` names nothing in the
    running code (a removed zoo entry, a renamed surface) -- callers
    comparing recorded metadata treat that as "moved".
    """
    if key.startswith(ZOO_PREFIX):
        from repro.experiments.zoo import zoo_recipe_digest

        try:
            return zoo_recipe_digest(key[len(ZOO_PREFIX):])[:TOKEN_WIDTH]
        except KeyError:
            raise UnknownSurfaceError(f"unknown zoo entry {key[len(ZOO_PREFIX):]!r}")
    return canonical_digest(describe_fingerprint(key))[:TOKEN_WIDTH]


def fingerprint_map(keys: Iterable[str]) -> Dict[str, str]:
    """``{key: token}`` for a sorted, deduplicated set of surface keys."""
    return {key: resolve_fingerprint(key) for key in sorted(set(keys))}


def content_key(cell_kind: str, fast: bool, payload: Any) -> str:
    """A cell's *logical* identity: what it computes, independent of deps.

    Two digests with the same content key are the same cell under different
    code fingerprints -- i.e. one supersedes the other.  Recorded in every
    artifact's meta sidecar; the warm/stale/cold plan outlook and
    ``cache gc --stale`` both pivot on it.
    """
    return canonical_digest({"cell_kind": cell_kind, "fast": bool(fast), "payload": payload})


# ------------------------------------------------------------- staleness
def diff_fingerprints(recorded: Dict[str, str]) -> Dict[str, Dict[str, Any]]:
    """Compare recorded dependency tokens against the live surfaces.

    Returns ``{key: {"recorded", "live", "moved"}}`` where ``live`` is
    ``None`` for keys that no longer resolve.  A cell is stale iff any
    entry moved.
    """
    out: Dict[str, Dict[str, Any]] = {}
    for key in sorted(recorded):
        try:
            live: Optional[str] = resolve_fingerprint(key)
        except UnknownSurfaceError:
            live = None
        out[key] = {
            "recorded": recorded[key],
            "live": live,
            "moved": live != recorded[key],
        }
    return out


def meta_status(meta: Optional[Dict[str, Any]]) -> str:
    """One artifact's staleness verdict from its meta sidecar.

    ``"fresh"`` (every recorded dependency still matches the live code),
    ``"stale"`` (at least one moved) or ``"unknown"`` (no sidecar -- an
    artifact written before per-cell fingerprints, or by a foreign tool).
    """
    if not isinstance(meta, dict) or not isinstance(meta.get("deps"), dict):
        return "unknown"
    diff = diff_fingerprints(meta["deps"])
    return "stale" if any(entry["moved"] for entry in diff.values()) else "fresh"


def store_staleness(store) -> Dict[str, Any]:
    """Staleness breakdown of every artifact in ``store`` (``cache stats``).

    Live fingerprints are resolved once per distinct surface key across the
    scan, so the cost is one sidecar read per artifact.
    """
    token_cache: Dict[str, Optional[str]] = {}

    def live(key: str) -> Optional[str]:
        if key not in token_cache:
            try:
                token_cache[key] = resolve_fingerprint(key)
            except UnknownSurfaceError:
                token_cache[key] = None
        return token_cache[key]

    totals = {"fresh": 0, "stale": 0, "unknown": 0}
    namespaces: Dict[str, Dict[str, int]] = {}
    stale_cells: List[Dict[str, str]] = []
    for namespace, digest, _path, _stat in store._artifacts():
        meta = store.get_meta(namespace, digest)
        if not isinstance(meta, dict) or not isinstance(meta.get("deps"), dict):
            status = "unknown"
        else:
            moved = [k for k, tok in meta["deps"].items() if live(k) != tok]
            status = "stale" if moved else "fresh"
            if moved:
                stale_cells.append(
                    {"namespace": namespace, "digest": digest, "moved": sorted(moved)}
                )
        totals[status] += 1
        entry = namespaces.setdefault(namespace, {"fresh": 0, "stale": 0, "unknown": 0})
        entry[status] += 1
    return {"totals": totals, "namespaces": namespaces, "stale": stale_cells}


def collect_stale(store) -> List[Tuple[str, str]]:
    """``(namespace, digest)`` of every artifact superseded by live code."""
    report = store_staleness(store)
    return [(cell["namespace"], cell["digest"]) for cell in report["stale"]]
